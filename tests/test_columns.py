"""One on-disk codec: the column container, its atomic writer and its typed reader.

Every array artifact — graph shards, graph-cache entries, the type map and
``encoder.npz`` — is written through ``repro.utils.columns``.  The gates:

* a re-save never pulls pages from under a process that mapped the old
  files (it used to die with SIGBUS);
* every truncation or single-byte flip of a stored artifact either loads
  identical values or raises ``PayloadError`` (a graph-cache entry misses);
* maps, models and datasets written before the container still load.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EncoderConfig, LossKind, TrainingConfig, TypeSpace, TypilusPipeline
from repro.corpus import DatasetConfig, SynthesisConfig, TypeAnnotationDataset
from repro.corpus.ingest import GraphCache, extract_file
from repro.corpus.serialize import GraphShard, flat_graphs_to_arrays, graph_to_payload
from repro.utils.columns import PayloadError, atomic_write, read_columns, write_columns

FIXTURES = Path(__file__).parent / "fixtures"

SOURCE = "def scale(amount: int, factor: int) -> int:\n    total = amount * factor\n    return total\n"

#: Hypothesis settings shared by the corruption properties: a few dozen
#: mutations per artifact keep each property well under a second.
CORRUPTION = settings(max_examples=60, deadline=None)


def _space(n=40, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    space = TypeSpace(dim)
    space.add_markers(
        [f"T{position % 7}" for position in range(n)],
        rng.normal(size=(n, dim)),
        source=[f"file{position % 3}.py" for position in range(n)],
    )
    return space


def _space_values(space):
    return space.dim, space.marker_type_names(), space.marker_sources(), np.asarray(space.marker_matrix()).tobytes()


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(part for part in ("src", env.get("PYTHONPATH", "")) if part)
    return env


def _mutated(data: bytes, mutation) -> bytes:
    """``data`` cut at a position, or with one byte XORed by a nonzero mask."""
    kind, position, mask = mutation
    position %= len(data)
    if kind == "cut":
        return data[:position]
    return data[:position] + bytes([data[position] ^ mask]) + data[position + 1 :]


MUTATIONS = st.tuples(st.sampled_from(["cut", "flip"]), st.integers(0, 2**31), st.integers(1, 255))


class TestContainer:
    def test_atomic_write_writes_exactly_the_path(self, tmp_path):
        assert atomic_write(tmp_path / "out", "text") == tmp_path / "out"
        assert (tmp_path / "out").read_text(encoding="utf-8") == "text"
        atomic_write(tmp_path / "out", lambda handle: handle.write(b"callable"))
        assert (tmp_path / "out").read_bytes() == b"callable"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["out"]

    def test_atomic_write_replaces_the_inode_a_reader_holds(self, tmp_path):
        target = tmp_path / "column.bin"
        atomic_write(target, "old contents")
        with open(target, "rb") as reader:
            atomic_write(target, "new")
            assert reader.read() == b"old contents"
        assert target.read_bytes() == b"new"

    def test_failed_write_leaves_the_old_file_and_no_temporary(self, tmp_path):
        target = tmp_path / "column.bin"
        atomic_write(target, "old")

        def fail(handle):
            handle.write(b"partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            atomic_write(target, fail)
        assert target.read_bytes() == b"old"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["column.bin"]

    @pytest.mark.parametrize("raw", [False, True])
    def test_columns_round_trip_without_pickle(self, tmp_path, raw):
        columns = {
            "format": np.asarray([3], dtype=np.int64),
            "values": np.arange(6.0).reshape(2, 3),
            "x:extra": np.asarray(["tag"]),
            "fingerprint": np.asarray(["abc"]),
        }
        path = write_columns(tmp_path / "set", columns, raw=raw)
        assert path == tmp_path / "set"
        loaded = read_columns(path)
        assert sorted(loaded) == sorted(columns)
        for key, value in columns.items():
            assert loaded[key].dtype == value.dtype and np.array_equal(loaded[key], value)

    def test_raw_header_lives_in_meta_json(self, tmp_path):
        columns = {"format": np.asarray([1], dtype=np.int64), "values": np.arange(3), "fingerprint": np.asarray(["f"])}
        write_columns(tmp_path / "set", columns, raw=True)
        meta = json.loads((tmp_path / "set" / "meta.json").read_text(encoding="utf-8"))
        assert meta == {"format": 1, "fingerprint": "f", "arrays": {"values": "values.npy"}}
        assert isinstance(read_columns(tmp_path / "set", mmap=True)["values"], np.memmap)

    def test_container_failures_are_payload_errors(self, tmp_path):
        write_columns(tmp_path / "set", {"values": np.arange(3)}, raw=True)
        (tmp_path / "set" / "values.npy").unlink()
        with pytest.raises(PayloadError, match="unreadable raw columns"):
            read_columns(tmp_path / "set")
        (tmp_path / "set" / "meta.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(PayloadError):
            read_columns(tmp_path / "set")
        (tmp_path / "bad.npz").write_bytes(b"PK\x03\x04 not a zip")
        with pytest.raises(PayloadError, match="unreadable column archive"):
            read_columns(tmp_path / "bad.npz")
        with pytest.raises(FileNotFoundError):
            read_columns(tmp_path / "missing.npz")
        with pytest.raises(ValueError, match="cannot be memory-mapped"):
            read_columns(tmp_path / "bad.npz", mmap=True)

    def test_raw_resave_drops_the_column_files_it_no_longer_names(self, tmp_path):
        loop = "class Box:\n    def total(self, items):\n        for item in items:\n            yield item\n"
        shard = tmp_path / "graphs-00000.raw"
        write_columns(shard, flat_graphs_to_arrays([extract_file("loop.py", loop).graph]), raw=True)
        before = {path.name for path in shard.iterdir()}
        (shard / ".tmp-0123456789abcdef-values.npy").write_bytes(b"another writer's file")
        small = [extract_file("one.py", "x = 1\n").graph]
        write_columns(shard, flat_graphs_to_arrays(small), raw=True)
        named = set(json.loads((shard / "meta.json").read_text(encoding="utf-8"))["arrays"].values())
        after = {path.name for path in shard.iterdir()}
        assert after == named | {"meta.json", ".tmp-0123456789abcdef-values.npy"}
        assert any(name.startswith("edges__") for name in before - after)  # edge kinds `x = 1` lacks
        assert [graph_to_payload(graph) for graph in GraphShard.read(shard).graphs()] == [
            graph_to_payload(graph) for graph in small
        ]

    def test_pickled_object_arrays_are_refused(self, tmp_path):
        np.savez(tmp_path / "objects.npz", names=np.asarray(["a", "b"], dtype=object))
        with pytest.raises(PayloadError, match="pickle"):
            read_columns(tmp_path / "objects.npz")


class TestTypeSpacePaths:
    def test_save_writes_the_path_it_is_given(self, tmp_path):
        space = _space()
        target = tmp_path / "out"
        assert space.save(str(target)) == str(target)
        assert target.is_file() and not (tmp_path / "out.npz").exists()
        assert _space_values(TypeSpace.load(str(target))) == _space_values(space)

    def test_legacy_npz_archive_loads(self, tmp_path):
        """An ``.npz`` map written before the column container: pickled per-marker names."""
        space = _space()
        np.savez(
            tmp_path / "legacy.npz",
            embeddings=space.marker_matrix(),
            type_names=np.asarray(space.marker_type_names(), dtype=object),
            sources=np.asarray(space.marker_sources(), dtype=object),
            dim=np.asarray([space.dim]),
        )
        assert _space_values(TypeSpace.load(str(tmp_path / "legacy.npz"))) == _space_values(space)

    def test_resave_over_own_mapping(self, tmp_path):
        """A mapped space re-saved into its own directory reads its old pages while writing."""
        space = _space()
        space.save(str(tmp_path / "ts"), layout="raw")
        mapped = TypeSpace.load(str(tmp_path / "ts"), mmap=True)
        mapped.save(str(tmp_path / "ts"), layout="raw")
        assert _space_values(TypeSpace.load(str(tmp_path / "ts"))) == _space_values(space)


class TestResaveUnderMappedReader:
    """A process that mapped a raw map or dataset survives a smaller re-save into the same directory.

    Before saves were atomic, the re-save truncated the mapped files and the
    reader's next access died with SIGBUS (exit -7).
    """

    _SPACE_READER = """\
import hashlib
import sys

import numpy as np

from repro.core import TypeSpace

space = TypeSpace.load(sys.argv[1], mmap=True)
assert space.is_memory_mapped
print("READY", flush=True)
sys.stdin.readline()  # the parent re-saves a smaller map meanwhile
matrix = np.array(space.marker_matrix())  # touches every mapped page
print(len(space), hashlib.sha256(matrix.tobytes()).hexdigest(), flush=True)
"""

    _DATASET_READER = """\
import hashlib
import json
import sys

from repro.corpus import TypeAnnotationDataset
from repro.corpus.serialize import graph_to_payload

dataset = TypeAnnotationDataset.load(sys.argv[1], mmap=True)
print("READY", flush=True)
sys.stdin.readline()  # the parent re-saves a smaller dataset meanwhile
payloads = [graph_to_payload(graph) for split in dataset.splits.values() for graph in split.graphs]
print(len(payloads), hashlib.sha256(json.dumps(payloads, sort_keys=True).encode("utf-8")).hexdigest(), flush=True)
"""

    @staticmethod
    def _read_across_resave(script: str, directory: Path, resave) -> tuple[int, str]:
        reader = subprocess.Popen(
            [sys.executable, "-c", script, str(directory)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=_subprocess_env(),
            text=True,
        )
        try:
            assert reader.stdout.readline().strip() == "READY"
            resave()
            output, _ = reader.communicate("go\n", timeout=120)
        finally:
            reader.kill()
            reader.wait()
        return reader.returncode, output.strip()

    def test_mapped_type_map_survives_a_smaller_resave(self, tmp_path):
        big, small = _space(n=20_000, dim=16, seed=1), _space(n=100, dim=16, seed=2)
        big.save(str(tmp_path / "ts"), layout="raw")
        code, output = self._read_across_resave(
            self._SPACE_READER, tmp_path / "ts", lambda: small.save(str(tmp_path / "ts"), layout="raw")
        )
        assert code == 0, f"the mapped reader died with exit {code}"
        expected = hashlib.sha256(np.asarray(big.marker_matrix()).tobytes()).hexdigest()
        assert output == f"20000 {expected}"
        assert _space_values(TypeSpace.load(str(tmp_path / "ts"))) == _space_values(small)

    def test_mapped_dataset_survives_a_smaller_resave(self, tmp_path):
        big = TypeAnnotationDataset.synthetic(SynthesisConfig(num_files=40, seed=3), DatasetConfig(seed=3))
        small = TypeAnnotationDataset.synthetic(SynthesisConfig(num_files=6, seed=4), DatasetConfig(seed=4))
        big.save(tmp_path / "data", shard_size=1000, shard_format="raw")
        code, output = self._read_across_resave(
            self._DATASET_READER,
            tmp_path / "data",
            lambda: small.save(tmp_path / "data", shard_size=1000, shard_format="raw"),
        )
        assert code == 0, f"the mapped reader died with exit {code}"
        payloads = [graph_to_payload(graph) for split in big.splits.values() for graph in split.graphs]
        digest = hashlib.sha256(json.dumps(payloads, sort_keys=True).encode("utf-8")).hexdigest()
        assert output == f"{len(payloads)} {digest}"
        reloaded = TypeAnnotationDataset.load(tmp_path / "data")
        assert reloaded.summary() == small.summary()


class TestCorruptionIsTyped:
    """Every cut or flipped byte loads identical values or raises ``PayloadError``."""

    @pytest.fixture(scope="class")
    def tiny_pipeline(self):
        dataset = TypeAnnotationDataset.synthetic(
            SynthesisConfig(num_files=6, seed=11, num_user_classes=3), DatasetConfig(rarity_threshold=3, seed=11)
        )
        return TypilusPipeline.fit(
            dataset,
            EncoderConfig(family="names", hidden_dim=4, seed=11),
            LossKind.TYPILUS,
            TrainingConfig(epochs=1, graphs_per_batch=4, seed=11),
        )

    @pytest.mark.parametrize("layout", ["npz", "raw"])
    @CORRUPTION
    @given(mutation=MUTATIONS, pick=st.integers(0, 2**31))
    def test_type_map(self, tmp_path_factory, layout, mutation, pick):
        space = _space(n=12, dim=3)
        original = tmp_path_factory.mktemp("original") / "ts"
        space.save(str(original), layout=layout)
        files = sorted(original.iterdir()) if layout == "raw" else [original]
        victim = files[pick % len(files)]
        victim.write_bytes(_mutated(victim.read_bytes(), mutation))
        try:
            loaded = TypeSpace.load(str(original))
        except PayloadError:
            return
        assert _space_values(loaded) == _space_values(space)

    @CORRUPTION
    @given(mutation=MUTATIONS)
    def test_graph_shard(self, tmp_path_factory, mutation):
        graphs = [extract_file("scale.py", SOURCE).graph]
        path = tmp_path_factory.mktemp("shard") / "graphs-00000.npz"
        write_columns(path, flat_graphs_to_arrays(graphs), raw=False)
        path.write_bytes(_mutated(path.read_bytes(), mutation))
        try:
            loaded = GraphShard.read(path).graphs()
        except PayloadError:
            return
        assert [graph_to_payload(graph) for graph in loaded] == [graph_to_payload(graph) for graph in graphs]

    @CORRUPTION
    @given(mutation=MUTATIONS)
    def test_graph_cache_entry_misses(self, tmp_path_factory, mutation):
        extracted = extract_file("scale.py", SOURCE)
        cache = GraphCache(tmp_path_factory.mktemp("cache"))
        entry = cache.store(SOURCE, extracted)
        entry.write_bytes(_mutated(entry.read_bytes(), mutation))
        loaded = cache.load(SOURCE, "scale.py")
        assert loaded is None or graph_to_payload(loaded.graph) == graph_to_payload(extracted.graph)

    @CORRUPTION
    @given(mutation=MUTATIONS)
    def test_encoder_archive(self, tiny_pipeline, tmp_path_factory, mutation):
        model = tmp_path_factory.mktemp("model")
        tiny_pipeline.save(model)
        encoder = model / "encoder.npz"
        encoder.write_bytes(_mutated(encoder.read_bytes(), mutation))
        try:
            loaded = TypilusPipeline.load(model)
        except PayloadError:
            return
        assert loaded.fingerprint() == tiny_pipeline.fingerprint()


class TestManifestErrorsAreTyped:
    """A cut or flipped ``pipeline.json``, ``dataset.json`` or ``sources.json`` raises ``PayloadError``.

    A flip that decodes to another valid manifest may load; only a missing
    manifest raises ``FileNotFoundError``.
    """

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        dataset = TypeAnnotationDataset.synthetic(
            SynthesisConfig(num_files=6, seed=12, num_user_classes=3), DatasetConfig(rarity_threshold=3, seed=12)
        )
        pipeline = TypilusPipeline.fit(
            dataset, EncoderConfig(family="names", hidden_dim=4, seed=12), LossKind.TYPILUS,
            TrainingConfig(epochs=1, graphs_per_batch=4, seed=12),
        )
        root = tmp_path_factory.mktemp("manifests")
        dataset.save(root / "data")
        pipeline.save(root / "model")
        return root

    @staticmethod
    def _mutated_copy(saved, tmp_path_factory, directory, name, mutation):
        copy = tmp_path_factory.mktemp("mutated") / directory
        shutil.copytree(saved / directory, copy)
        (copy / name).write_bytes(_mutated((copy / name).read_bytes(), mutation))
        return copy

    @CORRUPTION
    @given(mutation=MUTATIONS)
    def test_pipeline_manifest(self, saved, tmp_path_factory, mutation):
        model = self._mutated_copy(saved, tmp_path_factory, "model", "pipeline.json", mutation)
        try:
            TypilusPipeline.peek_manifest(model)
            TypilusPipeline.load(model)
        except PayloadError:
            pass

    @CORRUPTION
    @given(name=st.sampled_from(["dataset.json", "sources.json"]), mutation=MUTATIONS)
    def test_dataset_manifests(self, saved, tmp_path_factory, name, mutation):
        data = self._mutated_copy(saved, tmp_path_factory, "data", name, mutation)
        try:
            TypeAnnotationDataset.load(data)
        except PayloadError:
            pass

    def test_missing_manifests_are_not_found(self, saved, tmp_path):
        for directory, name in (("model", "pipeline.json"), ("data", "dataset.json")):
            shutil.copytree(saved / directory, tmp_path / directory)
            (tmp_path / directory / name).unlink()
        with pytest.raises(FileNotFoundError):
            TypilusPipeline.load(tmp_path / "model")
        with pytest.raises(FileNotFoundError):
            TypeAnnotationDataset.load(tmp_path / "data")


class TestLegacyModels:
    """Model directories written before the column container, in both type-map layouts.

    ``tests/fixtures/legacy_model/{npz,raw}`` were saved by the last version
    with pickled type maps (``typespace.npz`` with a ``type_names`` object
    array; ``typespace/`` holding ``embeddings.npy`` and ``markers.npz``),
    from one tiny graph-family pipeline whose fingerprint
    ``fingerprint.json`` records.
    """

    @pytest.mark.parametrize("layout, mmap", [("npz", None), ("raw", None), ("raw", False)])
    def test_fixture_loads_with_its_recorded_fingerprint(self, layout, mmap):
        record = json.loads((FIXTURES / "legacy_model" / "fingerprint.json").read_text(encoding="utf-8"))
        loaded = TypilusPipeline.load(FIXTURES / "legacy_model" / layout, mmap_typespace=mmap)
        assert len(loaded.type_space) == record["markers"]
        assert loaded.fingerprint() == record["fingerprint"]
        assert loaded.type_space.is_memory_mapped == (layout == "raw" and mmap is None)

    def test_raw_fixture_resaved_in_place_keeps_only_the_named_files(self, tmp_path):
        record = json.loads((FIXTURES / "legacy_model" / "fingerprint.json").read_text(encoding="utf-8"))
        model = tmp_path / "model"
        shutil.copytree(FIXTURES / "legacy_model" / "raw", model)
        TypilusPipeline.load(model, mmap_typespace=False).save(model, typespace_layout="raw")
        meta = json.loads((model / "typespace" / "meta.json").read_text(encoding="utf-8"))
        assert {path.name for path in (model / "typespace").iterdir()} == {"meta.json", *meta["arrays"].values()}
        assert TypilusPipeline.load(model).fingerprint() == record["fingerprint"]

    @pytest.mark.parametrize("layout", ["npz", "raw"])
    def test_resaved_fixture_keeps_its_fingerprint(self, tmp_path, layout):
        record = json.loads((FIXTURES / "legacy_model" / "fingerprint.json").read_text(encoding="utf-8"))
        TypilusPipeline.load(FIXTURES / "legacy_model" / layout).save(tmp_path / "model", typespace_layout=layout)
        assert TypilusPipeline.load(tmp_path / "model").fingerprint() == record["fingerprint"]
