"""Memory-mapped TypeSpace serving: raw layout, shared read-only pages, promotion."""

import json

import numpy as np
import pytest

from repro.core import TypeSpace, TypilusPipeline
from repro.utils.columns import PayloadError


def populated_space(n=300, dim=8, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    space = TypeSpace(dim, **kwargs)
    space.add_markers(
        [f"T{position % 12}" for position in range(n)],
        rng.normal(size=(n, dim)),
        source=[f"file{position % 5}.py" for position in range(n)],
    )
    return space


def _save_legacy_raw(space, directory, dtype=np.float64):
    """``space`` in the raw layout written before the column container: pickled object arrays."""
    directory.mkdir()
    np.save(directory / "embeddings.npy", space.marker_matrix().astype(dtype))
    np.savez(
        directory / "markers.npz",
        codes=space.marker_type_codes(),
        vocabulary=np.asarray(space.type_vocabulary(), dtype=object),
        sources=np.asarray(space.marker_sources(), dtype=object),
        dim=np.asarray([space.dim]),
    )


class TestRawLayout:
    def test_raw_round_trip_preserves_everything(self, tmp_path):
        space = populated_space()
        space.save(str(tmp_path / "ts"), layout="raw")
        restored = TypeSpace.load(str(tmp_path / "ts"))
        assert restored.marker_type_names() == space.marker_type_names()
        assert restored.marker_sources() == space.marker_sources()
        assert restored.dtype == space.dtype
        np.testing.assert_array_equal(restored.marker_matrix(), space.marker_matrix())

    @pytest.mark.parametrize("mmap", [False, True])
    def test_float32_file_loads_as_a_float64_copy(self, tmp_path, mmap):
        """A raw directory of an older version (``markers.npz``, no ``meta.json``) with a float32 matrix."""
        space = populated_space()
        _save_legacy_raw(space, tmp_path / "ts", np.float32)
        restored = TypeSpace.load(str(tmp_path / "ts"), mmap=mmap)
        assert restored.marker_type_names() == space.marker_type_names()
        assert restored.marker_sources() == space.marker_sources()
        assert restored.marker_matrix().dtype == np.float64
        assert not restored.is_memory_mapped
        np.testing.assert_array_equal(restored.marker_matrix(), space.marker_matrix().astype(np.float32))

    def test_unknown_layout_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown TypeSpace layout 'parquet'"):
            populated_space().save(str(tmp_path / "ts"), layout="parquet")

    def test_mmap_of_npz_archive_rejected(self, tmp_path):
        space = populated_space()
        path = str(tmp_path / "space.npz")
        space.save(path)
        with pytest.raises(ValueError, match="cannot be memory-mapped"):
            TypeSpace.load(path, mmap=True)

    def test_inconsistent_raw_directory_rejected(self, tmp_path):
        space = populated_space()
        space.save(str(tmp_path / "ts"), layout="raw")
        np.save(tmp_path / "ts" / "embeddings.npy", np.zeros((2, 8)))
        with pytest.raises(PayloadError, match="fingerprint"):
            TypeSpace.load(str(tmp_path / "ts"))
        # A mapped load skips the fingerprint but still checks the shapes.
        with pytest.raises(PayloadError, match="is inconsistent"):
            TypeSpace.load(str(tmp_path / "ts"), mmap=True)


class TestMmapSemantics:
    def test_mmap_load_performs_no_copy_and_is_read_only(self, tmp_path):
        space = populated_space()
        space.save(str(tmp_path / "ts"), layout="raw")
        mapped = TypeSpace.load(str(tmp_path / "ts"), mmap=True)
        matrix = mapped.marker_matrix()
        assert isinstance(matrix, np.memmap)  # backed by the file, not a RAM copy
        assert matrix.base is not None
        assert not matrix.flags.writeable

    def test_mmap_nearest_batch_byte_identical(self, tmp_path):
        space = populated_space()
        space.save(str(tmp_path / "ts"), layout="raw")
        mapped = TypeSpace.load(str(tmp_path / "ts"), mmap=True)
        queries = np.random.default_rng(7).normal(size=(40, 8))
        expected = space.nearest_batch(queries, 6)
        answered = mapped.nearest_batch(queries, 6)
        assert expected.type_codes.tobytes() == answered.type_codes.tobytes()
        assert expected.distances.tobytes() == answered.distances.tobytes()

    def test_two_loads_are_both_read_only_views_of_the_file(self, tmp_path):
        space = populated_space()
        space.save(str(tmp_path / "ts"), layout="raw")
        first = TypeSpace.load(str(tmp_path / "ts"), mmap=True)
        second = TypeSpace.load(str(tmp_path / "ts"), mmap=True)
        for loaded in (first, second):
            matrix = loaded.marker_matrix()
            assert isinstance(matrix, np.memmap)
            assert not matrix.flags.writeable
            assert str(matrix.base.filename) == str(tmp_path / "ts" / "embeddings.npy")
        queries = np.random.default_rng(8).normal(size=(5, 8))
        assert (
            first.nearest_batch(queries, 3).distances.tobytes()
            == second.nearest_batch(queries, 3).distances.tobytes()
        )

    def test_add_markers_promotes_without_corrupting_the_file(self, tmp_path):
        space = populated_space()
        space.save(str(tmp_path / "ts"), layout="raw")
        on_disk = np.array(np.load(tmp_path / "ts" / "embeddings.npy"))
        mapped = TypeSpace.load(str(tmp_path / "ts"), mmap=True)
        mapped.nearest_batch(np.zeros((1, 8)), 2)  # build the index over the mapping
        new_rows = np.random.default_rng(9).normal(size=(10, 8))
        mapped.add_markers(["Fresh"] * 10, new_rows, source="adapt")
        matrix = mapped.marker_matrix()
        assert not isinstance(matrix, np.memmap)  # promoted to private RAM storage
        assert matrix.flags.writeable
        assert len(mapped) == len(on_disk) + 10
        np.testing.assert_array_equal(matrix[: len(on_disk)], on_disk)
        np.testing.assert_array_equal(matrix[len(on_disk) :], new_rows)
        # the on-disk file is untouched: a fresh load still sees the original rows
        np.testing.assert_array_equal(
            np.array(np.load(tmp_path / "ts" / "embeddings.npy")), on_disk
        )
        # and the promoted space serves the new markers
        answer = mapped.nearest(new_rows[0], 1)
        assert answer[0][0] == "Fresh"


class TestConcurrentProcesses:
    """Two *processes* can map the same raw layout and answer identically.

    This is the fleet-serving contract: every annotation worker maps the one
    on-disk marker matrix read-only, so N workers cost one matrix of RAM and
    no worker can drift from another.
    """

    _CHILD = """\
import hashlib
import sys

import numpy as np

from repro.core import TypeSpace

space = TypeSpace.load(sys.argv[1], mmap=True)
assert space.is_memory_mapped
print("READY", flush=True)
sys.stdin.readline()  # hold the mapping open until both processes are up
queries = np.random.default_rng(1234).normal(size=(64, space.dim))
result = space.nearest_batch(queries, 5)
digest = hashlib.sha256(result.type_codes.tobytes() + result.distances.tobytes())
print(digest.hexdigest(), flush=True)
"""

    def test_two_processes_share_one_mapping_and_agree(self, tmp_path):
        import os
        import subprocess
        import sys

        space = populated_space()
        space.save(str(tmp_path / "ts"), layout="raw")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in ("src", env.get("PYTHONPATH", "")) if part
        )
        children = [
            subprocess.Popen(
                [sys.executable, "-c", self._CHILD, str(tmp_path / "ts")],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                env=env,
                text=True,
            )
            for _ in range(2)
        ]
        try:
            # Both processes hold the read-only mapping before either queries.
            for child in children:
                assert child.stdout.readline().strip() == "READY"
            for child in children:
                child.stdin.write("go\n")
                child.stdin.flush()
            digests = [child.stdout.readline().strip() for child in children]
            for child in children:
                assert child.wait(timeout=60) == 0
        finally:
            for child in children:
                child.kill()
        assert digests[0] and digests[0] == digests[1]
        # and the in-process answer matches the children byte-for-byte
        import hashlib

        queries = np.random.default_rng(1234).normal(size=(64, space.dim))
        result = space.nearest_batch(queries, 5)
        local = hashlib.sha256(result.type_codes.tobytes() + result.distances.tobytes())
        assert local.hexdigest() == digests[0]


class TestPipelineRawLayout:
    @pytest.fixture(scope="class")
    def raw_dir(self, trained_pipeline, tmp_path_factory):
        path = tmp_path_factory.mktemp("model") / "pipeline"
        trained_pipeline.save(path, typespace_layout="raw")
        return path

    def test_raw_save_writes_directory_layout(self, raw_dir):
        assert (raw_dir / "typespace" / "embeddings.npy").exists()
        meta = json.loads((raw_dir / "typespace" / "meta.json").read_text(encoding="utf-8"))
        assert meta["arrays"]["embeddings"] == "embeddings.npy"
        assert not (raw_dir / "typespace" / "markers.npz").exists()
        assert not (raw_dir / "typespace.npz").exists()
        manifest = json.loads((raw_dir / "pipeline.json").read_text(encoding="utf-8"))
        assert manifest["typespace_layout"] == "raw"
        assert "index" not in manifest

    def test_raw_load_memory_maps_by_default(self, raw_dir):
        loaded = TypilusPipeline.load(raw_dir)
        assert isinstance(loaded.type_space.marker_matrix(), np.memmap)
        in_ram = TypilusPipeline.load(raw_dir, mmap_typespace=False)
        assert not isinstance(in_ram.type_space.marker_matrix(), np.memmap)

    def test_raw_reload_keeps_byte_identical_fingerprint(self, trained_pipeline, raw_dir):
        loaded = TypilusPipeline.load(raw_dir)
        assert loaded.fingerprint() == trained_pipeline.fingerprint()

    def test_npz_layout_cannot_be_mmapped(self, trained_pipeline, tmp_path):
        path = tmp_path / "npz-model"
        trained_pipeline.save(path)
        with pytest.raises(ValueError, match="cannot\\s+be memory-mapped"):
            TypilusPipeline.load(path, mmap_typespace=True)

    def test_unknown_layout_rejected(self, trained_pipeline, tmp_path):
        with pytest.raises(ValueError, match="unknown typespace layout"):
            trained_pipeline.save(tmp_path / "model", typespace_layout="hdf5")
