"""Parallel ingestion and the content-addressed graph cache."""

import errno
import gc
import multiprocessing
import os
import sys
import warnings

import pytest

from repro.corpus import ingest as ingest_module
from repro.corpus import (
    EXTRACTOR_VERSION,
    GraphCache,
    IngestConfig,
    TypeAnnotationDataset,
    extract_file,
    ingest_sources,
    parallel_map,
)
from repro.corpus.dataset import DatasetConfig
from repro.corpus.serialize import graph_to_payload
from repro.corpus.synthesis import CorpusSynthesizer, SynthesisConfig
from repro.graph.builder import GraphBuildError


@pytest.fixture(scope="module")
def corpus() -> dict[str, str]:
    synthesizer = CorpusSynthesizer(SynthesisConfig(num_files=8, seed=19, duplicate_fraction=0.0))
    return {entry.filename: entry.source for entry in synthesizer.generate()}


def _payloads(extracted_files):
    return [graph_to_payload(extracted.graph) for extracted in extracted_files]


def _worker_pid(_item) -> int:
    return os.getpid()


class TestExtractionWorker:
    def test_extracts_graph_and_annotated_symbols(self):
        source = "def double(x: int) -> int:\n    y: str = 'a'\n    return x * 2\n"
        extracted = extract_file("mod.py", source)
        assert extracted.filename == "mod.py"
        assert extracted.graph.num_nodes > 0
        annotations = {symbol.annotation for _, symbol in extracted.annotated_symbols}
        assert {"int", "str"} <= annotations
        # Positions index into graph.symbols.
        for position, symbol in extracted.annotated_symbols:
            assert extracted.graph.symbols[position] == symbol

    def test_uninformative_annotations_filtered(self):
        source = "def f(x: Any) -> None:\n    return None\n"
        extracted = extract_file("mod.py", source)
        assert extracted.annotated_symbols == []

    def test_unparsable_source_raises(self):
        with pytest.raises(GraphBuildError):
            extract_file("broken.py", "def broken(:\n")


class TestParallelEqualsSerial:
    def test_graphs_identical_across_jobs(self, corpus):
        serial, serial_report = ingest_sources(corpus, IngestConfig(jobs=1))
        parallel, parallel_report = ingest_sources(corpus, IngestConfig(jobs=3))
        assert [e.filename for e in serial] == [e.filename for e in parallel] == sorted(corpus)
        assert _payloads(serial) == _payloads(parallel)
        assert serial_report.extracted == parallel_report.extracted == len(corpus)

    def test_datasets_identical_across_jobs(self, corpus):
        serial = TypeAnnotationDataset.from_sources(dict(corpus), ingest=IngestConfig(jobs=1))
        parallel = TypeAnnotationDataset.from_sources(dict(corpus), ingest=IngestConfig(jobs=3))
        assert serial.summary() == parallel.summary()
        for name in ("train", "valid", "test"):
            assert serial.splits[name].samples == parallel.splits[name].samples
            assert _payloads_of(serial.splits[name]) == _payloads_of(parallel.splits[name])
        assert list(serial.registry) == list(parallel.registry)
        assert serial.subtokens.tokens == parallel.subtokens.tokens

    def test_default_from_sources_matches_explicit_serial(self, corpus):
        default = TypeAnnotationDataset.from_sources(dict(corpus))
        explicit = TypeAnnotationDataset.from_sources(dict(corpus), ingest=IngestConfig(jobs=1))
        assert default.summary() == explicit.summary()
        assert default.train.samples == explicit.train.samples

    def test_unparsable_files_skipped_in_both_modes(self, corpus):
        files = dict(corpus)
        files["zz_broken.py"] = "def broken(:\n"
        # Nested past the stack: the builder recurses too deep at 400 terms, the parser at 3,000.
        files.update({f"zz_deep{terms}.py": "x = " + "+".join(["1"] * terms) + "\n" for terms in (400, 3_000)})
        failed = ["zz_broken.py", "zz_deep3000.py", "zz_deep400.py"]
        serial, serial_report = ingest_sources(files, IngestConfig(jobs=1))
        parallel, parallel_report = ingest_sources(files, IngestConfig(jobs=3))
        assert serial_report.failed_files == parallel_report.failed_files == failed
        assert [e.filename for e in serial] == [e.filename for e in parallel] == sorted(corpus)
        augmented = TypeAnnotationDataset.from_sources(
            files, config=DatasetConfig(augment_with_inference=True), ingest=IngestConfig(jobs=1)
        )
        assert augmented.ingest_report.failed_files == failed

    def test_parallel_map_preserves_order(self):
        items = list(range(20))
        assert parallel_map(str, items, jobs=3) == [str(item) for item in items]
        assert parallel_map(str, items, jobs=1) == [str(item) for item in items]

    @pytest.mark.parametrize("refusal", [OSError(errno.ENOSYS, "Function not implemented"), ImportError("no sem_open")])
    def test_refused_semaphores_run_serially(self, corpus, monkeypatch, refusal):
        """Hosts without working POSIX semaphores cannot build a pool's queues; every map runs here."""
        serial, _ = ingest_sources(corpus, IngestConfig(jobs=1))

        def refuse_semaphore(context, *args, **kwargs):
            raise refusal

        monkeypatch.setattr(multiprocessing.context.BaseContext, "Lock", refuse_semaphore)
        assert parallel_map(_worker_pid, list(range(8)), jobs=3) == [os.getpid()] * 8
        parallel, report = ingest_sources(corpus, IngestConfig(jobs=3))
        assert not report.used_process_pool
        assert _payloads(parallel) == _payloads(serial)

    def test_fork_refused_midway_leaves_no_child(self, monkeypatch):
        """A fork refused after one succeeded runs serially, and the child already forked is reaped."""
        real_fork = os.fork
        forks = []

        def fork_once():
            if forks:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork_once)
        with ingest_module.fork_pool(3) as pool:
            assert pool is None
        assert forks == [1]
        leftovers = multiprocessing.active_children()
        for child in leftovers:  # an unreaped child would hang the test run's exit
            child.terminate()
            child.join()
        assert leftovers == []


class TestGraphCache:
    def test_second_ingestion_hits_for_every_file(self, corpus, tmp_path):
        config = IngestConfig(jobs=1, cache_dir=tmp_path)
        cold, cold_report = ingest_sources(corpus, config)
        warm, warm_report = ingest_sources(corpus, config)
        assert cold_report.cache_hits == 0 and cold_report.extracted == len(corpus)
        assert warm_report.cache_hits == len(corpus) and warm_report.extracted == 0
        assert _payloads(cold) == _payloads(warm)

    def test_source_change_invalidates_only_that_file(self, corpus, tmp_path):
        config = IngestConfig(jobs=1, cache_dir=tmp_path)
        ingest_sources(corpus, config)
        edited = dict(corpus)
        name = sorted(edited)[0]
        edited[name] = edited[name] + "\nEXTRA: int = 5\n"
        _, report = ingest_sources(edited, config)
        assert report.extracted == 1
        assert report.cache_hits == len(corpus) - 1

    def test_extractor_version_change_invalidates_everything(self, corpus, tmp_path, monkeypatch):
        ingest_sources(corpus, IngestConfig(jobs=1, cache_dir=tmp_path))
        monkeypatch.setattr(ingest_module, "EXTRACTOR_VERSION", "next-version")
        _, report = ingest_sources(corpus, IngestConfig(jobs=1, cache_dir=tmp_path))
        assert report.cache_hits == 0
        assert report.extracted == len(corpus)

    def test_interpreter_change_invalidates_everything(self, corpus, tmp_path, monkeypatch):
        assert ingest_module.INTERPRETER_TAG == f"{sys.implementation.name}-{sys.version_info[0]}.{sys.version_info[1]}"
        config = IngestConfig(jobs=1, cache_dir=tmp_path)
        ingest_sources(corpus, config)
        monkeypatch.setattr(ingest_module, "INTERPRETER_TAG", "cpython-3.99")
        _, report = ingest_sources(corpus, config)
        assert report.cache_hits == 0
        assert report.extracted == len(corpus)
        monkeypatch.undo()
        _, report = ingest_sources(corpus, config)
        assert report.cache_hits == len(corpus)

    def test_rename_is_still_a_hit_with_renamed_graph(self, tmp_path):
        source = "def f(x: int) -> int:\n    return x\n"
        cache = GraphCache(tmp_path)
        cache.store(source, extract_file("old.py", source))
        reloaded = cache.load(source, "new.py")
        assert reloaded is not None
        assert reloaded.graph.filename == "new.py"

    def test_corrupted_entry_recovers_by_reextraction(self, corpus, tmp_path):
        config = IngestConfig(jobs=1, cache_dir=tmp_path)
        clean, _ = ingest_sources(corpus, config)
        victim = sorted(tmp_path.glob("*.npz"))[0]
        victim.write_bytes(b"this is not a zip archive")
        recovered, report = ingest_sources(corpus, config)
        assert report.extracted == 1  # only the corrupted entry was rebuilt
        assert report.cache_hits == len(corpus) - 1
        assert _payloads(recovered) == _payloads(clean)
        # The entry was rewritten and is valid again.
        from repro.corpus.serialize import GraphShard

        (flat,) = GraphShard.read(victim).graphs()
        assert flat.num_nodes > 0

    def test_fingerprint_mismatch_is_a_miss(self, corpus, tmp_path):
        import numpy as np

        config = IngestConfig(jobs=1, cache_dir=tmp_path)
        clean, _ = ingest_sources(corpus, config)
        victim = sorted(tmp_path.glob("*.npz"))[0]
        # Tamper with one content array while keeping the archive well-formed:
        # the stored fingerprint no longer matches, so the entry must miss.
        with np.load(victim, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        arrays["nodes"] = arrays["nodes"] + 1
        with open(victim, "wb") as handle:
            np.savez(handle, **arrays)
        recovered, report = ingest_sources(corpus, config)
        assert report.extracted == 1
        assert _payloads(recovered) == _payloads(clean)

    def test_truncated_entry_recovers_too(self, corpus, tmp_path):
        config = IngestConfig(jobs=1, cache_dir=tmp_path)
        clean, _ = ingest_sources(corpus, config)
        victim = sorted(tmp_path.glob("*.npz"))[-1]
        victim.write_bytes(victim.read_bytes()[:50])
        recovered, report = ingest_sources(corpus, config)
        assert report.extracted == 1
        assert _payloads(recovered) == _payloads(clean)

    def test_rejected_entry_leaves_no_open_file(self, corpus, tmp_path):
        config = IngestConfig(jobs=1, cache_dir=tmp_path)
        ingest_sources(corpus, config)
        for entry in tmp_path.glob("*.npz"):
            entry.write_bytes(entry.read_bytes()[:50])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            _, report = ingest_sources(corpus, config)
            gc.collect()
        assert report.extracted == len(corpus)
        assert [warning for warning in caught if issubclass(warning.category, ResourceWarning)] == []

    def test_key_depends_on_source_and_version(self, tmp_path, monkeypatch):
        cache = GraphCache(tmp_path)
        key = cache.key("a")
        assert key != cache.key("b")
        monkeypatch.setattr(ingest_module, "EXTRACTOR_VERSION", EXTRACTOR_VERSION + "-other")
        assert cache.key("a") != key


class TestIngestReport:
    def test_summary_fields(self, corpus, tmp_path):
        _, report = ingest_sources(corpus, IngestConfig(jobs=1, cache_dir=tmp_path))
        summary = report.summary()
        assert summary["files"] == len(corpus)
        assert summary["extracted"] == len(corpus)
        assert summary["cache_hits"] == 0
        assert summary["elapsed_seconds"] > 0
        assert report.files_per_second > 0

    def test_dataset_carries_ingest_report(self, corpus):
        dataset = TypeAnnotationDataset.from_sources(dict(corpus))
        assert dataset.ingest_report is not None
        assert dataset.ingest_report.total_files == len(dataset.sources)


class TestSplitGrouping:
    def test_samples_by_graph_matches_naive_grouping(self, corpus):
        dataset = TypeAnnotationDataset.from_sources(dict(corpus))
        split = dataset.train
        naive: dict[int, list] = {}
        for sample in split.samples:
            naive.setdefault(sample.graph_index, []).append(sample)
        assert split.samples_by_graph() == naive

    def test_samples_of_kind_matches_naive_filter(self, corpus):
        dataset = TypeAnnotationDataset.from_sources(dict(corpus))
        split = dataset.train
        kinds = {sample.kind for sample in split.samples}
        for kind in kinds:
            assert split.samples_of_kind(kind) == [s for s in split.samples if s.kind == kind]

    def test_grouping_cache_invalidates_on_append(self, corpus):
        dataset = TypeAnnotationDataset.from_sources(dict(corpus))
        split = dataset.train
        before = dict(split.samples_by_graph())
        extra = split.samples[0]
        split.samples.append(extra)
        after = split.samples_by_graph()
        assert after != before
        assert after[extra.graph_index][-1] is extra


def _payloads_of(split):
    return [graph_to_payload(graph) for graph in split.graphs]
