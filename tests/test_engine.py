"""Project-scale annotation engine: batched reports, metrics and CLI surface."""

import errno
import hashlib
import json
import math
import multiprocessing
import os
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import EncoderConfig, TrainingConfig, TypeCheckedFilter, TypilusPipeline
from repro.core import pipeline as pipeline_module
from repro.core.pipeline import POOL_CHUNK_FILES, POOL_MIN_FILES
from repro.corpus import CorpusSynthesizer, SynthesisConfig
from repro.engine import AnnotatorConfig, FileReport, ProjectAnnotator, ProjectReport, suggestion_to_payload
from repro.corpus import IngestConfig, ingest_sources
from repro.corpus import ingest as ingest_module
from repro.engine import annotator as annotator_module
from repro.engine.annotator import ANNOTATION_CACHE_VERSION
from repro.graph.builder import GraphBuilder
from repro.graph.nodes import SymbolKind
from repro.nn import Tensor, no_grad

UNANNOTATED_A = (
    "def scale_amount(amount, factor):\n"
    "    return amount * factor\n"
)
UNANNOTATED_B = (
    "def count_entries(entries):\n"
    "    return len(entries)\n"
    "\n"
    "def join_names(names):\n"
    "    return ','.join(names)\n"
)


@pytest.fixture(scope="module")
def family_pipelines(trained_pipeline, tiny_dataset):
    """One small pipeline per encoder family (the graph one is the shared fixture)."""
    pipelines = {"graph": trained_pipeline}
    for family in ("sequence", "path", "names"):
        pipelines[family] = TypilusPipeline.fit(
            tiny_dataset,
            EncoderConfig(family=family, hidden_dim=16, seed=5),
            training_config=TrainingConfig(epochs=1, graphs_per_batch=6, seed=5),
        )
    return pipelines


@pytest.fixture(scope="module")
def pooled_project():
    """A project with enough files for the annotate pool."""
    files = CorpusSynthesizer(SynthesisConfig(num_files=POOL_MIN_FILES + 2, seed=43, num_user_classes=8)).generate()
    return {file.filename: file.source for file in files}


@pytest.fixture
def pool_spy(monkeypatch):
    """Records, per suggestion call, how many children its fork pool ran (0: none); usable cores read as 2."""
    opened = []
    real_fork_pool = pipeline_module.fork_pool

    @contextmanager
    def spy(workers, *args):
        with real_fork_pool(workers, *args) as pool:
            opened.append(workers if pool is not None else 0)
            yield pool

    monkeypatch.setattr(pipeline_module, "fork_pool", spy)
    monkeypatch.setattr(pipeline_module, "usable_cores", lambda: 2)
    return opened


class TestProjectAnnotator:
    def test_batched_report_matches_single_file_path(self, trained_pipeline):
        sources = {"a.py": UNANNOTATED_A, "b.py": UNANNOTATED_B}
        annotator = ProjectAnnotator(trained_pipeline, AnnotatorConfig(use_type_checker=False))
        report = annotator.annotate_sources(sources)
        assert report.num_files == 2
        assert not report.skipped_files
        for file_report in report.files:
            single = trained_pipeline.suggest_for_source(
                sources[file_report.filename], filename=file_report.filename, use_type_checker=False
            )
            assert [(s.scope, s.name, s.suggested_type) for s in file_report.suggestions] == [
                (s.scope, s.name, s.suggested_type) for s in single
            ]

    def test_checker_filter_equals_per_symbol_protocol(self, trained_pipeline):
        files = CorpusSynthesizer(SynthesisConfig(num_files=5, seed=31, num_user_classes=8)).generate()
        sources = {file.filename: file.source for file in files}
        report = ProjectAnnotator(trained_pipeline, AnnotatorConfig(use_type_checker=True)).annotate_sources(sources)
        checker_filter = TypeCheckedFilter()
        checked = 0
        for file_report in report.files:
            for suggestion in file_report.suggestions:
                if suggestion.filtered is None:
                    continue
                alone = checker_filter.filter(sources[file_report.filename], suggestion.scope, suggestion.name,
                                              SymbolKind(suggestion.kind), suggestion.prediction,
                                              suggestion.existing_annotation)
                assert suggestion.filtered == alone, (file_report.filename, suggestion.scope, suggestion.name)
                checked += 1
        assert checked > 100

    def test_unparsable_files_are_skipped_not_fatal(self, trained_pipeline):
        # The builder recurses past the stack at 400 terms of ``1+1+…``, the parser at 3,000.
        deep = {f"deep{terms}.py": "x = " + "+".join(["1"] * terms) + "\n" for terms in (400, 3_000)}
        sources = {"ok.py": UNANNOTATED_A, "broken.py": "def broken(:\n", **deep}
        report = ProjectAnnotator(trained_pipeline, AnnotatorConfig(use_type_checker=False)).annotate_sources(
            sources
        )
        assert report.skipped_files == ["broken.py", "deep400.py", "deep3000.py"]
        assert [f.filename for f in report.files] == ["ok.py"]

    def test_report_metrics_and_throughput(self, trained_pipeline):
        report = ProjectAnnotator(trained_pipeline, AnnotatorConfig(use_type_checker=False)).annotate_sources(
            {"a.py": UNANNOTATED_A, "b.py": UNANNOTATED_B}
        )
        assert report.num_symbols == sum(f.num_symbols for f in report.files) > 0
        assert 0.0 <= report.coverage <= 1.0
        assert report.elapsed_seconds > 0
        assert report.symbols_per_second > 0
        summary = report.summary()
        assert summary["files"] == 2
        assert summary["symbols"] == report.num_symbols

    def test_confidence_threshold_prunes_symbols(self, trained_pipeline):
        loose = ProjectAnnotator(
            trained_pipeline, AnnotatorConfig(use_type_checker=False, confidence_threshold=0.0)
        ).annotate_sources({"a.py": UNANNOTATED_A})
        strict = ProjectAnnotator(
            trained_pipeline, AnnotatorConfig(use_type_checker=False, confidence_threshold=0.99)
        ).annotate_sources({"a.py": UNANNOTATED_A})
        assert strict.num_symbols <= loose.num_symbols

    def test_disagreements_respect_threshold(self, trained_pipeline):
        source = "def build_grid(num_rows: str, num_cols: str) -> int:\n    return num_rows * num_cols\n"
        report = ProjectAnnotator(
            trained_pipeline,
            AnnotatorConfig(use_type_checker=False, disagreement_threshold=0.0),
        ).annotate_sources({"grid.py": source})
        for filename, suggestion in report.disagreements():
            assert filename == "grid.py"
            assert suggestion.disagrees_with_existing
        # raising the threshold can only shrink the findings
        stricter = ProjectAnnotator(
            trained_pipeline,
            AnnotatorConfig(use_type_checker=False, disagreement_threshold=0.999),
        ).annotate_sources({"grid.py": source})
        assert len(stricter.disagreements()) <= len(report.disagreements())

    def test_annotate_directory_walks_files(self, trained_pipeline, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "a.py").write_text(UNANNOTATED_A, encoding="utf-8")
        (tmp_path / "pkg" / "b.py").write_text(UNANNOTATED_B, encoding="utf-8")
        (tmp_path / "notes.txt").write_text("not python", encoding="utf-8")
        report = ProjectAnnotator(trained_pipeline, AnnotatorConfig(use_type_checker=False)).annotate_directory(
            tmp_path
        )
        assert sorted(f.filename for f in report.files) == ["a.py", "pkg/b.py"]

    def test_annotate_directory_rejects_non_directory(self, trained_pipeline, tmp_path):
        target = tmp_path / "file.py"
        target.write_text("x = 1\n", encoding="utf-8")
        with pytest.raises(NotADirectoryError):
            ProjectAnnotator(trained_pipeline).annotate_directory(target)

    def test_empty_project_yields_empty_report(self, trained_pipeline):
        report = ProjectAnnotator(trained_pipeline).annotate_sources({})
        assert report.num_files == 0
        assert report.num_symbols == 0
        assert report.coverage == 0.0

    def test_checker_filter_runs_in_engine(self, trained_pipeline):
        source = "def double_text(text):\n    return text + text\n\nresult: str = double_text('x')\n"
        report = ProjectAnnotator(
            trained_pipeline, AnnotatorConfig(use_type_checker=True)
        ).annotate_sources({"f.py": source})
        [file_report] = report.files
        assert any(s.filtered is not None for s in file_report.suggestions)


class TestSuggestForSources:
    def test_batch_covers_all_files_and_symbols(self, trained_pipeline):
        results = trained_pipeline.suggest_for_sources(
            {"a.py": UNANNOTATED_A, "b.py": UNANNOTATED_B}, use_type_checker=False
        )
        assert set(results) == {"a.py", "b.py"}
        names_b = {s.name for s in results["b.py"]}
        assert {"entries", "names", "<return>"} <= names_b

    def test_unparsable_raises_without_skip_flag(self, trained_pipeline):
        from repro.graph.builder import GraphBuildError

        with pytest.raises(GraphBuildError):
            trained_pipeline.suggest_for_sources({"broken.py": "def broken(:\n"})

    def test_predictions_identical_to_split_predictor(self, trained_pipeline, tiny_dataset):
        """The batch suggestion path uses the same predictor as split scoring."""
        embeddings, _ = trained_pipeline.embedder.embed_split(tiny_dataset.test)
        if len(embeddings) == 0:
            pytest.skip("no test symbols in tiny dataset")
        batched = trained_pipeline.predictor.predict_batch(embeddings)
        singles = [trained_pipeline.predictor.predict(embedding) for embedding in embeddings]
        for one, other in zip(singles, batched):
            assert one.top_type == other.top_type
            assert np.isclose(one.confidence, other.confidence)


class TestIncrementalAnnotation:
    def _suggestion_keys(self, report):
        return {
            file_report.filename: [
                (s.scope, s.name, s.suggested_type, round(s.confidence, 12))
                for s in file_report.suggestions
            ]
            for file_report in report.files
        }

    def test_second_run_reuses_every_unchanged_file(self, trained_pipeline, tmp_path):
        sources = {"a.py": UNANNOTATED_A, "b.py": UNANNOTATED_B}
        config = AnnotatorConfig(use_type_checker=False, cache_dir=tmp_path)
        annotator = ProjectAnnotator(trained_pipeline, config)
        cold = annotator.annotate_sources(sources)
        warm = annotator.annotate_sources(sources)
        assert cold.reused_files == 0
        assert warm.reused_files == 2
        assert self._suggestion_keys(warm) == self._suggestion_keys(cold)
        assert warm.summary()["reused_files"] == 2

    def test_only_changed_file_is_reannotated(self, trained_pipeline, tmp_path):
        sources = {"a.py": UNANNOTATED_A, "b.py": UNANNOTATED_B}
        annotator = ProjectAnnotator(
            trained_pipeline, AnnotatorConfig(use_type_checker=False, cache_dir=tmp_path)
        )
        annotator.annotate_sources(sources)
        edited = dict(sources)
        edited["b.py"] = UNANNOTATED_B + "\ndef extra_helper(value):\n    return value\n"
        report = annotator.annotate_sources(edited)
        assert report.reused_files == 1
        assert {f.filename for f in report.files} == {"a.py", "b.py"}

    def test_cache_reuse_survives_new_annotator_instance(self, trained_pipeline, tmp_path):
        sources = {"a.py": UNANNOTATED_A}
        config = AnnotatorConfig(use_type_checker=False, cache_dir=tmp_path)
        first = ProjectAnnotator(trained_pipeline, config).annotate_sources(sources)
        second = ProjectAnnotator(trained_pipeline, config).annotate_sources(sources)
        assert second.reused_files == 1
        assert self._suggestion_keys(second) == self._suggestion_keys(first)

    def test_settings_change_invalidates_cache(self, trained_pipeline, tmp_path):
        sources = {"a.py": UNANNOTATED_A}
        loose = AnnotatorConfig(use_type_checker=False, confidence_threshold=0.0, cache_dir=tmp_path)
        strict = AnnotatorConfig(use_type_checker=False, confidence_threshold=0.99, cache_dir=tmp_path)
        ProjectAnnotator(trained_pipeline, loose).annotate_sources(sources)
        report = ProjectAnnotator(trained_pipeline, strict).annotate_sources(sources)
        assert report.reused_files == 0

    def test_corrupted_annotation_entry_is_a_miss(self, trained_pipeline, tmp_path):
        sources = {"a.py": UNANNOTATED_A}
        config = AnnotatorConfig(use_type_checker=False, cache_dir=tmp_path)
        annotator = ProjectAnnotator(trained_pipeline, config)
        cold = annotator.annotate_sources(sources)
        for corruption in ("not json at all", "[1, 2]"):  # garbage and valid-but-wrong-shape JSON
            for entry in (tmp_path / "annotations").glob("*.json"):
                entry.write_text(corruption, encoding="utf-8")
            recovered = annotator.annotate_sources(sources)
            assert recovered.reused_files == 0
            assert self._suggestion_keys(recovered) == self._suggestion_keys(cold)

    def test_entry_stored_under_version_1_is_a_miss(self, trained_pipeline, tmp_path):
        # Version 1 entries came from the per-file verdict cache, an
        # approximation of the checker protocol: they must not be served.
        sources = {"a.py": UNANNOTATED_A}
        annotator = ProjectAnnotator(trained_pipeline, AnnotatorConfig(use_type_checker=False, cache_dir=tmp_path))
        annotator.annotate_sources(sources)
        cache = annotator._cache()
        current = cache.path_for(UNANNOTATED_A)
        payload = json.loads(current.read_text(encoding="utf-8"))
        current.unlink()
        payload["format"] = 1  # what version 1 wrote, under version 1's key
        old_key = hashlib.sha256(f"1:{cache.context_key}\x00{UNANNOTATED_A}".encode("utf-8")).hexdigest()
        (current.parent / f"{old_key}.json").write_text(json.dumps(payload), encoding="utf-8")
        assert ANNOTATION_CACHE_VERSION == 3
        assert cache.load(UNANNOTATED_A) is None
        current.write_text(json.dumps(payload), encoding="utf-8")  # and under the current key
        assert cache.load(UNANNOTATED_A) is None
        assert annotator.annotate_sources(sources).reused_files == 0

    def test_interpreter_change_misses_both_caches(self, trained_pipeline, tmp_path, monkeypatch):
        """Graphs depend on the Python version, so neither cache serves another interpreter's entries."""
        sources = {"a.py": UNANNOTATED_A, "b.py": UNANNOTATED_B}
        annotator = ProjectAnnotator(trained_pipeline, AnnotatorConfig(use_type_checker=False, cache_dir=tmp_path))
        graphs = IngestConfig(cache_dir=tmp_path / "graphs")
        annotator.annotate_sources(sources)
        assert ingest_sources(sources, graphs)[1].cache_hits == 2
        monkeypatch.setattr(ingest_module, "INTERPRETER_TAG", "cpython-3.99")
        monkeypatch.setattr(annotator_module, "INTERPRETER_TAG", "cpython-3.99")
        assert ingest_sources(sources, graphs)[1].cache_hits == 0
        assert annotator.annotate_sources(sources).reused_files == 0

    def test_pipeline_mutation_invalidates_cache(self, trained_pipeline, tmp_path):
        sources = {"a.py": UNANNOTATED_A}
        config = AnnotatorConfig(use_type_checker=False, cache_dir=tmp_path)
        annotator = ProjectAnnotator(trained_pipeline, config)
        annotator.annotate_sources(sources)
        original_k = trained_pipeline.predictor.k
        try:
            trained_pipeline.predictor.k = original_k + 1  # changes the fingerprint
            report = annotator.annotate_sources(sources)
        finally:
            trained_pipeline.predictor.k = original_k
        assert report.reused_files == 0

    def test_parallel_jobs_produce_identical_report(self, family_pipelines, pooled_project, pool_spy, monkeypatch):
        """The fork pool answers exactly as the serial path: every family, checker on.

        The default ``jobs`` runs with three usable cores, so it splits the
        project unevenly over three children, unlike ``jobs=2``.
        """

        def annotate(pipeline, cores, **jobs):
            monkeypatch.setattr(pipeline_module, "usable_cores", lambda: cores)
            return _payload_list(ProjectAnnotator(pipeline, AnnotatorConfig(**jobs)).annotate_sources(pooled_project))

        for family, pipeline in family_pipelines.items():
            reports = [annotate(pipeline, 2, jobs=1), annotate(pipeline, 2, jobs=2), annotate(pipeline, 3)]
            assert reports[1] == reports[0], family
            assert reports[2] == reports[0], family
            assert len(reports[0]) == len(pooled_project)
            assert sum(1 for _, payloads in reports[0] for payload in payloads if payload["filtered"]) > 100
            assert pool_spy[-3:] == [0, 2, 3], family
            assert multiprocessing.active_children() == []

    def test_fingerprint_stable_and_sensitive(self, trained_pipeline):
        assert trained_pipeline.fingerprint() == trained_pipeline.fingerprint()
        original_k = trained_pipeline.predictor.k
        try:
            trained_pipeline.predictor.k = original_k + 1
            changed = trained_pipeline.fingerprint()
        finally:
            trained_pipeline.predictor.k = original_k
        assert changed != trained_pipeline.fingerprint()

    def test_path_family_answers_depend_only_on_fingerprint_and_source(self, tiny_dataset):
        """The path encoder samples syntax paths; at inference the sample must
        not depend on earlier calls or on the filename, or equal fingerprints
        would not mean equal answers."""
        pipeline = TypilusPipeline.fit(
            tiny_dataset,
            EncoderConfig(family="path", hidden_dim=16, seed=5),
            training_config=TrainingConfig(epochs=1, graphs_per_batch=6, seed=5),
        )
        files = CorpusSynthesizer(SynthesisConfig(num_files=3, seed=41, num_user_classes=8)).generate()
        sources = {file.filename: file.source for file in files}
        annotator = ProjectAnnotator(pipeline, AnnotatorConfig(use_type_checker=False))
        fingerprint = pipeline.fingerprint()
        first = annotator.annotate_sources(sources)
        second = annotator.annotate_sources(sources)
        renamed = annotator.annotate_sources({f"0\x00{name}": source for name, source in sources.items()})
        assert pipeline.fingerprint() == fingerprint
        assert sum(file_report.num_symbols for file_report in first.files) > 20
        assert self._payloads(second) == self._payloads(first)
        assert list(self._payloads(renamed).values()) == list(self._payloads(first).values())

    @staticmethod
    def _payloads(report):
        return {
            file_report.filename: [suggestion_to_payload(s) for s in file_report.suggestions]
            for file_report in report.files
        }


class TestAnnotatePool:
    def test_pool_forks_only_for_enough_files_and_jobs(self, trained_pipeline, pooled_project, pool_spy):
        small = dict(list(pooled_project.items())[:2])
        ProjectAnnotator(trained_pipeline, AnnotatorConfig(jobs=1)).annotate_sources(pooled_project)
        ProjectAnnotator(trained_pipeline, AnnotatorConfig()).annotate_sources(small)
        trained_pipeline.suggest_for_sources(small, jobs=4)
        assert pool_spy == [0, 0, 0]
        ProjectAnnotator(trained_pipeline, AnnotatorConfig()).annotate_sources(pooled_project)
        assert pool_spy == [0, 0, 0, 2]

    def test_no_fork_while_other_threads_run(self, trained_pipeline, pooled_project, pool_spy):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            report = ProjectAnnotator(trained_pipeline, AnnotatorConfig(jobs=2)).annotate_sources(pooled_project)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert pool_spy == [0]
        assert report.num_files == len(pooled_project)
        ProjectAnnotator(trained_pipeline, AnnotatorConfig(jobs=2)).annotate_sources(pooled_project)
        assert pool_spy == [0, 2]
        assert threading.active_count() == 1  # the pool left no thread behind either

    def test_refused_fork_runs_serially(self, trained_pipeline, pooled_project, pool_spy, monkeypatch):
        serial = _payload_list(
            ProjectAnnotator(trained_pipeline, AnnotatorConfig(jobs=1)).annotate_sources(pooled_project)
        )

        def refuse_fork():
            raise PermissionError("fork refused")

        monkeypatch.setattr(os, "fork", refuse_fork)
        report = ProjectAnnotator(trained_pipeline, AnnotatorConfig(jobs=2)).annotate_sources(pooled_project)
        assert pool_spy == [0, 0]
        assert _payload_list(report) == serial
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("refusal", [OSError(errno.ENOSYS, "Function not implemented"), ImportError("no sem_open")])
    def test_refused_semaphores_run_serially(self, trained_pipeline, pooled_project, pool_spy, monkeypatch, refusal):
        """Hosts without working POSIX semaphores cannot build the pool's queues; annotate runs serially."""
        serial = _payload_list(ProjectAnnotator(trained_pipeline, AnnotatorConfig(jobs=1)).annotate_sources(pooled_project))

        def refuse_semaphore(context, *args, **kwargs):
            raise refusal

        monkeypatch.setattr(multiprocessing.context.BaseContext, "Lock", refuse_semaphore)
        report = ProjectAnnotator(trained_pipeline, AnnotatorConfig()).annotate_sources(pooled_project)
        assert pool_spy == [0, 0]
        assert _payload_list(report) == serial
        assert multiprocessing.active_children() == []

    def test_pool_workers_are_capped_by_cores_jobs_and_tasks(self, monkeypatch):
        monkeypatch.setattr(pipeline_module, "usable_cores", lambda: 4)
        assert pipeline_module._pool_workers(None, POOL_MIN_FILES - 1) == 1
        assert pipeline_module._pool_workers(None, POOL_MIN_FILES) == 4
        assert pipeline_module._pool_workers(2, 100) == 2
        assert pipeline_module._pool_workers(1, 100) == 1
        assert pipeline_module._pool_workers(8, 100) == 4
        monkeypatch.setattr(pipeline_module, "usable_cores", lambda: 64)
        for files in (POOL_MIN_FILES, POOL_MIN_FILES + 1, 100):
            assert pipeline_module._pool_workers(None, files) == math.ceil(files / POOL_CHUNK_FILES)
        monkeypatch.setattr(pipeline_module, "usable_cores", lambda: 1)
        assert pipeline_module._pool_workers(None, 100) == 1

    def test_no_child_outlives_a_call(self, trained_pipeline, pooled_project, pool_spy):
        from repro.graph.builder import GraphBuildError

        serial = _payload_list(
            ProjectAnnotator(trained_pipeline, AnnotatorConfig(jobs=1)).annotate_sources(pooled_project)
        )
        ProjectAnnotator(trained_pipeline, AnnotatorConfig(jobs=2)).annotate_sources(pooled_project)
        assert multiprocessing.active_children() == []
        with_broken = {**pooled_project, "broken.py": "def broken(:\n"}
        report = ProjectAnnotator(trained_pipeline, AnnotatorConfig(jobs=2)).annotate_sources(with_broken)
        assert report.skipped_files == ["broken.py"]
        assert _payload_list(report) == serial
        assert multiprocessing.active_children() == []
        with pytest.raises(GraphBuildError):
            trained_pipeline.suggest_for_sources(with_broken, jobs=2, skip_unparsable=False)
        assert multiprocessing.active_children() == []
        assert pool_spy == [0, 2, 2, 2]

    def test_graph_cache_filled_by_pool_children(self, trained_pipeline, pooled_project, pool_spy, tmp_path):
        config = AnnotatorConfig(use_type_checker=False, jobs=2, cache_dir=tmp_path)
        cold = ProjectAnnotator(trained_pipeline, config).annotate_sources(pooled_project)
        assert pool_spy == [2]
        assert ingest_sources(pooled_project, IngestConfig(cache_dir=tmp_path / "graphs"))[1].cache_hits == len(
            pooled_project
        )
        for entry in (tmp_path / "annotations").glob("*.json"):
            entry.unlink()
        rebuilt = ProjectAnnotator(trained_pipeline, config).annotate_sources(pooled_project)
        assert rebuilt.reused_files == 0
        assert _payload_list(rebuilt) == _payload_list(cold)


class TestNoGradEmbedding:
    def test_embeddings_equal_without_tape_and_nothing_keeps_parents(
        self, family_pipelines, pooled_project, monkeypatch
    ):
        graphs = [GraphBuilder().build(source, filename=name) for name, source in list(pooled_project.items())[:6]]
        targets = [[symbol.node_index for symbol in graph.symbols] for graph in graphs]
        original_init = Tensor.__init__
        for family, pipeline in family_pipelines.items():
            encoder = pipeline.encoder
            encoder.eval()
            taped = encoder.encode(graphs, targets)
            assert taped._parents, family  # outside the scope the tape is recorded
            made = []

            def recording_init(tensor, *args, **kwargs):
                original_init(tensor, *args, **kwargs)
                made.append(tensor)

            monkeypatch.setattr(Tensor, "__init__", recording_init)
            with no_grad():
                untaped = encoder.encode(graphs, targets)
            monkeypatch.setattr(Tensor, "__init__", original_init)
            assert np.array_equal(untaped.data, taped.data), family
            assert made, family
            assert all(not tensor._parents and tensor._backward is None for tensor in made), family
            assert np.array_equal(pipeline.embedder.embed_symbols(graphs, targets), taped.data), family


class TestSavedFingerprints:
    @pytest.mark.parametrize("layout", ["npz", "raw"])
    def test_every_family_reloads_to_its_fingerprint(self, family_pipelines, tmp_path, layout):
        """Eager and (raw layout) mapped loads of each encoder family keep the pipeline fingerprint."""
        for family, pipeline in family_pipelines.items():
            pipeline.save(tmp_path / family, typespace_layout=layout)
            for mmap in (False, True) if layout == "raw" else (False,):
                loaded = TypilusPipeline.load(tmp_path / family, mmap_typespace=mmap)
                assert loaded.type_space.is_memory_mapped == mmap, (family, layout)
                assert loaded.fingerprint() == pipeline.fingerprint(), (family, layout, mmap)


def _payload_list(report):
    return [
        (file_report.filename, [suggestion_to_payload(s) for s in file_report.suggestions])
        for file_report in report.files
    ]


class TestReportDataclasses:
    def test_file_report_counts(self):
        report = FileReport(filename="x.py", suggestions=[])
        assert report.num_symbols == 0
        assert report.num_suggested == 0
        assert report.disagreements() == []

    def test_project_report_defaults(self):
        report = ProjectReport()
        assert report.symbols_per_second == 0.0
        assert report.summary()["files"] == 0
