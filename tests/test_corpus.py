"""Tests for corpus synthesis, deduplication and dataset assembly."""

import ast

import pytest
from hypothesis import given, settings, strategies as st

from repro.checker import CheckerMode, check_source
from repro.corpus import (
    CorpusSynthesizer,
    DatasetConfig,
    Deduplicator,
    SynthesisConfig,
    TypeAnnotationDataset,
    deduplicate_sources,
    file_token_fingerprint,
    generate_corpus,
    jaccard_similarity,
)
from repro.graph import take_annotations
from repro.graph.nodes import SymbolKind


class TestSynthesis:
    @pytest.fixture(scope="class")
    def files(self):
        return generate_corpus(SynthesisConfig(num_files=20, seed=3))

    def test_expected_number_of_files_with_duplicates(self, files):
        config = SynthesisConfig(num_files=20, seed=3)
        expected_duplicates = int(20 * config.duplicate_fraction)
        assert len(files) == 20 + expected_duplicates

    def test_every_file_parses(self, files):
        for entry in files:
            ast.parse(entry.source)

    def test_files_type_check_strictly(self, files):
        failures = [entry.filename for entry in files if not check_source(entry.source, CheckerMode.STRICT).ok]
        assert not failures, f"synthetic files with type errors: {failures}"

    def test_files_contain_annotations(self, files):
        total = sum(len(take_annotations(ast.parse(entry.source))) for entry in files)
        assert total > 50

    def test_annotation_probability_zero_produces_no_annotations(self):
        files = generate_corpus(SynthesisConfig(num_files=4, seed=1, annotation_probability=0.0, duplicate_fraction=0.0))
        assert all(not take_annotations(ast.parse(entry.source)) for entry in files)

    def test_annotation_probability_one_annotates_everything_it_can(self):
        files = generate_corpus(SynthesisConfig(num_files=4, seed=1, annotation_probability=1.0, duplicate_fraction=0.0))
        assert all(take_annotations(ast.parse(entry.source)) for entry in files)

    def test_generation_is_deterministic(self):
        first = generate_corpus(SynthesisConfig(num_files=5, seed=9))
        second = generate_corpus(SynthesisConfig(num_files=5, seed=9))
        assert [f.source for f in first] == [f.source for f in second]

    def test_different_seeds_differ(self):
        first = generate_corpus(SynthesisConfig(num_files=5, seed=1))
        second = generate_corpus(SynthesisConfig(num_files=5, seed=2))
        assert [f.source for f in first] != [f.source for f in second]

    def test_duplicates_reference_their_original(self, files):
        duplicates = [entry for entry in files if entry.duplicate_of is not None]
        originals = {entry.filename for entry in files}
        assert duplicates
        assert all(entry.duplicate_of in originals for entry in duplicates)

    def test_class_hierarchy_edges_match_generated_classes(self):
        synthesizer = CorpusSynthesizer(SynthesisConfig(num_files=5, seed=4))
        class_names = {spec.name for spec in synthesizer.class_specs}
        for subclass, superclass in synthesizer.class_hierarchy_edges():
            assert subclass in class_names and superclass in class_names

    def test_type_distribution_is_fat_tailed(self):
        dataset = TypeAnnotationDataset.synthetic(
            SynthesisConfig(num_files=40, seed=3), DatasetConfig(rarity_threshold=10)
        )
        stats = dataset.registry.statistics()
        assert stats.top10_fraction > 0.5  # a few builtins dominate
        assert stats.rare_types > 0  # but a long tail of rare types exists
        assert stats.zipf_exponent > 0.5


class TestDeduplication:
    def test_exact_duplicates_removed(self):
        files = {"a.py": "x = 1\ny = 2\n", "b.py": "x = 1\ny = 2\n", "c.py": "completely = 'different'\n"}
        kept, report = deduplicate_sources(files)
        assert len(kept) == 2
        assert report.removed_files == 1
        assert report.kept_files == 2

    def test_near_duplicates_removed_with_loose_threshold(self):
        base = "def f(count):\n    total = count + 1\n    return total\n"
        variant = base + "\n# trailing comment\n"
        kept, report = deduplicate_sources({"a.py": base, "b.py": variant}, threshold=0.8)
        assert len(kept) == 1 and report.removed_files == 1

    def test_distinct_files_kept_with_strict_threshold(self):
        files = {
            "a.py": "def alpha(x):\n    return x + 1\n",
            "b.py": "def beta(items):\n    return len(items)\n",
        }
        kept, report = deduplicate_sources(files, threshold=0.95)
        assert len(kept) == 2 and report.removed_files == 0

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            Deduplicator(threshold=0.0)

    def test_fingerprint_ignores_comments_and_whitespace(self):
        a = file_token_fingerprint("x = 1  # comment\n")
        b = file_token_fingerprint("x = 1\n")
        assert jaccard_similarity(a, b) == 1.0

    def test_synthetic_duplicates_are_caught(self):
        files = {entry.filename: entry.source for entry in generate_corpus(SynthesisConfig(num_files=20, seed=3))}
        _, report = deduplicate_sources(files)
        assert report.removed_files >= int(20 * SynthesisConfig().duplicate_fraction)

    @settings(max_examples=25, deadline=None)
    @given(st.text(alphabet="abc ()=\n", max_size=80), st.text(alphabet="abc ()=\n", max_size=80))
    def test_property_jaccard_is_bounded_and_symmetric(self, left, right):
        a, b = file_token_fingerprint(left), file_token_fingerprint(right)
        similarity = jaccard_similarity(a, b)
        assert 0.0 <= similarity <= 1.0
        assert similarity == pytest.approx(jaccard_similarity(b, a))

    def test_property_self_similarity_is_one(self):
        fingerprint = file_token_fingerprint("def f(x):\n    return x\n")
        assert jaccard_similarity(fingerprint, fingerprint) == 1.0


def _cluster_payload(report):
    return sorted((cluster.kept, sorted(cluster.removed)) for cluster in report.clusters)


class TestMinHashCandidateGeneration:
    """The banded-MinHash path must reproduce the pairwise oracle exactly."""

    def _assert_strategies_agree(self, files, threshold=0.8):
        minhash_kept, minhash_report = Deduplicator(
            threshold=threshold, candidate_strategy="minhash"
        ).deduplicate(files)
        pairwise_kept, pairwise_report = Deduplicator(
            threshold=threshold, candidate_strategy="pairwise"
        ).deduplicate(files)
        assert sorted(minhash_kept) == sorted(pairwise_kept)
        assert minhash_report.removed_files == pairwise_report.removed_files
        assert _cluster_payload(minhash_report) == _cluster_payload(pairwise_report)
        return minhash_report

    def test_identical_clusters_on_synthetic_corpus(self):
        files = {
            entry.filename: entry.source
            for entry in generate_corpus(SynthesisConfig(num_files=40, seed=11))
        }
        report = self._assert_strategies_agree(files)
        assert report.removed_files > 0  # the corpus ships real duplicates

    def test_identical_clusters_across_thresholds(self):
        files = {
            entry.filename: entry.source
            for entry in generate_corpus(SynthesisConfig(num_files=24, seed=5))
        }
        for threshold in (0.5, 0.8, 0.95, 1.0):
            self._assert_strategies_agree(files, threshold=threshold)

    def test_identical_clusters_with_empty_and_tiny_files(self):
        files = {
            "empty_a.py": "",
            "empty_b.py": "# only a comment\n",
            "tiny.py": "x = 1\n",
            "tiny_copy.py": "x = 1\n",
            "other.py": "def unrelated(value):\n    return value * 2\n",
        }
        report = self._assert_strategies_agree(files)
        assert report.removed_files >= 2  # empties cluster together, tiny with its copy

    def test_repeated_token_heavy_files_cluster_like_the_oracle(self):
        """Multiset expansion regression: files dominated by one repeated
        identifier have high multiset but tiny set Jaccard — signatures must
        hash the multiset so such pairs still become candidates."""
        for trial in range(10):
            base = "x = x + x\n" * 40
            left = base + "\n".join(f"left_{trial}_{i} = 1" for i in range(6))
            right = base + "\n".join(f"right_{trial}_{i} = 1" for i in range(6))
            report = self._assert_strategies_agree({"a.py": left, "b.py": right})
            assert report.removed_files == 1  # the pair is a real near-duplicate

    def test_default_strategy_is_minhash(self):
        assert Deduplicator().candidate_strategy == "minhash"
        with pytest.raises(ValueError):
            Deduplicator(candidate_strategy="sorcery")

    def test_minhash_is_deterministic_across_runs(self):
        files = {
            entry.filename: entry.source
            for entry in generate_corpus(SynthesisConfig(num_files=16, seed=9))
        }
        first = Deduplicator().deduplicate(files)[1]
        second = Deduplicator().deduplicate(files)[1]
        assert _cluster_payload(first) == _cluster_payload(second)


class TestDatasetAssembly:
    @pytest.fixture(scope="class")
    def dataset(self):
        return TypeAnnotationDataset.synthetic(
            SynthesisConfig(num_files=24, seed=6), DatasetConfig(rarity_threshold=8, seed=6)
        )

    def test_split_fractions_roughly_70_10_20(self, dataset):
        total = dataset.train.num_graphs + dataset.valid.num_graphs + dataset.test.num_graphs
        assert dataset.train.num_graphs > dataset.test.num_graphs > 0
        assert total == len(dataset.sources)

    def test_splits_are_disjoint_by_file(self, dataset):
        train_files = {g.filename for g in dataset.train.graphs}
        valid_files = {g.filename for g in dataset.valid.graphs}
        test_files = {g.filename for g in dataset.test.graphs}
        assert not (train_files & valid_files) and not (train_files & test_files) and not (valid_files & test_files)

    def test_samples_reference_valid_graphs_and_symbols(self, dataset):
        for split in dataset.splits.values():
            for sample in split.samples:
                graph = split.graphs[sample.graph_index]
                symbol = graph.symbols[sample.symbol_position]
                assert symbol.node_index == sample.node_index
                assert symbol.name == sample.name

    def test_sample_annotations_are_canonical_and_informative(self, dataset):
        from repro.types import is_informative

        for sample in dataset.train.samples:
            assert is_informative(sample.annotation)

    def test_any_and_none_annotations_excluded(self):
        files = {"a.py": "from typing import Any\nx: Any = 1\ny: None = None\nz: int = 3\n"}
        dataset = TypeAnnotationDataset.from_sources(files, config=DatasetConfig(deduplicate=False))
        all_annotations = [s.annotation for split in dataset.splits.values() for s in split.samples]
        assert all_annotations == ["int"]

    def test_registry_counts_cover_all_samples(self, dataset):
        total_samples = sum(split.num_samples for split in dataset.splits.values())
        assert dataset.registry.statistics().total_annotations == total_samples

    def test_lattice_knows_corpus_class_hierarchy(self):
        files = {"a.py": "class Base:\n    pass\n\nclass Derived(Base):\n    pass\n\nx: int = 1\n"}
        dataset = TypeAnnotationDataset.from_sources(files, config=DatasetConfig(deduplicate=False))
        from repro.types import parse_type

        assert dataset.lattice.is_subtype(parse_type("Derived"), parse_type("Base"))

    def test_sources_preserved_for_checker_experiments(self, dataset):
        assert dataset.sources
        for filename in (g.filename for g in dataset.test.graphs):
            assert filename in dataset.sources
            assert "def " in dataset.sources[filename]

    def test_subtoken_vocabulary_built(self, dataset):
        assert len(dataset.subtokens) > 20
        assert dataset.subtokens.lookup("count") != 0 or dataset.subtokens.lookup("name") != 0

    def test_dedup_report_attached(self, dataset):
        assert dataset.dedup_report is not None
        assert dataset.dedup_report.removed_files >= 0

    def test_augmentation_with_inference_adds_samples(self):
        source = (
            "def count_things(items):\n"
            "    return len(items)\n"
            "\n"
            "def label_of(value: int) -> str:\n"
            "    return str(value)\n"
        )
        files = {"a.py": source}
        plain = TypeAnnotationDataset.from_sources(
            files, config=DatasetConfig(deduplicate=False, augment_with_inference=False, split_fractions=(1.0, 0.0, 0.0))
        )
        augmented = TypeAnnotationDataset.from_sources(
            files, config=DatasetConfig(deduplicate=False, augment_with_inference=True, split_fractions=(1.0, 0.0, 0.0))
        )
        assert augmented.train.num_samples > plain.train.num_samples

    def test_unparsable_files_are_skipped(self):
        files = {"bad.py": "def broken(:\n", "good.py": "x: int = 1\n"}
        dataset = TypeAnnotationDataset.from_sources(files, config=DatasetConfig(deduplicate=False))
        assert sum(split.num_graphs for split in dataset.splits.values()) == 1

    def test_invalid_split_fractions_rejected(self):
        with pytest.raises(ValueError):
            TypeAnnotationDataset.from_sources(
                {"a.py": "x: int = 1\n"},
                config=DatasetConfig(deduplicate=False, split_fractions=(0.5, 0.1, 0.1)),
            )

    def test_samples_of_kind_filter(self, dataset):
        parameters = dataset.train.samples_of_kind(SymbolKind.PARAMETER)
        assert all(sample.kind == SymbolKind.PARAMETER for sample in parameters)
        assert parameters  # the synthetic corpus always annotates some parameters
