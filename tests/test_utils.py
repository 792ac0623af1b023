"""Tests for repro.utils: RNG, text helpers, timing."""

import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.corpus import IngestConfig
from repro.utils import usable_cores
from repro.utils.cores import fork_context
from repro.utils.rng import SeededRNG, temp_seed
from repro.utils.text import camel_and_snake_split, normalise_whitespace, truncate
from repro.utils.timing import Stopwatch, timed


class TestSeededRNG:
    def test_same_seed_same_sequence(self):
        a, b = SeededRNG(42), SeededRNG(42)
        assert [a.randint(0, 100) for _ in range(10)] == [b.randint(0, 100) for _ in range(10)]
        assert np.allclose(a.normal((3, 3)), b.normal((3, 3)))

    def test_different_seeds_differ(self):
        a, b = SeededRNG(1), SeededRNG(2)
        assert [a.randint(0, 10**9) for _ in range(5)] != [b.randint(0, 10**9) for _ in range(5)]

    def test_fork_is_deterministic_and_independent(self):
        parent = SeededRNG(7)
        fork_a = parent.fork(1)
        fork_b = SeededRNG(7).fork(1)
        assert fork_a.randint(0, 10**9) == fork_b.randint(0, 10**9)
        assert parent.fork(1).seed != parent.fork(2).seed

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            SeededRNG(0).choice([])

    def test_shuffle_returns_copy(self):
        original = [1, 2, 3, 4, 5]
        shuffled = SeededRNG(3).shuffle(original)
        assert original == [1, 2, 3, 4, 5]
        assert sorted(shuffled) == original

    def test_sample_and_choices(self):
        rng = SeededRNG(9)
        sample = rng.sample(list(range(20)), 5)
        assert len(sample) == 5 and len(set(sample)) == 5
        weighted = rng.choices(["a", "b"], weights=[1.0, 0.0], k=10)
        assert weighted == ["a"] * 10

    def test_permutation_covers_range(self):
        perm = SeededRNG(4).permutation(10)
        assert sorted(perm.tolist()) == list(range(10))

    def test_temp_seed_restores_state(self):
        np.random.seed(100)
        before = np.random.random()
        np.random.seed(100)
        with temp_seed(5):
            inside = np.random.random()
        after = np.random.random()
        assert before == after
        with temp_seed(5):
            assert np.random.random() == inside


class TestTextHelpers:
    @pytest.mark.parametrize(
        "identifier,expected",
        [
            ("numNodes", ["num", "nodes"]),
            ("get_node_count", ["get", "node", "count"]),
            ("HTTPServer", ["http", "server"]),
            ("snake_case_name", ["snake", "case", "name"]),
            ("X", ["x"]),
            ("", []),
            ("__init__", ["init"]),
            ("conv2d", ["conv2d"]),
            ("self.total_count", ["self", "total", "count"]),
        ],
    )
    def test_camel_and_snake_split(self, identifier, expected):
        assert camel_and_snake_split(identifier) == expected

    @given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="_"), max_size=30))
    def test_split_is_lowercase_and_nonempty_parts(self, identifier):
        parts = camel_and_snake_split(identifier)
        assert all(part and part == part.lower() for part in parts)

    def test_normalise_whitespace(self):
        assert normalise_whitespace("  a \n\t b   c ") == "a b c"

    def test_truncate(self):
        assert truncate("short", 10) == "short"
        assert truncate("a" * 30, 10).endswith("…")
        assert len(truncate("a" * 30, 10)) == 10


class TestTiming:
    def test_stopwatch_accumulates(self):
        watch = Stopwatch()
        with watch.measure("work"):
            sum(range(1000))
        with watch.measure("work"):
            sum(range(1000))
        assert watch.counts["work"] == 2
        assert watch.total("work") > 0
        assert watch.mean("work") <= watch.total("work")
        assert "work" in watch.summary()

    def test_mean_of_missing_section_is_zero(self):
        assert Stopwatch().mean("nothing") == 0.0

    def test_timed_returns_result_and_elapsed(self):
        result, elapsed = timed(lambda: 21 * 2)
        assert result == 42
        assert elapsed >= 0.0


class TestUsableCores:
    def test_counts_the_affinity_set_not_every_core(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert usable_cores() == 3
        assert IngestConfig(jobs=None).effective_jobs() == 3
        assert IngestConfig(jobs=2).effective_jobs() == 2

    def test_without_affinity_counts_cpus_and_never_zero(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cores() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cores() == 1


class TestForkContext:
    def test_fork_only_while_no_other_thread_runs(self):
        import threading

        assert fork_context().get_start_method() == "fork"
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert fork_context() is None
        finally:
            stop.set()
            thread.join(timeout=10)
        assert fork_context() is not None

    def test_no_fork_where_the_platform_lacks_it(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert fork_context() is None
