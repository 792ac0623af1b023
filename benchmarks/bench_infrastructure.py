"""Infrastructure micro-benchmarks: graph construction and kNN index queries.

These are not paper tables, but they back two engineering claims the paper
relies on: graph extraction is cheap enough to run per file, and a spatial
index keeps kNN queries fast as the type map grows (the role Annoy plays in
the original system).
"""

import numpy as np

from repro.core import ExactL1Index
from repro.corpus import CorpusSynthesizer, SynthesisConfig
from repro.graph import GraphBuilder


def test_graph_construction_throughput(benchmark, bench_record):
    files = CorpusSynthesizer(SynthesisConfig(num_files=10, seed=21, duplicate_fraction=0.0)).generate()
    builder = GraphBuilder()

    def build_all():
        return [builder.build(entry.source, entry.filename) for entry in files]

    graphs = benchmark(build_all)
    bench_record(files=len(files), total_nodes=sum(graph.num_nodes for graph in graphs))
    assert len(graphs) == len(files)
    assert all(graph.num_nodes > 0 for graph in graphs)


def test_exact_knn_query_speed(benchmark, bench_record):
    rng = np.random.default_rng(0)
    index = ExactL1Index(rng.normal(size=(2000, 32)))
    queries = rng.normal(size=(50, 32))

    results = benchmark(lambda: index.query_batch_arrays(queries, k=10))
    bench_record(queries=len(queries), k=10, points=2000)
    assert results.indices.shape == (50, 10)
