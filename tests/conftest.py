"""Shared fixtures: a tiny corpus, dataset and trained pipeline.

Expensive fixtures are session-scoped so integration tests across modules
reuse one small training run instead of retraining per test.
"""

from __future__ import annotations

import pytest

from repro.core import EncoderConfig, LossKind, TrainingConfig, TypilusPipeline
from repro.corpus import DatasetConfig, SynthesisConfig, TypeAnnotationDataset
from repro.utils import cores
from repro.utils.rng import SeededRNG


SAMPLE_SOURCE = '''
from typing import Dict, List, Optional

MAX_RETRIES: int = 3


def get_foo(i: int, j: int) -> str:
    result: str = str(i + j)
    return result


class Widget:
    def __init__(self, name: str, sizes: List[int]) -> None:
        self.name: str = name
        self.sizes = sizes

    def total_size(self) -> int:
        total = 0
        for size in self.sizes:
            if size > 0:
                total += size
        return total


def process(widget: Widget, scale: Optional[float] = None) -> float:
    value = widget.total_size()
    if scale is not None:
        value = value * scale
    return float(value)


def summarise(counts: Dict[str, int]) -> str:
    parts = []
    for key, value in counts.items():
        parts.append(key + "=" + str(value))
    return ",".join(parts)
'''


@pytest.fixture(scope="session")
def rng() -> SeededRNG:
    return SeededRNG(123)


@pytest.fixture
def two_blas_threads():
    """The loaded OpenBLAS runs on two threads for the test (skipped where none is loaded)."""
    controls = cores._openblas_controls()
    if controls is None:
        pytest.skip("no OpenBLAS thread control is loaded")
    get, set_threads = controls
    before = get()
    set_threads(2)
    try:
        yield
    finally:
        set_threads(before)


@pytest.fixture(scope="session")
def tiny_synthesis_config() -> SynthesisConfig:
    return SynthesisConfig(num_files=16, seed=5, num_user_classes=10)


@pytest.fixture(scope="session")
def tiny_dataset(tiny_synthesis_config) -> TypeAnnotationDataset:
    return TypeAnnotationDataset.synthetic(
        tiny_synthesis_config,
        DatasetConfig(rarity_threshold=8, seed=5),
    )


@pytest.fixture(scope="session")
def trained_pipeline(tiny_dataset) -> TypilusPipeline:
    return TypilusPipeline.fit(
        tiny_dataset,
        EncoderConfig(family="graph", hidden_dim=24, gnn_steps=2, seed=5),
        loss_kind=LossKind.TYPILUS,
        training_config=TrainingConfig(epochs=4, graphs_per_batch=6, learning_rate=8e-3, seed=5),
    )


@pytest.fixture()
def sample_source() -> str:
    return SAMPLE_SOURCE
