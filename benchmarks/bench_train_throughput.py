"""Epoch throughput of the training path (Sec. 6.1's speed axis).

Training and inference build batches from the same per-graph pieces; a
resident plan assembles each batch once (features, segment indexes,
message plans) and reuses it every epoch.  :func:`test_training_epoch_throughput`
records that one path's float32 and float64 epoch seconds.  It gates
nothing: there is no second path left to compare against, and float64
exactness is asserted by the streaming and workers benchmarks below and by
the tier-1 tests (a recorded float64 trajectory per encoder family, and
bit-for-bit replay between execution modes).

The out-of-core rework adds two more axes: data-parallel ``workers``
throughput (hardware, ``bench_check``; bit-replay of the serial trajectory
asserted unconditionally) and bounded-window streaming residency over
memory-mapped raw shards (allocation counts, asserted unconditionally).
"""

import statistics

import pytest

from _bench_utils import run_once
from repro.core import EncoderConfig, LossKind, Trainer, TrainingConfig, build_encoder
from repro.corpus import DatasetConfig, SynthesisConfig, TypeAnnotationDataset

QUICK_FILES, FULL_FILES = 12, 32
QUICK_EPOCHS, FULL_EPOCHS = 2, 4


@pytest.fixture(scope="module")
def train_dataset(quick) -> TypeAnnotationDataset:
    synthesis = SynthesisConfig(
        num_files=QUICK_FILES if quick else FULL_FILES, seed=33, num_user_classes=16
    )
    return TypeAnnotationDataset.synthetic(synthesis, DatasetConfig(rarity_threshold=8, seed=5))


def _train(
    dataset: TypeAnnotationDataset,
    epochs: int,
    dtype: str,
    workers: int = 1,
    prefetch: int = None,
    graphs_per_batch: int = 8,
):
    """One training run from identical seeds; returns (losses, epoch_seconds)."""
    encoder = build_encoder(dataset, EncoderConfig(family="graph", hidden_dim=32, gnn_steps=4, seed=5))
    trainer = Trainer(
        encoder,
        dataset,
        loss_kind=LossKind.TYPILUS,
        config=TrainingConfig(
            epochs=epochs,
            graphs_per_batch=graphs_per_batch,
            seed=5,
            dtype=dtype,
            workers=workers,
            prefetch_batches=prefetch,
        ),
    )
    result = trainer.train()
    return (
        [stats.mean_loss for stats in result.history],
        [stats.seconds for stats in result.history],
    )


def _traced_memory(fn):
    """Run ``fn`` and return (result, retained bytes, peak bytes).

    ``tracemalloc`` sees numpy's allocations but not memory-mapped file
    pages, which is exactly the accounting the out-of-core claim is about:
    mapped shards are reclaimable page cache, while allocated arrays are
    resident by construction.  (``ru_maxrss`` cannot serve here — it is a
    process-lifetime high-water mark, so the second measurement of a run
    would inherit the first one's peak.)  *Retained* is what is still
    allocated when ``fn`` returns; for a training run that keeps its trainer
    alive this is the corpus-proportional state — the resident plan's
    assembled batches — while *peak* is dominated by per-batch compute
    transients that are identical in every execution mode.
    """
    import tracemalloc

    tracemalloc.start()
    try:
        result = fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


def test_training_epoch_throughput(benchmark, train_dataset, quick, bench_record):
    """Float32 and float64 epoch seconds of the training path (recorded, not gated).

    The first ``Trainer.train`` in a process pays a one-time start-up cost
    several times a steady epoch, so an untimed one-epoch run goes first;
    without it a standalone run records float32 slower than float64.
    """
    epochs = QUICK_EPOCHS if quick else FULL_EPOCHS
    _train(train_dataset, 1, "float32")

    def measure():
        return {dtype: _train(train_dataset, epochs, dtype) for dtype in ("float32", "float64")}

    result = run_once(benchmark, measure)
    losses32, seconds32 = result["float32"]
    losses64, seconds64 = result["float64"]
    samples = train_dataset.train.num_samples
    epoch32 = statistics.median(seconds32)
    epoch64 = statistics.median(seconds64)
    print(
        f"\nfloat32: {samples / epoch32:.0f} samples/s/epoch, "
        f"float64: {samples / epoch64:.0f} ({epoch64 / epoch32:.2f}x slower)"
    )
    bench_record(
        train_samples=samples,
        epochs=epochs,
        float32_epoch_seconds=epoch32,
        float64_epoch_seconds=epoch64,
        float32_losses=losses32,
        float64_losses=losses64,
    )


def test_data_parallel_workers_speedup(benchmark, train_dataset, quick, bench_check, bench_record):
    """Forked data-parallel epochs: faster on multi-core, bit-identical anywhere.

    The exactness half is unconditional: ``workers=2`` must replay the serial
    trajectory byte-for-byte in *both* dtypes, because both paths run the same
    per-graph gradient decomposition and the parent applies the only optimiser
    step.  The ≥ 1.5× throughput half is hardware (it needs a second core), so
    it goes through ``bench_check`` and is skipped on single-core boxes.
    """
    import os
    import statistics as stats

    epochs = QUICK_EPOCHS if quick else FULL_EPOCHS

    def measure():
        return {
            "serial32": _train(train_dataset, epochs, "float32"),
            "workers32": _train(train_dataset, epochs, "float32", workers=2),
            "serial64": _train(train_dataset, epochs, "float64"),
            "workers64": _train(train_dataset, epochs, "float64", workers=2),
        }

    result = run_once(benchmark, measure)
    serial32_losses, serial32_seconds = result["serial32"]
    workers32_losses, workers32_seconds = result["workers32"]
    serial64_losses, _ = result["serial64"]
    workers64_losses, _ = result["workers64"]

    # Bit-replay holds on any hardware, quick mode included.
    assert workers64_losses == serial64_losses
    assert workers32_losses == serial32_losses

    cores = os.cpu_count() or 1
    serial_epoch = stats.median(serial32_seconds)
    parallel_epoch = stats.median(workers32_seconds)
    speedup = serial_epoch / parallel_epoch
    samples = train_dataset.train.num_samples
    print(
        f"\nserial float32: {samples / serial_epoch:.0f} samples/s/epoch, "
        f"workers=2: {samples / parallel_epoch:.0f} ({speedup:.2f}x on {cores} cores)"
    )
    bench_record(
        workers=2,
        cores=cores,
        serial32_epoch_seconds=serial_epoch,
        workers32_epoch_seconds=parallel_epoch,
        workers_speedup=speedup,
        workers_losses_match=True,
    )
    bench_check(
        speedup >= 1.5 or cores < 2,
        f"workers=2 managed only {speedup:.2f}x over serial on {cores} cores",
    )


def test_streaming_bounds_retained_memory(train_dataset, quick, tmp_path, bench_record):
    """Streaming over mmapped shards caps corpus-proportional memory at O(window).

    The retained-bytes comparison is asserted on any hardware because it
    counts allocations, not wall-clock: (1) a bounded-window run over
    memory-mapped raw shards retains strictly less than the resident plan
    on the same corpus (the lazy plan keeps no assembled batches); (2)
    doubling the corpus grows the streaming footprint sub-linearly — the window is fixed, so only vocabulary-sized
    state may grow.  The float64 streamed trajectory must also replay the
    resident one byte-for-byte: bounding memory is a reorganisation, not an
    approximation.
    """

    def run(dataset, prefetch):
        encoder = build_encoder(
            dataset, EncoderConfig(family="graph", hidden_dim=32, gnn_steps=4, seed=5)
        )
        trainer = Trainer(
            encoder,
            dataset,
            loss_kind=LossKind.TYPILUS,
            config=TrainingConfig(
                epochs=1, graphs_per_batch=2, seed=5, dtype="float64", prefetch_batches=prefetch
            ),
        )
        result = trainer.train()
        # Returning the trainer keeps its plan alive while _traced_memory
        # reads the retained-byte count — that residency is the measurement.
        return [stats.mean_loss for stats in result.history], trainer

    train_dataset.save(tmp_path / "raw", shard_size=8, shard_format="raw")
    mapped = TypeAnnotationDataset.load(tmp_path / "raw", mmap=True)

    (resident_losses, _), resident_retained, resident_peak = _traced_memory(
        lambda: run(train_dataset, None)
    )
    (streamed_losses, _), streamed_retained, streamed_peak = _traced_memory(
        lambda: run(mapped, 1)
    )
    assert streamed_losses == resident_losses  # loss trajectory is bit-identical
    assert streamed_retained < resident_retained, (
        f"streaming retained {streamed_retained} bytes, resident {resident_retained}"
    )

    double = TypeAnnotationDataset.synthetic(
        SynthesisConfig(
            num_files=2 * (QUICK_FILES if quick else FULL_FILES), seed=33, num_user_classes=16
        ),
        DatasetConfig(rarity_threshold=8, seed=5),
    )
    double.save(tmp_path / "raw2x", shard_size=8, shard_format="raw")
    mapped2x = TypeAnnotationDataset.load(tmp_path / "raw2x", mmap=True)
    _, streamed2x_retained, _ = _traced_memory(lambda: run(mapped2x, 1))
    growth = streamed2x_retained / streamed_retained
    print(
        f"\nretained bytes — resident: {resident_retained}, streamed: {streamed_retained} "
        f"({resident_retained / streamed_retained:.2f}x smaller), streamed at 2x corpus: "
        f"{streamed2x_retained} ({growth:.2f}x)"
    )
    assert growth < 1.9, f"streaming footprint grew {growth:.2f}x for a 2x corpus"
    bench_record(
        resident_retained_bytes=resident_retained,
        streamed_retained_bytes=streamed_retained,
        streamed_2x_retained_bytes=streamed2x_retained,
        resident_peak_bytes=resident_peak,
        streamed_peak_bytes=streamed_peak,
        streaming_reduction=resident_retained / streamed_retained,
        streaming_growth_2x=growth,
        streamed_losses_match=True,
    )
