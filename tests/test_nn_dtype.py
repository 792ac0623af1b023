"""Tests for the dtype-configurable substrate and sparse optimiser updates."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.dtype import default_dtype, get_default_dtype, resolve_dtype, set_default_dtype
from repro.nn.layers import Embedding, Linear
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.utils.rng import SeededRNG


class TestDefaultDtype:
    def test_library_default_is_float64(self):
        assert get_default_dtype() == np.float64

    def test_context_manager_scopes_the_change(self):
        with default_dtype("float32"):
            assert get_default_dtype() == np.float32
            assert Tensor([1.0, 2.0]).data.dtype == np.float32
        assert get_default_dtype() == np.float64
        assert Tensor([1.0, 2.0]).data.dtype == np.float64

    def test_set_returns_previous(self):
        previous = set_default_dtype("float32")
        try:
            assert previous == np.float64
        finally:
            set_default_dtype(previous)

    def test_resolve_rejects_unsupported(self):
        with pytest.raises(ValueError):
            resolve_dtype("int32")
        with pytest.raises(ValueError):
            resolve_dtype(np.float16)

    def test_existing_float_arrays_keep_their_dtype(self):
        assert Tensor(np.zeros(3, dtype=np.float32)).data.dtype == np.float32
        assert Tensor(np.zeros(3, dtype=np.float64)).data.dtype == np.float64
        # Non-float inputs are materialised at the default dtype.
        assert Tensor(np.arange(3)).data.dtype == np.float64


class TestDtypeStability:
    """float32 graphs must stay float32 — no silent promotion to float64."""

    def test_scalar_arithmetic_does_not_promote(self):
        x = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        out = (1.0 - x) * 2.0 + 0.5
        assert out.data.dtype == np.float32
        out = 1.0 / (x + 1.0)
        assert out.data.dtype == np.float32

    def test_nonlinearities_and_reductions_preserve_dtype(self):
        x = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        for out in (x.tanh(), x.sigmoid(), x.exp(), x.relu(), x.abs(), x.sum(), x.mean(axis=0)):
            assert out.data.dtype == np.float32

    def test_segment_ops_preserve_dtype(self):
        values = Tensor(np.ones((4, 2), dtype=np.float32), requires_grad=True)
        ids = np.array([0, 0, 1, 1])
        assert F.segment_sum(values, ids, 2).data.dtype == np.float32
        assert F.segment_mean(values, ids, 2).data.dtype == np.float32
        assert F.segment_max(values, ids, 2).data.dtype == np.float32

    def test_gradients_arrive_in_parameter_dtype(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        ((x * 3.0).tanh().sum()).backward()
        assert x.grad.dtype == np.float32


class TestModuleToDtype:
    def test_casts_all_parameters(self):
        linear = Linear(4, 3, SeededRNG(0))
        linear.to_dtype("float32")
        assert all(p.data.dtype == np.float32 for p in linear.parameters())
        out = linear(Tensor(np.ones((2, 4), dtype=np.float32)))
        assert out.data.dtype == np.float32

    def test_same_dtype_cast_keeps_arrays(self):
        linear = Linear(2, 2, SeededRNG(0))
        before = linear.weight.data
        linear.to_dtype("float64")
        assert linear.weight.data is before

    def test_float32_forward_backward_close_to_float64(self):
        rng = SeededRNG(7)
        module64 = Linear(6, 4, rng)
        module32 = Linear(6, 4, SeededRNG(7)).to_dtype("float32")
        inputs = np.random.default_rng(0).normal(size=(5, 6))

        out64 = module64(Tensor(inputs))
        out32 = module32(Tensor(inputs.astype(np.float32)))
        assert np.allclose(out64.data, out32.data, atol=1e-5)

        out64.sum().backward()
        out32.sum().backward()
        assert np.allclose(module64.weight.grad, module32.weight.grad, atol=1e-5)


class TestSparseEmbeddingGradients:
    """Row-wise updates must equal the dense updates bit-for-bit."""

    @staticmethod
    def _dense_clone(table: np.ndarray) -> Tensor:
        return Tensor(table.copy(), requires_grad=True)

    def test_gather_rows_on_leaf_records_sparse_rows(self):
        table = Tensor(np.ones((5, 2)), requires_grad=True)
        table.gather_rows(np.array([1, 1, 3])).sum().backward()
        assert table._grad is None and table.grad_rows
        # The public accessor folds them into the dense view.
        assert np.allclose(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1], [0, 0]])

    def test_adam_sparse_matches_dense_exactly(self):
        rng = np.random.default_rng(11)
        initial = rng.normal(size=(12, 3))
        sparse_param = Tensor(initial.copy(), requires_grad=True)
        dense_param = Tensor(initial.copy(), requires_grad=True)
        sparse_adam = Adam([sparse_param], lr=0.05)
        dense_adam = Adam([dense_param], lr=0.05)

        index_sets = [np.array([0, 3, 3, 7]), np.array([1, 3]), np.array([0, 1, 7, 9])]
        for step, indices in enumerate(index_sets):
            weights = Tensor(rng.normal(size=(indices.size, 3)))

            sparse_adam.zero_grad()
            (sparse_param.gather_rows(indices) * weights).sum().backward()
            assert sparse_param.grad_rows, "leaf gather should record sparse rows"
            sparse_adam.step()

            dense_adam.zero_grad()
            dense_grad = np.zeros_like(initial)
            np.add.at(dense_grad, indices, weights.data)
            dense_param.grad = dense_grad
            dense_adam.step()

            assert (sparse_param.data == dense_param.data).all(), f"diverged at step {step}"

    def test_adam_sparse_with_clipping_matches_dense(self):
        initial = np.linspace(-1, 1, 8).reshape(4, 2)
        sparse_param = Tensor(initial.copy(), requires_grad=True)
        dense_param = Tensor(initial.copy(), requires_grad=True)
        sparse_adam = Adam([sparse_param], lr=0.1)
        dense_adam = Adam([dense_param], lr=0.1)
        indices = np.array([0, 2, 2])

        (sparse_param.gather_rows(indices) * 10.0).sum().backward()
        sparse_adam.clip_gradients(0.5)
        sparse_adam.step()

        dense_grad = np.zeros_like(initial)
        np.add.at(dense_grad, indices, np.full((3, 2), 10.0))
        dense_param.grad = dense_grad
        dense_adam.clip_gradients(0.5)
        dense_adam.step()

        assert np.allclose(sparse_param.data, dense_param.data)

    def test_mixed_dense_and_sparse_gradients_merge(self):
        table = Tensor(np.ones((4, 3)), requires_grad=True)
        # Dense use (matmul) and sparse use (gather) of the same table.
        loss = (Tensor(np.ones((2, 4))) @ table).sum() + table.gather_rows(np.array([1, 1])).sum()
        loss.backward()
        optimizer = Adam([table], lr=0.1)
        optimizer.clip_gradients(1e9)
        expected = np.full((4, 3), 2.0)
        expected[1] += 2.0
        assert np.allclose(table.grad, expected)
        optimizer.step()

    def test_embedding_layer_round_trips_through_sparse_path(self):
        embedding = Embedding(10, 4, SeededRNG(3))
        optimizer = Adam(list(embedding.parameters()), lr=0.01)
        before = embedding.weight.data.copy()
        ids = np.array([2, 2, 5])
        embedding(ids).sum().backward()
        optimizer.step()
        changed = np.any(embedding.weight.data != before, axis=1)
        assert changed[2] and changed[5]
        assert not changed[[0, 1, 3, 4, 6, 7, 8, 9]].any()


class TestModuleWalk:
    def test_linear_parameters_discovered(self):
        module = Linear(2, 2, SeededRNG(0))
        assert sum(1 for _ in module.parameters()) == 2
