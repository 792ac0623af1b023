"""Tests for repro.nn.functional: softmax, losses, segment ops, distances."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad


class TestSoftmaxAndCrossEntropy:
    def test_softmax_rows_sum_to_one(self):
        logits = Tensor(np.random.randn(5, 7))
        probs = F.softmax(logits).data
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()

    def test_softmax_is_shift_invariant(self):
        logits = np.random.randn(3, 4)
        a = F.softmax(Tensor(logits)).data
        b = F.softmax(Tensor(logits + 100.0)).data
        assert np.allclose(a, b)

    def test_log_softmax_matches_log_of_softmax(self):
        logits = Tensor(np.random.randn(4, 6))
        assert np.allclose(F.log_softmax(logits).data, np.log(F.softmax(logits).data), atol=1e-10)

    def test_cross_entropy_perfect_prediction_is_near_zero(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert float(loss.data) < 1e-6

    def test_cross_entropy_uniform_is_log_classes(self):
        logits = Tensor(np.zeros((3, 4)))
        loss = F.cross_entropy(logits, np.array([0, 1, 2]))
        assert np.isclose(float(loss.data), np.log(4))

    def test_cross_entropy_requires_2d(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros(3)), np.array([0]))

    def test_cross_entropy_gradient_improves_loss(self):
        logits = Tensor(np.zeros((2, 3)), requires_grad=True)
        targets = np.array([0, 2])
        loss = F.cross_entropy(logits, targets)
        loss.backward()
        updated = Tensor(logits.data - 1.0 * logits.grad)
        assert float(F.cross_entropy(updated, targets).data) < float(loss.data)

    def test_nll_of_probabilities(self):
        probabilities = Tensor(np.array([[0.9, 0.1], [0.2, 0.8]]))
        loss = F.nll_of_probabilities(probabilities, np.array([0, 1]))
        expected = -(np.log(0.9) + np.log(0.8)) / 2
        assert np.isclose(float(loss.data), expected, atol=1e-6)


class TestConcatenateAndStack:
    def test_concatenate_values_and_gradients(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.full((2, 2), 2.0), requires_grad=True)
        out = F.concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * 2).sum().backward()
        assert np.allclose(a.grad, 2.0) and np.allclose(b.grad, 2.0)

    def test_concatenate_empty_raises(self):
        with pytest.raises(ValueError):
            F.concatenate([])

    def test_stack_axis0(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        out = F.stack([a, b], axis=0)
        assert out.shape == (2, 3)
        out.sum().backward()
        assert np.allclose(a.grad, 1.0) and np.allclose(b.grad, 1.0)

    def test_stack_empty_raises(self):
        with pytest.raises(ValueError):
            F.stack([])


class TestSegmentOps:
    def test_segment_sum_matches_manual(self):
        values = Tensor(np.arange(8, dtype=float).reshape(4, 2))
        ids = np.array([0, 1, 0, 2])
        out = F.segment_sum(values, ids, 3).data
        assert np.allclose(out[0], values.data[0] + values.data[2])
        assert np.allclose(out[1], values.data[1])
        assert np.allclose(out[2], values.data[3])

    def test_segment_mean_empty_segment_is_zero(self):
        values = Tensor(np.ones((2, 3)))
        out = F.segment_mean(values, np.array([0, 2]), 4).data
        assert np.allclose(out[1], 0.0) and np.allclose(out[3], 0.0)
        assert np.allclose(out[0], 1.0)

    def test_segment_max_picks_maximum_and_routes_gradient(self):
        values = Tensor(np.array([[1.0], [5.0], [3.0]]), requires_grad=True)
        out = F.segment_max(values, np.array([0, 0, 1]), 2)
        assert np.allclose(out.data, [[5.0], [3.0]])
        out.sum().backward()
        assert np.allclose(values.grad, [[0.0], [1.0], [1.0]])

    def test_segment_max_empty_segment_uses_empty_value(self):
        values = Tensor(np.ones((1, 2)))
        out = F.segment_max(values, np.array([0]), 3, empty_value=-7.0).data
        assert np.allclose(out[1], -7.0) and np.allclose(out[2], -7.0)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        segments=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_property_segment_sum_equals_numpy_groupby(self, n, segments, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n, 3))
        ids = rng.integers(0, segments, size=n)
        ours = F.segment_sum(Tensor(values), ids, segments).data
        expected = np.zeros((segments, 3))
        for row, segment in zip(values, ids):
            expected[segment] += row
        assert np.allclose(ours, expected)

    @settings(max_examples=60, deadline=None)
    @given(
        in_degrees=st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=8),
        width=st.sampled_from([None, 1, 3]),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_property_segment_max_equals_numpy_groupby(self, in_degrees, width, seed):
        """Runs up to a few hundred rows (every padded bucket up to 512), 1-D and 2-D, empty segments."""
        rng = np.random.default_rng(seed)
        ids = rng.permutation(np.repeat(np.arange(len(in_degrees)), in_degrees))
        shape = (ids.size,) if width is None else (ids.size, width)
        values = rng.normal(size=shape)
        ours = F.segment_max(Tensor(values), ids, len(in_degrees), empty_value=0.0).data
        assert ours.shape == (len(in_degrees),) + shape[1:]
        for segment, degree in enumerate(in_degrees):
            expected = values[ids == segment].max(axis=0) if degree else np.zeros(shape[1:])
            assert np.array_equal(ours[segment], expected)


class TestDistancesAndDropout:
    def test_pairwise_l1_matches_scipy_style_reference(self):
        a = np.random.randn(4, 3)
        b = np.random.randn(5, 3)
        ours = F.pairwise_l1_distances(Tensor(a), Tensor(b)).data
        expected = np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2)
        assert np.allclose(ours, expected)

    def test_pairwise_l1_self_distance_zero_diagonal(self):
        a = np.random.randn(6, 4)
        distances = F.pairwise_l1_distances(Tensor(a), Tensor(a)).data
        assert np.allclose(np.diag(distances), 0.0)

    def test_dropout_disabled_in_eval_or_zero_rate(self):
        rng = np.random.default_rng(0)
        values = Tensor(np.ones((10, 10)))
        assert np.allclose(F.dropout(values, 0.5, rng, training=False).data, 1.0)
        assert np.allclose(F.dropout(values, 0.0, rng, training=True).data, 1.0)

    def test_dropout_scales_kept_units(self):
        rng = np.random.default_rng(0)
        values = Tensor(np.ones((2000,)))
        dropped = F.dropout(values, 0.5, rng, training=True).data
        kept = dropped[dropped > 0]
        assert np.allclose(kept, 2.0)  # inverted dropout scaling
        assert 0.3 < (dropped > 0).mean() < 0.7


class TestSegmentMaxGradients:
    """Regression coverage for the optimized segment_max backward."""

    def test_gradient_with_ties_splits_equally(self):
        # Rows 0 and 1 are identical in segment 0 → each winner gets half.
        values = Tensor(np.array([[3.0, 1.0], [3.0, 5.0], [2.0, 4.0]]), requires_grad=True)
        ids = np.array([0, 0, 1])
        out = F.segment_max(values, ids, 2)
        out.sum().backward()
        expected = np.array([[0.5, 0.0], [0.5, 1.0], [1.0, 1.0]])
        assert np.allclose(values.grad, expected)

    def test_gradient_with_empty_segments_and_no_ties(self):
        values = Tensor(np.array([[1.0, 9.0], [4.0, 2.0]]), requires_grad=True)
        ids = np.array([0, 2])  # segment 1 (and 3) receive no rows
        out = F.segment_max(values, ids, 4, empty_value=-7.0)
        assert np.allclose(out.data[1], -7.0) and np.allclose(out.data[3], -7.0)
        out.sum().backward()
        # Single-winner segments take the full upstream gradient.
        assert np.allclose(values.grad, np.ones((2, 2)))

    def test_gradient_with_three_way_tie(self):
        values = Tensor(np.full((3, 1), 2.0), requires_grad=True)
        out = F.segment_max(values, np.array([0, 0, 0]), 1)
        out.sum().backward()
        assert np.allclose(values.grad, np.full((3, 1), 1.0 / 3.0))

    def test_accepts_precomputed_segment_index(self):
        from repro.nn.segments import SegmentIndex

        values = Tensor(np.random.default_rng(0).normal(size=(6, 3)), requires_grad=True)
        ids = np.array([2, 0, 2, 1, 0, 2])
        index = SegmentIndex.build(ids, 4)
        from_ids = F.segment_max(Tensor(values.data), ids, 4)
        from_index = F.segment_max(values, index, 4)
        assert (from_ids.data == from_index.data).all()
        from_index.sum().backward()
        assert values.grad is not None

    def test_segment_index_num_segments_mismatch_raises(self):
        from repro.nn.segments import SegmentIndex

        index = SegmentIndex.build(np.array([0, 1]), 2)
        with pytest.raises(ValueError):
            F.segment_sum(Tensor(np.ones((2, 2))), index, 3)


class TestChunkedPairwiseDistances:
    def test_chunked_matches_unchunked_forward_and_backward(self):
        rng = np.random.default_rng(3)
        a_data = rng.normal(size=(7, 5))
        b_data = rng.normal(size=(4, 5))

        a1, b1 = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
        full = F.pairwise_l1_distances(a1, b1)  # default: no chunking at this size
        full.sum().backward()

        a2, b2 = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
        chunked = F.pairwise_l1_distances(a2, b2, max_elements=40)  # forces several chunks
        chunked.sum().backward()

        assert (full.data == chunked.data).all()
        assert (a1.grad == a2.grad).all()
        assert (b1.grad == b2.grad).all()

    def test_weighted_gradient_equivalence(self):
        rng = np.random.default_rng(4)
        a_data, b_data = rng.normal(size=(6, 3)), rng.normal(size=(5, 3))
        weights = rng.normal(size=(6, 5))

        grads = []
        for max_elements in (10**9, 20):
            a = Tensor(a_data, requires_grad=True)
            b = Tensor(b_data, requires_grad=True)
            distances = F.pairwise_l1_distances(a, b, max_elements=max_elements)
            (distances * Tensor(weights)).sum().backward()
            grads.append((a.grad.copy(), b.grad.copy()))
        assert (grads[0][0] == grads[1][0]).all()
        assert (grads[0][1] == grads[1][1]).all()


class TestNoGrad:
    """Every graph node, the functional ones included, honours ``no_grad`` on a parameter input."""

    @pytest.mark.parametrize(
        "op",
        [
            lambda w: F.concatenate([w, w], axis=0),
            lambda w: F.stack([w, w]),
            lambda w: F.segment_sum(w, np.array([0, 0, 1]), 2),
            lambda w: F.segment_mean(w, np.array([0, 0, 1]), 2),
            lambda w: F.segment_max(w, np.array([0, 1, 1]), 2),
            lambda w: F.softmax(w),
            lambda w: (w * 2.0 + w) @ w.transpose(),
        ],
        ids=["concatenate", "stack", "segment_sum", "segment_mean", "segment_max", "softmax", "arithmetic"],
    )
    def test_no_tape_inside_and_same_values(self, op):
        weight = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        taped = op(weight)
        assert taped.requires_grad and taped._parents
        with no_grad():
            untaped = op(weight)
        assert not untaped.requires_grad
        assert untaped._parents == () and untaped._backward is None
        assert np.array_equal(untaped.data, taped.data)
        assert op(weight)._parents  # the tape is back after the scope

    def test_scope_is_per_thread(self):
        weight = Tensor(np.ones(3), requires_grad=True)
        seen = []
        with no_grad():
            thread = threading.Thread(target=lambda: seen.append((weight * 2.0).requires_grad))
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen == [True]
