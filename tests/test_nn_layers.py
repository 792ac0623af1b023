"""Tests for layers, recurrent cells, the char CNN, optimisers and serialization."""

import numpy as np
import pytest

from repro.nn.conv import CharCNNEncoder, Conv1D
from repro.nn.layers import MLP, Dropout, Embedding, LayerNorm, Linear, Module, Sequential
from repro.nn.optim import Adam
from repro.nn.rnn import BiGRU, GRU, GRUCell
from repro.nn.serialization import load_modules, load_state_dict, save_modules, state_dict
from repro.nn.tensor import Tensor
from repro.utils.rng import SeededRNG


@pytest.fixture()
def rng():
    return SeededRNG(0)


class TestModule:
    def test_parameters_found_in_nested_structures(self, rng):
        class Composite(Module):
            def __init__(self):
                super().__init__()
                self.linear = Linear(3, 4, rng.fork(1))
                self.stack = [Linear(4, 4, rng.fork(2)), Linear(4, 2, rng.fork(3))]
                self.by_name = {"head": Linear(2, 1, rng.fork(4))}
                self.standalone = Tensor(np.zeros(5), requires_grad=True)

        module = Composite()
        parameters = list(module.parameters())
        # 4 Linears with weight+bias plus the standalone tensor.
        assert len(parameters) == 9
        names = dict(module.named_parameters())
        assert "linear.weight" in names and "stack.0.weight" in names and "by_name.head.bias" in names

    def test_train_eval_propagates(self, rng):
        outer = Sequential([Dropout(0.5, rng), Linear(2, 2, rng)])
        outer.eval()
        assert not outer.stages[0].training
        outer.train()
        assert outer.stages[0].training

    def test_zero_grad_and_num_parameters(self, rng):
        linear = Linear(3, 2, rng)
        (linear(Tensor(np.ones((1, 3)))) ** 2).sum().backward()
        assert linear.weight.grad is not None
        linear.zero_grad()
        assert linear.weight.grad is None
        assert linear.num_parameters() == 3 * 2 + 2


class TestLinearEmbeddingLayerNorm:
    def test_linear_shapes_and_bias(self, rng):
        linear = Linear(4, 3, rng)
        out = linear(Tensor(np.zeros((5, 4))))
        assert out.shape == (5, 3)
        assert np.allclose(out.data, 0.0)  # zero input -> bias (zeros)

    def test_linear_without_bias(self, rng):
        linear = Linear(4, 3, rng, bias=False)
        assert linear.bias is None
        assert len(list(linear.parameters())) == 1

    def test_embedding_lookup_and_gradient(self, rng):
        embedding = Embedding(10, 4, rng)
        out = embedding(np.array([1, 1, 3]))
        assert out.shape == (3, 4)
        out.sum().backward()
        assert np.allclose(embedding.weight.grad[1], 2.0 * np.ones(4) * 0 + embedding.weight.grad[1])
        assert embedding.weight.grad[1].sum() != 0 and embedding.weight.grad[0].sum() == 0

    def test_embedding_out_of_range_raises(self, rng):
        embedding = Embedding(5, 2, rng)
        with pytest.raises(IndexError):
            embedding(np.array([7]))

    def test_layernorm_normalises_last_axis(self):
        layer_norm = LayerNorm(6)
        out = layer_norm(Tensor(np.random.randn(4, 6) * 10 + 3)).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_mlp_forward_shape(self, rng):
        mlp = MLP(5, 8, 3, rng)
        assert mlp(Tensor(np.random.randn(7, 5))).shape == (7, 3)


class TestRecurrentAndConv:
    def test_gru_cell_shapes_and_state_dependence(self, rng):
        cell = GRUCell(3, 5, rng)
        x = Tensor(np.random.randn(2, 3))
        h0 = cell.initial_state(2)
        h1 = cell(x, h0)
        assert h1.shape == (2, 5)
        h2 = cell(x, h1)
        assert not np.allclose(h1.data, h2.data)

    def test_gru_sequence_and_reverse_differ(self, rng):
        sequence = Tensor(np.random.randn(6, 2, 3))
        forward = GRU(3, 4, rng.fork(1))(sequence)
        backward = GRU(3, 4, rng.fork(1), reverse=True)(sequence)
        assert forward.shape == (6, 2, 4)
        assert not np.allclose(forward.data, backward.data)

    def test_bigru_output_dim_is_double(self, rng):
        bigru = BiGRU(3, 4, rng)
        out = bigru(Tensor(np.random.randn(5, 2, 3)))
        assert out.shape == (5, 2, 8)
        out.sum().backward()  # gradients flow end to end

    def test_conv1d_output_positions(self, rng):
        conv = Conv1D(4, 6, kernel_size=3, rng=rng)
        out = conv(Tensor(np.random.randn(2, 10, 4)))
        assert out.shape == (2, 8, 6)

    def test_conv1d_too_short_sequence_raises(self, rng):
        conv = Conv1D(4, 6, kernel_size=5, rng=rng)
        with pytest.raises(ValueError):
            conv(Tensor(np.random.randn(2, 3, 4)))

    def test_char_cnn_encoder_shape_and_gradients(self, rng):
        encoder = CharCNNEncoder(40, 8, 12, rng)
        out = encoder(np.random.randint(0, 40, size=(5, 16)))
        assert out.shape == (5, 12)
        out.sum().backward()
        assert any(p.grad is not None for p in encoder.parameters())


class TestOptimisers:
    def _regression_data(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(64, 3))
        y = X @ np.array([[1.0], [-2.0], [0.5]]) + 0.3
        return X, y

    def test_adam_converges_on_linear_regression(self):
        X, y = self._regression_data()
        model = Linear(3, 1, SeededRNG(1))
        optimiser = Adam(model.parameters(), lr=0.05)
        for _ in range(200):
            optimiser.zero_grad()
            loss = ((model(Tensor(X)) - Tensor(y)) ** 2).mean()
            loss.backward()
            optimiser.step()
        assert float(loss.data) < 1e-3

    def test_gradient_clipping_bounds_norm(self):
        parameter = Tensor(np.zeros(4), requires_grad=True)
        parameter.grad = np.full(4, 100.0)
        optimiser = Adam([parameter], lr=0.1)
        norm_before = optimiser.clip_gradients(1.0)
        assert norm_before > 1.0
        assert np.sqrt((parameter.grad**2).sum()) <= 1.0 + 1e-9

    def test_optimizer_requires_parameters(self):
        with pytest.raises(ValueError):
            Adam([])


class TestSerialization:
    def test_state_dict_roundtrip(self, rng, tmp_path):
        model = MLP(4, 6, 2, rng)
        reference = model(Tensor(np.ones((1, 4)))).data.copy()
        path = tmp_path / "model.npz"
        save_modules(path, model=model)

        fresh = MLP(4, 6, 2, SeededRNG(99))
        assert not np.allclose(fresh(Tensor(np.ones((1, 4)))).data, reference)
        load_modules(path, model=fresh)
        assert np.allclose(fresh(Tensor(np.ones((1, 4)))).data, reference)

    def test_load_state_dict_shape_mismatch_raises(self, rng):
        model = Linear(3, 2, rng)
        bad_state = {name: np.zeros((1, 1)) for name, _ in model.named_parameters()}
        with pytest.raises(ValueError):
            load_state_dict(model, bad_state)

    def test_strict_missing_key_raises(self, rng):
        model = Linear(3, 2, rng)
        with pytest.raises(KeyError):
            load_state_dict(model, {}, strict=True)
        missing = load_state_dict(model, {}, strict=False)
        assert set(missing) == {"weight", "bias"}

    def test_state_dict_contains_copies(self, rng):
        model = Linear(2, 2, rng)
        snapshot = state_dict(model)
        model.weight.data += 100.0
        assert not np.allclose(snapshot["weight"], model.weight.data)
