"""Tests for the training objectives (Eqs. 1-4) and the kNN machinery."""

import numpy as np
import pytest

from repro.core import (
    ClassificationHead,
    ExactL1Index,
    KNNTypePredictor,
    TypeSpace,
    TypilusLoss,
    adapt_space_with_new_type,
    classification_loss,
    erased_type_name,
    erased_vocabulary,
    similarity_space_loss,
    triplet_loss,
)
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.utils.rng import SeededRNG


class TestClassificationLoss:
    def _head(self, dim=8):
        vocabulary = {"%UNK%": 0, "int": 1, "str": 2, "float": 3}
        return ClassificationHead(vocabulary, dim, SeededRNG(0))

    def test_vocabulary_roundtrip(self):
        head = self._head()
        assert head.type_id("int") == 1
        assert head.type_id("UnknownType") == 0
        assert head.type_name(2) == "str"
        assert len(head) == 4

    def test_missing_unk_rejected(self):
        with pytest.raises(ValueError):
            ClassificationHead({"int": 0}, 4, SeededRNG(0))

    def test_loss_decreases_with_training(self):
        head = self._head(dim=4)
        rng = np.random.default_rng(0)
        embeddings = Tensor(rng.normal(size=(30, 4)))
        types = ["int"] * 10 + ["str"] * 10 + ["float"] * 10
        optimiser = Adam(head.parameters(), lr=0.1)
        initial = float(classification_loss(head, embeddings, types).data)
        for _ in range(50):
            optimiser.zero_grad()
            loss = classification_loss(head, embeddings, types)
            loss.backward()
            optimiser.step()
        assert float(loss.data) < initial

    def test_predict_returns_probabilities(self):
        head = self._head()
        predictions = head.predict(Tensor(np.random.randn(5, 8)))
        assert len(predictions) == 5
        for type_name, probability in predictions:
            assert type_name in head.vocabulary
            assert 0.0 <= probability <= 1.0

    def test_predict_distribution_sums_to_one(self):
        head = self._head()
        distribution = head.predict_distribution(Tensor(np.random.randn(3, 8)))
        assert np.allclose(distribution.sum(axis=1), 1.0)


class TestTripletAndSpaceLoss:
    def test_triplet_loss_zero_when_separated(self):
        anchor = Tensor(np.zeros((2, 4)))
        positive = Tensor(np.zeros((2, 4)))
        negative = Tensor(np.full((2, 4), 10.0))
        assert float(triplet_loss(anchor, positive, negative, margin=2.0).data) == 0.0

    def test_triplet_loss_positive_when_violated(self):
        anchor = Tensor(np.zeros((1, 4)))
        positive = Tensor(np.full((1, 4), 5.0))
        negative = Tensor(np.zeros((1, 4)))
        assert float(triplet_loss(anchor, positive, negative, margin=1.0).data) > 0.0

    def test_space_loss_prefers_clustered_embeddings(self):
        rng = np.random.default_rng(0)
        types = ["int"] * 8 + ["str"] * 8
        # Clustered: same-type points close together, different types far apart.
        clustered = np.concatenate([rng.normal(0, 0.1, (8, 6)), rng.normal(8, 0.1, (8, 6))])
        mixed = rng.normal(0, 1.0, (16, 6))
        clustered_loss = float(similarity_space_loss(Tensor(clustered), types).data)
        mixed_loss = float(similarity_space_loss(Tensor(mixed), types).data)
        assert clustered_loss < mixed_loss

    def test_space_loss_handles_singleton_types(self):
        embeddings = Tensor(np.random.randn(5, 4), requires_grad=True)
        types = ["int", "str", "float", "bool", "bytes"]  # no positives at all
        loss = similarity_space_loss(embeddings, types)
        loss.backward()  # must be differentiable even with empty positive sets
        assert np.isfinite(float(loss.data))

    def test_space_loss_alignment_check(self):
        with pytest.raises(ValueError):
            similarity_space_loss(Tensor(np.zeros((3, 2))), ["int"])

    def test_space_loss_stats(self):
        embeddings = Tensor(np.random.randn(6, 4))
        types = ["int", "int", "str", "str", "float", "float"]
        _, stats = similarity_space_loss(embeddings, types, return_stats=True)
        assert stats.num_anchors_with_positives == 6
        assert stats.mean_negative_distance > 0

    def test_training_with_space_loss_clusters_types(self):
        """Optimising Eq. 3 pulls same-typed symbols together (the TypeSpace)."""
        rng = SeededRNG(0)
        embeddings = Tensor(rng.np.normal(0, 1.0, (20, 6)), requires_grad=True)
        types = ["int"] * 10 + ["str"] * 10
        optimiser = Adam([embeddings], lr=0.05)
        for _ in range(60):
            optimiser.zero_grad()
            loss = similarity_space_loss(embeddings, types, margin=2.0)
            loss.backward()
            optimiser.step()
        ints, strs = embeddings.data[:10], embeddings.data[10:]
        within = np.abs(ints - ints.mean(0)).sum(1).mean() + np.abs(strs - strs.mean(0)).sum(1).mean()
        between = np.abs(ints.mean(0) - strs.mean(0)).sum()
        assert between > within


class TestTypilusLoss:
    def test_erasure_helpers(self):
        assert erased_type_name("List[int]") == "List"
        assert erased_type_name("int") == "int"
        vocabulary = erased_vocabulary(["List[int]", "List[str]", "Dict[str, int]", "int"])
        assert vocabulary.keys() == {"%UNK%", "List", "Dict", "int"}

    def test_combined_loss_trains(self):
        rng = SeededRNG(1)
        loss_module = TypilusLoss(6, ["List[int]", "List[str]", "int", "str"], rng)
        embeddings = Tensor(rng.np.normal(0, 1, (12, 6)), requires_grad=True)
        types = ["List[int]", "List[str]", "int", "str"] * 3
        optimiser = Adam([embeddings] + list(loss_module.parameters()), lr=0.05)
        initial = float(loss_module(embeddings, types).data)
        for _ in range(40):
            optimiser.zero_grad()
            loss = loss_module(embeddings, types)
            loss.backward()
            optimiser.step()
        assert float(loss.data) < initial

    def test_lambda_zero_equals_space_loss(self):
        rng = SeededRNG(2)
        loss_module = TypilusLoss(4, ["int", "str"], rng, lambda_classification=0.0)
        embeddings = Tensor(np.random.randn(6, 4))
        types = ["int", "str"] * 3
        combined = float(loss_module(embeddings, types).data)
        space_only = float(similarity_space_loss(embeddings, types, margin=loss_module.margin).data)
        assert np.isclose(combined, space_only)


class TestKNNIndexes:
    def test_exact_index_finds_true_neighbours(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]])
        index = ExactL1Index(points)
        result = index.query_batch_arrays(np.array([0.9, 0.9]), k=2)
        assert result.indices.tolist() == [[1, 0]]
        assert result.distances[0, 0] <= result.distances[0, 1]

    def test_exact_index_k_larger_than_points(self):
        index = ExactL1Index(np.zeros((2, 3)))
        assert index.query_batch_arrays(np.zeros(3), k=10).indices.shape == (1, 2)

    def test_exact_index_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ExactL1Index(np.zeros(3))


class TestTypeSpaceAndPredictor:
    def _space(self):
        space = TypeSpace(dim=3)
        space.add_markers(["int"] * 3, np.zeros((3, 3)), source="train")
        space.add_markers(["str"] * 3, np.full((3, 3), 4.0), source="train")
        return space

    def test_marker_bookkeeping(self):
        space = self._space()
        assert len(space) == 6
        assert space.known_types() == {"int", "str"}
        assert space.type_counts()["int"] == 3

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self._space().add_marker("int", np.zeros(5))

    def test_nearest_returns_sorted_distances(self):
        space = self._space()
        neighbours = space.nearest(np.zeros(3), k=4)
        assert neighbours[0][0] == "int"
        distances = [d for _, d in neighbours]
        assert distances == sorted(distances)

    def test_predictor_probabilities_normalised_and_ranked(self):
        predictor = KNNTypePredictor(self._space(), k=6, p=1.0)
        prediction = predictor.predict(np.full(3, 0.5))
        assert prediction.top_type == "int"
        assert np.isclose(sum(p for _, p in prediction.candidates), 1.0)
        assert prediction.probability_of("str") < prediction.probability_of("int")

    def test_small_p_approaches_uniform_vote(self):
        space = self._space()
        near_uniform = KNNTypePredictor(space, k=6, p=0.001).predict(np.full(3, 1.0))
        peaked = KNNTypePredictor(space, k=6, p=5.0).predict(np.full(3, 1.0))
        assert peaked.confidence > near_uniform.confidence

    def test_threshold_suppresses_low_confidence(self):
        predictor = KNNTypePredictor(self._space(), k=6, p=0.001)
        assert predictor.predict_with_threshold(np.full(3, 2.0), threshold=0.99) is None
        assert predictor.predict_with_threshold(np.zeros(3), threshold=0.1) is not None

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            KNNTypePredictor(self._space(), k=0)
        with pytest.raises(ValueError):
            KNNTypePredictor(self._space(), k=1, p=-1)

    def test_empty_space_returns_empty_prediction(self):
        prediction = KNNTypePredictor(TypeSpace(dim=3), k=3).predict(np.zeros(3))
        assert prediction.top_type is None and prediction.confidence == 0.0

    def test_one_shot_adaptation_enables_new_type(self):
        """Sec. 4.2: adding a marker lets the predictor emit an unseen type."""
        space = self._space()
        predictor = KNNTypePredictor(space, k=3, p=2.0)
        query = np.full(3, 10.0)
        assert predictor.predict(query).top_type in {"int", "str"}
        adapt_space_with_new_type(space, "torch.Tensor", [np.full(3, 10.0)])
        assert predictor.predict(query).top_type == "torch.Tensor"

    def test_save_and_load_roundtrip(self, tmp_path):
        space = self._space()
        path = str(tmp_path / "space.npz")
        space.save(path)
        loaded = TypeSpace.load(path)
        assert len(loaded) == len(space)
        assert loaded.known_types() == space.known_types()
        assert loaded.nearest(np.zeros(3), k=1)[0][0] == "int"
