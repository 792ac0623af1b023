"""Integration tests: trainer, pipeline, suggestion path and checker filtering."""


from repro.checker import CheckerMode
from repro.core import (
    EncoderConfig,
    FilterRequest,
    LossKind,
    Trainer,
    TrainingConfig,
    TypeCheckedFilter,
    TypePrediction,
    build_encoder,
    summarise_by_rarity,
)
from repro.graph.nodes import SymbolKind


class TestTrainer:
    def test_training_reduces_loss(self, tiny_dataset):
        encoder = build_encoder(tiny_dataset, EncoderConfig(family="graph", hidden_dim=16, gnn_steps=2, seed=3))
        trainer = Trainer(
            encoder, tiny_dataset, loss_kind=LossKind.TYPILUS,
            config=TrainingConfig(epochs=3, graphs_per_batch=6, learning_rate=8e-3, seed=3),
        )
        result = trainer.train()
        assert len(result.history) == 3
        assert result.history[-1].mean_loss < result.history[0].mean_loss

    def test_classification_trainer_builds_head(self, tiny_dataset):
        encoder = build_encoder(tiny_dataset, EncoderConfig(family="names", hidden_dim=16, seed=3))
        trainer = Trainer(
            encoder, tiny_dataset, loss_kind=LossKind.CLASSIFICATION,
            config=TrainingConfig(epochs=2, graphs_per_batch=6, seed=3),
        )
        result = trainer.train()
        assert result.classification_head is not None
        assert result.typilus_loss is None

    def test_embed_split_aligns_samples(self, tiny_dataset):
        encoder = build_encoder(tiny_dataset, EncoderConfig(family="names", hidden_dim=16, seed=3))
        trainer = Trainer(encoder, tiny_dataset, loss_kind=LossKind.SPACE,
                          config=TrainingConfig(epochs=1, graphs_per_batch=6, seed=3))
        trainer.train()
        embeddings, samples = trainer.embed_split(tiny_dataset.test)
        assert embeddings.shape == (len(samples), encoder.output_dim)
        assert len(samples) == tiny_dataset.test.num_samples

    def test_type_space_markers_come_from_train_and_valid(self, tiny_dataset):
        encoder = build_encoder(tiny_dataset, EncoderConfig(family="names", hidden_dim=16, seed=3))
        trainer = Trainer(encoder, tiny_dataset, loss_kind=LossKind.SPACE,
                          config=TrainingConfig(epochs=1, graphs_per_batch=6, seed=3))
        trainer.train()
        space = trainer.build_type_space(include_valid=True)
        expected = tiny_dataset.train.num_samples + tiny_dataset.valid.num_samples
        assert len(space) == expected
        sources = {marker.source for marker in space.markers}
        assert "train" in sources


class TestPipeline:
    def test_pipeline_beats_random_guessing(self, trained_pipeline, tiny_dataset):
        summary, evaluated = trained_pipeline.evaluate_split(tiny_dataset.test)
        assert summary.count == tiny_dataset.test.num_samples
        # Random guessing over the type vocabulary would land far below this.
        assert summary.exact_match > 0.3
        assert summary.type_neutral >= summary.exact_match

    def test_common_types_predicted_better_than_rare(self, trained_pipeline, tiny_dataset):
        _, evaluated = trained_pipeline.evaluate_split(tiny_dataset.test)
        breakdown = summarise_by_rarity(evaluated, tiny_dataset.registry)
        if breakdown["rare"].count:
            assert breakdown["common"].exact_match >= breakdown["rare"].exact_match

    def test_predictions_have_confidences(self, trained_pipeline, tiny_dataset):
        for _, prediction in trained_pipeline.predict_split(tiny_dataset.test)[:10]:
            assert 0.0 < prediction.confidence <= 1.0
            assert prediction.top_type is not None

    def test_suggest_for_unannotated_source(self, trained_pipeline):
        source = (
            "def scale_amount(amount, factor):\n"
            "    return amount * factor\n"
            "\n"
            "def count_entries(entries):\n"
            "    return len(entries)\n"
        )
        suggestions = trained_pipeline.suggest_for_source(source, use_type_checker=False)
        names = {s.name for s in suggestions}
        assert {"amount", "factor", "entries", "<return>"} <= names
        for suggestion in suggestions:
            assert suggestion.suggested_type is not None

    def test_suggest_skips_existing_annotations_when_asked(self, trained_pipeline):
        source = "def f(count: int, label):\n    return label + str(count)\n"
        suggestions = trained_pipeline.suggest_for_source(source, use_type_checker=False, include_annotated=False)
        assert all(s.name != "count" for s in suggestions)

    def test_checker_filter_rejects_type_error_candidates(self, trained_pipeline):
        source = "def double_text(text):\n    return text + text\n\nresult: str = double_text('x')\n"
        suggestions = trained_pipeline.suggest_for_source(
            source, use_type_checker=True, checker_mode=CheckerMode.STRICT
        )
        return_suggestions = [s for s in suggestions if s.name == "<return>" and s.scope == "module.double_text"]
        assert return_suggestions
        accepted = return_suggestions[0]
        if accepted.filtered is not None and accepted.filtered.has_suggestion:
            # whatever was accepted must not contradict the str usage downstream
            assert accepted.filtered.accepted_type not in ("int", "float", "bool")

    def test_confidence_threshold_reduces_suggestions(self, trained_pipeline):
        source = "def mystery(a, b):\n    return a\n"
        all_suggestions = trained_pipeline.suggest_for_source(source, use_type_checker=False, confidence_threshold=0.0)
        confident = trained_pipeline.suggest_for_source(source, use_type_checker=False, confidence_threshold=0.99)
        assert len(confident) <= len(all_suggestions)

    def test_disagreement_detection(self, trained_pipeline):
        # `num_layers`-style integers annotated as float: the Sec. 7 scenario.
        source = (
            "def build_grid(num_rows: str, num_cols: str) -> int:\n"
            "    return num_rows * num_cols\n"
        )
        suggestions = trained_pipeline.suggest_for_source(source, use_type_checker=False)
        by_name = {s.name: s for s in suggestions}
        assert by_name["num_rows"].existing_annotation == "str"
        # The model's prediction is recorded even when it disagrees.
        assert by_name["num_rows"].prediction.top_type is not None


class TestTypeCheckedFilter:
    def test_filter_accepts_first_passing_candidate(self):
        source = "def emphasise(word):\n    return word + '!'\n"
        prediction = TypePrediction(candidates=[("int", 0.6), ("str", 0.4)])
        filtered = TypeCheckedFilter(mode=CheckerMode.STRICT).filter(
            source, "module.emphasise", "word", SymbolKind.PARAMETER, prediction
        )
        assert filtered.accepted_type == "str"
        assert any(candidate == "int" for candidate, _ in filtered.rejected)

    def test_filter_rejects_uninformative_candidates(self):
        source = "def f(x):\n    return x\n"
        prediction = TypePrediction(candidates=[("Any", 0.9), ("None", 0.1)])
        filtered = TypeCheckedFilter().filter(source, "module.f", "x", SymbolKind.PARAMETER, prediction)
        assert not filtered.has_suggestion
        assert len(filtered.rejected) == 2

    def test_filter_many_equals_filter_one_symbol_at_a_time(self):
        # Each candidate is checked at its own symbol: `str` fails for
        # `count`, so `count` gets `int` even though `str` passed for `word`.
        source = "def shout(word):\n    return word.upper()\n\ndef bump(count):\n    return count * 2 + 1\n"
        prediction = TypePrediction(candidates=[("str", 0.7), ("int", 0.3)])
        requests = [
            FilterRequest(scope="module.shout", name="word", kind=SymbolKind.PARAMETER, prediction=prediction),
            FilterRequest(scope="module.bump", name="count", kind=SymbolKind.PARAMETER, prediction=prediction),
        ]
        checker_filter = TypeCheckedFilter(mode=CheckerMode.STRICT)
        batched = checker_filter.filter_many(source, requests)
        one_at_a_time = [
            checker_filter.filter(source, request.scope, request.name, request.kind, request.prediction)
            for request in requests
        ]
        assert batched == one_at_a_time
        assert [suggestion.accepted_type for suggestion in batched] == ["str", "int"]
        assert batched[1].rejected == [("str", "1 type error(s): operator")]

    def test_filter_respects_confidence_threshold(self):
        source = "def f(x):\n    return x\n"
        prediction = TypePrediction(candidates=[("int", 0.2)])
        filtered = TypeCheckedFilter(confidence_threshold=0.5).filter(
            source, "module.f", "x", SymbolKind.PARAMETER, prediction
        )
        assert not filtered.has_suggestion
