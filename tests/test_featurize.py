"""Tests for the compile-once featurization layer (repro.models.featurize)."""

import numpy as np
import pytest

from repro.graph.subtokens import CharacterVocabulary, SubtokenVocabulary
from repro.models.encoder_init import TokenVocabulary
from repro.models.featurize import (
    CHARACTER,
    SUBTOKEN,
    TOKEN,
    FeatureExtractor,
    TextFeatures,
)


@pytest.fixture(scope="module")
def subtokens() -> SubtokenVocabulary:
    vocabulary = SubtokenVocabulary()
    for text in ("num_count", "total_count", "get_value", "items"):
        vocabulary.observe_identifier(text)
    return vocabulary.finalise()


class TestFeatureExtractor:
    def test_subtoken_ids_match_eager_tokenization(self, subtokens):
        texts = ["num_count", "get_value", "+", "", "unseen_word"]
        extractor = FeatureExtractor(SUBTOKEN, subtoken_vocabulary=subtokens)
        features = extractor.features_for_texts(texts)
        expected_ids = [identifier for text in texts for identifier in subtokens.ids_for_identifier(text)]
        expected_segments = [
            position for position, text in enumerate(texts)
            for _ in subtokens.ids_for_identifier(text)
        ]
        assert features.num_texts == len(texts)
        assert features.ids.tolist() == expected_ids
        assert features.segments.tolist() == expected_segments

    def test_token_and_character_layouts(self, subtokens):
        tokens = TokenVocabulary.from_texts(["count", "count", "name"])
        token_features = FeatureExtractor(TOKEN, token_vocabulary=tokens).features_for_texts(
            ["count", "never_seen"]
        )
        assert token_features.ids.tolist() == [tokens.lookup("count"), TokenVocabulary.UNKNOWN]

        characters = CharacterVocabulary()
        char_features = FeatureExtractor(
            CHARACTER, character_vocabulary=characters, max_chars=8
        ).features_for_texts(["ab", ""])
        assert char_features.ids.shape == (2, 8)
        assert char_features.ids.tolist()[0] == characters.encode("ab", 8)
        assert char_features.ids.tolist()[1] == characters.encode("_", 8)

    def test_memo_returns_identical_arrays(self, subtokens):
        extractor = FeatureExtractor(SUBTOKEN, subtoken_vocabulary=subtokens)
        extractor.enable_memo()
        first = extractor.features_for_texts(["num_count"])
        second = extractor.features_for_texts(["num_count"])
        assert (first.ids == second.ids).all()
        assert "num_count" in extractor._memo

    def test_requires_matching_vocabulary(self):
        with pytest.raises(ValueError):
            FeatureExtractor(SUBTOKEN)
        with pytest.raises(ValueError):
            FeatureExtractor("nonsense")


class TestTextFeaturesOps:
    def test_concatenate_offsets_segments(self, subtokens):
        extractor = FeatureExtractor(SUBTOKEN, subtoken_vocabulary=subtokens)
        first = extractor.features_for_texts(["num_count", "items"])
        second = extractor.features_for_texts(["get_value"])
        merged = TextFeatures.concatenate([first, second])
        direct = extractor.features_for_texts(["num_count", "items", "get_value"])
        assert merged.num_texts == 3
        assert (merged.ids == direct.ids).all()
        assert (merged.segments == direct.segments).all()
        assert (merged.row_splits == direct.row_splits).all()

    def test_take_selects_rows_with_repeats(self, subtokens):
        extractor = FeatureExtractor(SUBTOKEN, subtoken_vocabulary=subtokens)
        features = extractor.features_for_texts(["num_count", "items", "get_value"])
        taken = features.take(np.array([2, 0, 2]))
        direct = extractor.features_for_texts(["get_value", "num_count", "get_value"])
        assert (taken.ids == direct.ids).all()
        assert (taken.segments == direct.segments).all()
        none = features.take(np.zeros(0, dtype=np.int64))
        assert none.num_texts == 0 and none.ids.size == 0 and none.row_splits.tolist() == [0]

    def test_repeated_tiles_rows(self, subtokens):
        extractor = FeatureExtractor(SUBTOKEN, subtoken_vocabulary=subtokens)
        padding = extractor.features_for_texts([""])
        tiled = padding.repeated(3)
        direct = extractor.features_for_texts(["", "", ""])
        assert (tiled.ids == direct.ids).all()
        assert (tiled.segments == direct.segments).all()

    def test_concatenate_mismatched_kinds_raises(self, subtokens):
        tokens = TokenVocabulary.from_texts(["a"])
        sub = FeatureExtractor(SUBTOKEN, subtoken_vocabulary=subtokens).features_for_texts(["a"])
        tok = FeatureExtractor(TOKEN, token_vocabulary=tokens).features_for_texts(["a"])
        with pytest.raises(ValueError):
            TextFeatures.concatenate([sub, tok])
        with pytest.raises(ValueError):
            TextFeatures.concatenate([])


class TestInitializerFeaturePath:
    def test_encode_features_equals_encode_texts(self, subtokens):
        from repro.models.encoder_init import SubtokenNodeInitializer
        from repro.utils.rng import SeededRNG

        initializer = SubtokenNodeInitializer(subtokens, 8, SeededRNG(2))
        texts = ["num_count", "", "get_value", "total_count"]
        via_texts = initializer.encode_texts(texts)
        via_features = initializer.encode_features(initializer.featurize(texts))
        assert (via_texts.data == via_features.data).all()
