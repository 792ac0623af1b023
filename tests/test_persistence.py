"""Pipeline persistence: save → load → predict round trips, CLI serving."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import ExactL1Index, TypilusPipeline
from repro.nn import serialization
from repro.nn.layers import MLP
from repro.utils.rng import SeededRNG


class TestPipelineRoundTrip:
    @pytest.fixture(scope="class")
    def saved_dir(self, trained_pipeline, tmp_path_factory):
        path = tmp_path_factory.mktemp("model") / "pipeline"
        trained_pipeline.save(path)
        return path

    def test_save_writes_manifest_weights_and_typespace(self, saved_dir):
        assert (saved_dir / "pipeline.json").exists()
        assert (saved_dir / "encoder.npz").exists()
        assert (saved_dir / "typespace.npz").exists()
        manifest = json.loads((saved_dir / "pipeline.json").read_text(encoding="utf-8"))
        assert manifest["format_version"] == 1
        assert manifest["encoder"]["family"] == "graph"
        assert manifest["encoder"]["node_init"] == "subtoken"
        assert manifest["encoder"]["subtoken_vocabulary"]  # vocabulary travels with the model

    def test_loaded_pipeline_reproduces_predictions_exactly(self, trained_pipeline, tiny_dataset, saved_dir):
        loaded = TypilusPipeline.load(saved_dir)
        original = trained_pipeline.predict_split(tiny_dataset.test)
        restored = loaded.predict_split(tiny_dataset.test)
        assert len(original) == len(restored) > 0
        for (_, expected), (_, actual) in zip(original, restored):
            assert expected.candidates == actual.candidates  # byte-identical, not just top-1

    def test_loaded_pipeline_suggests_without_dataset(self, trained_pipeline, saved_dir):
        loaded = TypilusPipeline.load(saved_dir)
        assert loaded.dataset is None
        source = "def scale_amount(amount, factor):\n    return amount * factor\n"
        expected = trained_pipeline.suggest_for_source(source, use_type_checker=False)
        actual = loaded.suggest_for_source(source, use_type_checker=False)
        assert [(s.name, s.suggested_type, s.confidence) for s in expected] == [
            (s.name, s.suggested_type, s.confidence) for s in actual
        ]

    def test_loaded_pipeline_evaluates_without_dataset(self, tiny_dataset, saved_dir):
        loaded = TypilusPipeline.load(saved_dir)
        summary, evaluated = loaded.evaluate_split(tiny_dataset.test)
        assert summary.count == tiny_dataset.test.num_samples
        assert len(evaluated) == summary.count

    def test_knn_settings_round_trip(self, trained_pipeline, saved_dir):
        loaded = TypilusPipeline.load(saved_dir)
        assert loaded.predictor.k == trained_pipeline.predictor.k
        assert loaded.predictor.p == trained_pipeline.predictor.p
        assert len(loaded.type_space) == len(trained_pipeline.type_space)

    def test_unknown_format_version_rejected(self, saved_dir, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        for name in ("encoder.npz", "typespace.npz"):
            (bad / name).write_bytes((saved_dir / name).read_bytes())
        manifest = json.loads((saved_dir / "pipeline.json").read_text(encoding="utf-8"))
        manifest["format_version"] = 999
        (bad / "pipeline.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValueError):
            TypilusPipeline.load(bad)

    @pytest.mark.parametrize(
        "legacy_index",
        [
            {"approximate_index": True},
            {"index": {"kind": "lsh", "params": {"num_bits": 8, "probe_radius": 1, "seed": 0}}},
            {"index": {"kind": "ivf", "params": {"nlist": 4, "nprobe": 2}}},
        ],
        ids=["approximate-flag-without-index", "lsh-kind", "ivf-kind"],
    )
    def test_legacy_lsh_manifest_loads_with_exact_index(self, trained_pipeline, saved_dir, tmp_path, legacy_index):
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        for name in ("encoder.npz", "typespace.npz"):
            (legacy / name).write_bytes((saved_dir / name).read_bytes())
        manifest = json.loads((saved_dir / "pipeline.json").read_text(encoding="utf-8"))
        manifest.update(legacy_index)
        (legacy / "pipeline.json").write_text(json.dumps(manifest), encoding="utf-8")
        loaded = TypilusPipeline.load(legacy)
        assert isinstance(loaded.type_space.index(), ExactL1Index)
        assert loaded.fingerprint() == TypilusPipeline.load(saved_dir).fingerprint()


class TestModuleArchives:
    def test_save_modules_namespaces_parameters(self, tmp_path):
        rng = SeededRNG(3)
        first = MLP(4, 8, 2, rng.fork(1))
        second = MLP(4, 8, 2, rng.fork(2))
        path = serialization.save_modules(tmp_path / "pair.npz", first=first, second=second)
        with np.load(path) as archive:
            assert any(key.startswith("first//") for key in archive.files)
            assert any(key.startswith("second//") for key in archive.files)

    def test_load_modules_round_trips_values(self, tmp_path):
        rng = SeededRNG(3)
        source = MLP(4, 8, 2, rng.fork(1))
        target = MLP(4, 8, 2, rng.fork(9))  # different init, same shapes
        path = serialization.save_modules(tmp_path / "mlp.npz", mlp=source)
        serialization.load_modules(path, mlp=target)
        for (_, expected), (_, actual) in zip(source.named_parameters(), target.named_parameters()):
            assert np.array_equal(expected.data, actual.data)

    def test_load_modules_rejects_unknown_namespace(self, tmp_path):
        rng = SeededRNG(3)
        module = MLP(4, 8, 2, rng.fork(1))
        path = serialization.save_modules(tmp_path / "mlp.npz", mlp=module)
        with pytest.raises(KeyError):
            serialization.load_modules(path, other=MLP(4, 8, 2, rng.fork(2)))


class TestCLIServing:
    def test_train_save_then_annotate_load(self, tmp_path, capsys):
        model_dir = tmp_path / "model"
        exit_code = main([
            "train", "--num-files", "10", "--epochs", "1", "--hidden-dim", "16",
            "--gnn-steps", "1", "--family", "names", "--save-model", str(model_dir),
        ])
        assert exit_code == 0
        assert (model_dir / "pipeline.json").exists()

        project = tmp_path / "project"
        project.mkdir()
        (project / "mod.py").write_text(
            "def scale_price(price, factor):\n    return price * factor\n", encoding="utf-8"
        )
        capsys.readouterr()
        exit_code = main([
            "annotate", str(project), "--load-model", str(model_dir), "--no-type-checker",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "loaded pipeline from" in output
        assert "scale_price" in output
        assert "symbols_per_second" in output

    def test_annotate_requires_directory(self, tmp_path):
        target = tmp_path / "single.py"
        target.write_text("x = 1\n", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["annotate", str(target), "--no-type-checker"])

    def test_suggest_with_loaded_model(self, tmp_path, capsys):
        model_dir = tmp_path / "model"
        assert main([
            "train", "--num-files", "8", "--epochs", "1", "--hidden-dim", "16",
            "--gnn-steps", "1", "--family", "names", "--save-model", str(model_dir),
        ]) == 0
        target = tmp_path / "snippet.py"
        target.write_text("def count_words(words):\n    return len(words)\n", encoding="utf-8")
        capsys.readouterr()
        assert main([
            "suggest", str(target), "--load-model", str(model_dir), "--no-type-checker",
        ]) == 0
        output = capsys.readouterr().out
        assert "count_words" in output and "suggested" in output
