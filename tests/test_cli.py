"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_corpus_defaults(self):
        args = build_parser().parse_args(["corpus"])
        assert args.command == "corpus" and args.num_files == 40

    def test_train_arguments(self):
        args = build_parser().parse_args(["train", "--family", "names", "--loss", "space", "--epochs", "2"])
        assert args.family == "names" and args.loss == "space" and args.epochs == 2

    def test_suggest_requires_files(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["suggest"])

    def test_check_mode_choices(self):
        args = build_parser().parse_args(["check", "x.py", "--mode", "lenient"])
        assert args.mode == "lenient"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "x.py", "--mode", "bogus"])


class TestCorpusCommand:
    def test_writes_files_and_prints_statistics(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        exit_code = main(["corpus", "--num-files", "6", "--out", str(out_dir)])
        assert exit_code == 0
        written = list(out_dir.glob("*.py"))
        assert len(written) >= 6
        output = capsys.readouterr().out
        assert "distinct_types" in output

    def test_statistics_only_without_out(self, capsys):
        assert main(["corpus", "--num-files", "4"]) == 0
        assert "train_samples" in capsys.readouterr().out


class TestCheckCommand:
    def test_clean_file_returns_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.py"
        path.write_text("def f(x: int) -> int:\n    return x + 1\n")
        assert main(["check", str(path)]) == 0
        assert "no type errors" in capsys.readouterr().out

    def test_file_with_errors_returns_nonzero_and_prints_diagnostics(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text("def f() -> int:\n    return 'text'\n")
        assert main(["check", str(path)]) == 1
        assert "return-value" in capsys.readouterr().out

    def test_lenient_mode_can_accept_what_strict_rejects(self, tmp_path):
        path = tmp_path / "narrowing.py"
        path.write_text("def f(x: float) -> int:\n    return x\n")
        strict_code = main(["check", str(path), "--mode", "strict"])
        lenient_code = main(["check", str(path), "--mode", "lenient"])
        assert strict_code == 1 and lenient_code == 0


class TestTrainAndSuggestCommands:
    def test_train_reports_metrics_and_saves_typespace(self, tmp_path, capsys):
        space_path = tmp_path / "space.npz"
        exit_code = main([
            "train", "--num-files", "10", "--epochs", "1", "--hidden-dim", "16",
            "--gnn-steps", "1", "--family", "names", "--loss", "typilus",
            "--save-typespace", str(space_path),
        ])
        assert exit_code == 0
        assert space_path.exists()
        output = capsys.readouterr().out
        assert "exact" in output

    def test_suggest_prints_table_for_user_file(self, tmp_path, capsys):
        target = tmp_path / "snippet.py"
        target.write_text("def scale_price(price, factor):\n    return price * factor\n")
        exit_code = main([
            "suggest", str(target), "--num-files", "10", "--epochs", "1", "--hidden-dim", "16",
            "--gnn-steps", "1", "--family", "names", "--no-type-checker",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "scale_price" in output and "suggested" in output

    def test_suggest_lists_unparsable_files_as_skipped(self, tmp_path, capsys):
        target = tmp_path / "snippet.py"
        target.write_text("def scale_price(price, factor):\n    return price * factor\n")
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n")
        exit_code = main([
            "suggest", str(target), str(broken), "--num-files", "10", "--epochs", "1", "--hidden-dim", "16",
            "--gnn-steps", "1", "--family", "names", "--no-type-checker",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert f"=== {target} ===" in output and "scale_price" in output
        assert f"=== {broken} ===" not in output
        assert any(line.split() == [str(broken), "unparsable"] for line in output.splitlines()), output

    def test_train_on_directory_corpus(self, tmp_path, capsys):
        corpus_dir = tmp_path / "proj"
        corpus_dir.mkdir()
        for index in range(6):
            (corpus_dir / f"m{index}.py").write_text(
                "def count_items(items: list) -> int:\n    return len(items)\n"
                f"def label_{index}(name: str) -> str:\n    return name\n"
            )
        exit_code = main([
            "train", "--corpus-dir", str(corpus_dir), "--epochs", "1", "--hidden-dim", "16",
            "--gnn-steps", "1", "--family", "names",
        ])
        assert exit_code == 0

    def test_train_on_empty_directory_fails_cleanly(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit):
            main(["train", "--corpus-dir", str(empty), "--epochs", "1"])


class TestIngestCommand:
    def _write_corpus(self, directory, files=6):
        # Each file is structurally distinct so deduplication keeps them all.
        directory.mkdir()
        for index in range(files):
            (directory / f"m{index}.py").write_text(
                f"def compute_{index}(value_{index}: int) -> int:\n"
                f"    total_{index} = value_{index} * {index + 2}\n"
                f"    return total_{index} + {index * 7}\n"
                f"def greet_{index}(name_{index}: str) -> str:\n"
                f"    return 'prefix_{index}' + name_{index} * {index + 1}\n"
            )

    def test_parser_accepts_ingest_options(self):
        args = build_parser().parse_args(
            ["ingest", "--out", "ds", "--jobs", "4", "--cache-dir", "cache", "--shard-size", "8"]
        )
        assert args.command == "ingest" and args.jobs == 4
        assert str(args.cache_dir) == "cache" and args.shard_size == 8

    def test_ingest_writes_dataset_then_train_loads_it(self, tmp_path, capsys):
        corpus_dir = tmp_path / "proj"
        self._write_corpus(corpus_dir)
        dataset_dir = tmp_path / "dataset"
        cache_dir = tmp_path / "cache"
        exit_code = main([
            "ingest", "--corpus-dir", str(corpus_dir), "--out", str(dataset_dir),
            "--jobs", "2", "--cache-dir", str(cache_dir),
        ])
        assert exit_code == 0
        assert (dataset_dir / "dataset.json").exists()
        output = capsys.readouterr().out
        assert "dataset saved" in output and "cache_hits" in output
        # The cache was populated: re-ingesting hits for every file.
        assert main([
            "ingest", "--corpus-dir", str(corpus_dir), "--out", str(dataset_dir),
            "--cache-dir", str(cache_dir),
        ]) == 0
        warm_output = capsys.readouterr().out
        assert any(
            line.split()[:2] == ["cache_hits", "6"] for line in warm_output.splitlines() if line.strip()
        ), warm_output

        exit_code = main([
            "train", "--dataset", str(dataset_dir), "--epochs", "1", "--hidden-dim", "16",
            "--gnn-steps", "1", "--family", "names",
        ])
        assert exit_code == 0
        assert "loaded dataset" in capsys.readouterr().out

    def test_train_save_dataset_round_trips(self, tmp_path, capsys):
        dataset_dir = tmp_path / "dataset"
        exit_code = main([
            "train", "--num-files", "8", "--epochs", "1", "--hidden-dim", "16",
            "--gnn-steps", "1", "--family", "names", "--save-dataset", str(dataset_dir),
        ])
        assert exit_code == 0
        assert (dataset_dir / "dataset.json").exists()
        capsys.readouterr()
        assert main([
            "train", "--dataset", str(dataset_dir), "--epochs", "1", "--hidden-dim", "16",
            "--gnn-steps", "1", "--family", "names",
        ]) == 0
        assert "exact" in capsys.readouterr().out

    def test_annotate_with_jobs_and_cache_dir(self, tmp_path, capsys):
        project = tmp_path / "proj"
        self._write_corpus(project, files=3)
        model_dir = tmp_path / "model"
        cache_dir = tmp_path / "anncache"
        assert main([
            "train", "--num-files", "8", "--epochs", "1", "--hidden-dim", "16",
            "--gnn-steps", "1", "--family", "names", "--save-model", str(model_dir),
        ]) == 0
        capsys.readouterr()
        assert main([
            "annotate", str(project), "--load-model", str(model_dir),
            "--jobs", "2", "--cache-dir", str(cache_dir), "--no-type-checker",
        ]) == 0
        first = capsys.readouterr().out
        assert any(
            line.split()[:2] == ["reused_files", "0"] for line in first.splitlines() if line.strip()
        ), first
        assert main([
            "annotate", str(project), "--load-model", str(model_dir),
            "--jobs", "2", "--cache-dir", str(cache_dir), "--no-type-checker",
        ]) == 0
        second = capsys.readouterr().out
        assert any(
            line.split()[:2] == ["reused_files", "3"] for line in second.splitlines() if line.strip()
        ), second
