"""Gradually annotate an unannotated project with the batched annotation engine.

Sec. 6.3 frames Typilus' goal as "helping developers gradually move an
unannotated or partially annotated program to a fully annotated program by
adding a type prediction at a time".  This example runs that loop on top of
the project-scale engine:

1. train a pipeline once and persist it with ``TypilusPipeline.save``;
2. restore it with ``TypilusPipeline.load`` — no re-training — exactly as a
   deployed annotation service would;
3. hand the whole stripped project to :class:`repro.engine.ProjectAnnotator`,
   which embeds and scores every file's symbols in one batched pass;
4. accept suggestions highest-confidence first, inserting each accepted
   annotation into the source (the checker filter has already vetoed
   candidates that introduce type errors).

At the end it reports how much of the project was annotated, how often the
accepted annotations agree with the original (held-back) ones, and the
engine's throughput.
"""

import ast
import tempfile
from pathlib import Path

from repro.checker import CheckerMode, apply_annotation
from repro.core import EncoderConfig, LossKind, TrainingConfig, TypilusPipeline
from repro.corpus import CorpusSynthesizer, DatasetConfig, SynthesisConfig, TypeAnnotationDataset
from repro.engine import AnnotatorConfig, ProjectAnnotator
from repro.graph import SymbolKey, SymbolKind, take_annotations


def main() -> None:
    print("training Typilus ...")
    dataset = TypeAnnotationDataset.synthetic(
        SynthesisConfig(num_files=48, seed=11),
        DatasetConfig(rarity_threshold=12),
    )
    pipeline = TypilusPipeline.fit(
        dataset,
        EncoderConfig(family="graph", hidden_dim=32, gnn_steps=3),
        loss_kind=LossKind.TYPILUS,
        training_config=TrainingConfig(epochs=6, graphs_per_batch=8),
    )

    with tempfile.TemporaryDirectory() as model_dir:
        # Persist and restore: the annotation pass below never retrains.
        pipeline.save(Path(model_dir) / "model")
        served = TypilusPipeline.load(Path(model_dir) / "model")

        # A "new project" the model has never seen: freshly synthesised files,
        # with their annotations stripped as the unannotated starting point.
        project = CorpusSynthesizer(SynthesisConfig(num_files=3, seed=999)).generate()
        originals: dict[str, dict] = {}
        working_sources: dict[str, str] = {}
        for entry in project:
            tree = ast.parse(entry.source)
            originals[entry.filename] = take_annotations(tree)
            working_sources[entry.filename] = ast.unparse(tree)

        annotator = ProjectAnnotator(
            served, AnnotatorConfig(use_type_checker=True, checker_mode=CheckerMode.STRICT)
        )
        report = annotator.annotate_sources(working_sources)
        print(
            f"engine pass: {report.num_symbols} symbols across {report.num_files} files "
            f"in {report.elapsed_seconds:.2f}s ({report.symbols_per_second:.0f} symbols/s)"
        )

        annotated_total = 0
        agreements = 0
        accepted_total = 0
        for file_report in report.files:
            working_source = working_sources[file_report.filename]
            suggestions = sorted(file_report.suggestions, key=lambda s: -s.confidence)
            accepted = 0
            for suggestion in suggestions:
                if suggestion.suggested_type is None or suggestion.confidence < 0.5:
                    continue
                try:
                    working_source = apply_annotation(
                        working_source,
                        suggestion.scope,
                        suggestion.name,
                        SymbolKind(suggestion.kind),
                        suggestion.suggested_type,
                    )
                except Exception:
                    continue
                accepted += 1
                key = SymbolKey(suggestion.scope, suggestion.name, SymbolKind(suggestion.kind))
                original_annotations = originals[file_report.filename]
                if key in original_annotations:
                    annotated_total += 1
                    if original_annotations[key] == suggestion.suggested_type:
                        agreements += 1
            accepted_total += accepted
            print(f"{file_report.filename}: accepted {accepted} suggestions")

    print(f"\naccepted {accepted_total} annotations across the project")
    if annotated_total:
        print(
            f"of the {annotated_total} symbols the original authors had annotated, "
            f"{agreements} ({100 * agreements / annotated_total:.0f}%) received the same type"
        )


if __name__ == "__main__":
    main()
