"""Project-scale annotation engine (the paper's Sec. 7 workflow, batched).

The engine layer turns a trained :class:`~repro.core.pipeline.TypilusPipeline`
into a project-level tool: :class:`ProjectAnnotator` takes a directory or an
in-memory file set and produces type suggestions, annotation-disagreement
reports and throughput metrics for the *whole project in one batched pass* —
every file's symbols are embedded together, scored with a single vectorized
kNN query and filtered through the optional type checker, each candidate
checked at its own symbol against one parsed and checked module per file.
Combined with pipeline persistence
(:meth:`~repro.core.pipeline.TypilusPipeline.save` /
:meth:`~repro.core.pipeline.TypilusPipeline.load`), this is the serving path:
train once, save, then annotate any number of projects without re-training.
"""

from repro.engine.annotator import (
    AnnotationCache,
    AnnotatorConfig,
    FileReport,
    ProjectAnnotator,
    ProjectReport,
    suggestion_from_payload,
    suggestion_to_payload,
)

__all__ = [
    "AnnotationCache",
    "AnnotatorConfig",
    "FileReport",
    "ProjectAnnotator",
    "ProjectReport",
    "suggestion_from_payload",
    "suggestion_to_payload",
]
