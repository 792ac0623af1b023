"""Node categories of the program graph (Sec. 5.1 of the paper).

The graph contains four categories of nodes:

* **token** nodes — raw lexemes of the program;
* **non-terminal** nodes — syntax-tree nodes;
* **vocabulary** nodes — one per distinct subtoken, shared across the file;
* **symbol** nodes — one per unique symbol in the symbol table (variable,
  parameter, or function return slot).

Symbol nodes are the "supernodes" whose final GNN state becomes the type
embedding ``r_s`` of the symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional


class NodeKind(str, Enum):
    """The four node categories used by the graph representation."""

    TOKEN = "token"
    NON_TERMINAL = "non_terminal"
    VOCABULARY = "vocabulary"
    SYMBOL = "symbol"


class SymbolKind(str, Enum):
    """What language element a symbol node stands for.

    Table 3 of the paper breaks performance down by these kinds, so the kind
    is recorded on the symbol node at graph-construction time.
    """

    VARIABLE = "variable"
    PARAMETER = "parameter"
    FUNCTION_RETURN = "function_return"


def is_identifier_text(text: str) -> bool:
    """Whether a lexeme contributes subtokens (Eq. 7): starts like a name.

    The single source of truth for subtoken eligibility — used by the
    arena builder's subtoken pass and path extraction, so the two can never
    disagree.
    """
    return bool(text) and (text[0].isalpha() or text[0] == "_")


@dataclass
class SymbolInfo:
    """Supervision record attached to a symbol node.

    ``annotation`` holds the ground-truth type string collected *before*
    type erasure, or ``None`` when the symbol was unannotated in the source
    (such symbols are still prediction targets at inference time, but do not
    contribute to the supervised losses).
    """

    node_index: int
    name: str
    kind: SymbolKind
    scope: str
    annotation: Optional[str] = None
    lineno: int = -1
    occurrence_indices: list[int] = field(default_factory=list)

    @property
    def qualified_name(self) -> str:
        return f"{self.scope}::{self.name}" if self.scope else self.name

    @property
    def is_annotated(self) -> bool:
        return self.annotation is not None
