"""Edge labels of the program graph (Table 1 of the paper)."""

from __future__ import annotations

from enum import Enum


class EdgeKind(str, Enum):
    """The eight edge labels used in the Typilus graph representation."""

    #: connects two consecutive token nodes
    NEXT_TOKEN = "NEXT_TOKEN"
    #: connects syntax nodes to their children nodes and tokens
    CHILD = "CHILD"
    #: connects a variable-bound token to all potential next uses of the variable
    NEXT_MAY_USE = "NEXT_MAY_USE"
    #: connects a variable-bound token to its next lexical use
    NEXT_LEXICAL_USE = "NEXT_LEXICAL_USE"
    #: connects the right hand side of an assignment to its left hand side
    ASSIGNED_FROM = "ASSIGNED_FROM"
    #: connects return / yield statements to the enclosing function declaration
    RETURNS_TO = "RETURNS_TO"
    #: connects token and syntax nodes bound to a symbol to the symbol node
    OCCURRENCE_OF = "OCCURRENCE_OF"
    #: connects identifier tokens to the vocabulary nodes of their subtokens
    SUBTOKEN_OF = "SUBTOKEN_OF"


#: Groups used by the ablation study (Table 4).
SYNTACTIC_EDGES = frozenset({EdgeKind.NEXT_TOKEN, EdgeKind.CHILD})
DATAFLOW_USE_EDGES = frozenset({EdgeKind.NEXT_MAY_USE, EdgeKind.NEXT_LEXICAL_USE})
ALL_EDGE_KINDS = tuple(EdgeKind)
