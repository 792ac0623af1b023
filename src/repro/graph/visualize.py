"""Graph export utilities (DOT format), useful for debugging and examples."""

from __future__ import annotations

from repro.graph.edges import ALL_EDGE_KINDS
from repro.graph.flatgraph import NODE_KIND_ORDER, FlatGraph
from repro.graph.nodes import NodeKind

_NODE_STYLE = {
    NodeKind.TOKEN: 'shape=box, style=filled, fillcolor="#dbe9ff"',
    NodeKind.NON_TERMINAL: 'shape=ellipse, style=filled, fillcolor="#ffe7c2"',
    NodeKind.VOCABULARY: 'shape=diamond, style=filled, fillcolor="#e4ffd9"',
    NodeKind.SYMBOL: 'shape=hexagon, style=filled, fillcolor="#ffd9ec"',
}

_EDGE_COLOURS = {
    "NEXT_TOKEN": "#888888",
    "CHILD": "#2b6cb0",
    "NEXT_MAY_USE": "#c05621",
    "NEXT_LEXICAL_USE": "#b7791f",
    "ASSIGNED_FROM": "#276749",
    "RETURNS_TO": "#702459",
    "OCCURRENCE_OF": "#553c9a",
    "SUBTOKEN_OF": "#319795",
}


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(graph: FlatGraph, max_label_length: int = 24) -> str:
    """Render a program graph as Graphviz DOT.

    Figure 3 of the paper shows a small example graph; this export makes it
    easy to regenerate similar figures from any snippet.  The output is
    deterministic for a given graph: nodes in index order, edges grouped by
    :class:`EdgeKind` declaration order with each kind's pairs in insertion
    order.
    """
    lines = ["digraph code_graph {", "  rankdir=LR;", "  node [fontsize=10];"]
    for index, (text, kind_code) in enumerate(zip(graph.node_texts(), graph.node_kind.tolist())):
        label = text if len(text) <= max_label_length else text[: max_label_length - 1] + "…"
        style = _NODE_STYLE[NODE_KIND_ORDER[kind_code]]
        lines.append(f'  n{index} [label="{_escape(label)}", {style}];')
    for kind in ALL_EDGE_KINDS:
        colour = _EDGE_COLOURS.get(kind.value, "#000000")
        for source, target in graph.edge_array(kind).T.tolist():
            lines.append(
                f'  n{source} -> n{target} [label="{kind.value}", color="{colour}", fontsize=8];'
            )
    lines.append("}")
    return "\n".join(lines)


def write_dot(graph: FlatGraph, path: str) -> str:
    """Write :func:`to_dot` output to ``path`` and return the path."""
    dot = to_dot(graph)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dot)
    return path
