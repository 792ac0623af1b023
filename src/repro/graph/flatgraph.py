"""Columnar program-graph storage: :class:`FlatGraph`, the one graph type.

Sec. 5.1 of the paper defines one program graph per file: four node
categories, the Table 1 edge labels and one record per symbol.  Every layer
downstream of extraction — featurization, batch assembly, dataset
persistence, the annotation engine — reads that graph as a handful of flat
arrays rather than one heap object per node:

* an **interned string table** — every node text, symbol name, scope and
  annotation appears exactly once; nodes refer to strings by ``int32`` id;
* ``int32`` **node columns** — kind code, text id, line, column — one entry
  per node, laid out struct-of-arrays;
* one contiguous ``(2, E_k) int32`` **edge array** per
  :class:`~repro.graph.edges.EdgeKind` (insertion order preserved);
* **struct-of-arrays symbol storage** — node index, name id, kind code,
  scope id, annotation id (``-1`` for unannotated), line number — plus a
  CSR pair (``occurrence_ids`` / ``occurrence_splits``) holding every
  symbol's occurrence node indices.

:class:`FlatGraphBuilder` is the *arena* the graph builder (and any code
that builds a graph by hand) appends into; :meth:`FlatGraphBuilder.finish`
freezes the arena into an immutable :class:`FlatGraph`.  Per-symbol
:class:`~repro.graph.nodes.SymbolInfo` records are derived from the symbol
columns on each read (:attr:`FlatGraph.symbols`): a graph holds nothing but
its columns, strings and source, so :attr:`FlatGraph.nbytes` is all it costs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional

import numpy as np

from repro.graph.edges import EdgeKind
from repro.graph.nodes import NodeKind, SymbolInfo, SymbolKind, is_identifier_text

__all__ = [
    "FlatGraph",
    "FlatGraphBuilder",
    "StringTable",
    "is_identifier_text",
]

#: Stable integer codes for node / symbol kinds (enum declaration order).
NODE_KIND_ORDER: tuple[NodeKind, ...] = tuple(NodeKind)
NODE_KIND_CODES: dict[NodeKind, int] = {kind: code for code, kind in enumerate(NODE_KIND_ORDER)}
SYMBOL_KIND_ORDER: tuple[SymbolKind, ...] = tuple(SymbolKind)
SYMBOL_KIND_CODES: dict[SymbolKind, int] = {kind: code for code, kind in enumerate(SYMBOL_KIND_ORDER)}

#: Sentinel annotation id for "symbol has no ground-truth annotation".
NO_ANNOTATION = -1

_EMPTY_EDGES = np.zeros((2, 0), dtype=np.int32)


class StringTable:
    """Append-only intern table: text → dense ``int32`` id."""

    __slots__ = ("strings", "_index")

    def __init__(self, strings: Optional[Iterable[str]] = None) -> None:
        self.strings: list[str] = list(strings) if strings is not None else []
        self._index: dict[str, int] = {text: i for i, text in enumerate(self.strings)}

    def intern(self, text: str) -> int:
        index = self._index.get(text)
        if index is None:
            index = len(self.strings)
            self.strings.append(text)
            self._index[text] = index
        return index

    def __len__(self) -> int:
        return len(self.strings)

    def __getitem__(self, index: int) -> str:
        return self.strings[index]


@dataclass(eq=False)
class FlatGraph:
    """Columnar storage of one file's program graph.

    All arrays are ``int32``; ``strings`` is the intern table every text
    column indexes into.  Instances are treated as immutable — consumers
    take zero-copy views of the arrays and never write to them.  Equality
    is identity (``eq=False``): an auto-generated field-wise ``__eq__``
    would hit NumPy's ambiguous array truthiness; compare graphs through
    their serialized payloads (:func:`repro.corpus.serialize.graph_to_payload`)
    instead.
    """

    filename: str
    source: str
    strings: tuple[str, ...]
    node_kind: np.ndarray  # (N,) NodeKind codes
    node_text: np.ndarray  # (N,) string-table ids
    node_line: np.ndarray  # (N,)
    node_col: np.ndarray  # (N,)
    edges: dict[EdgeKind, np.ndarray]  # kind -> (2, E_k), rows = (source, target)
    symbol_node: np.ndarray  # (S,) node index of each symbol node
    symbol_name: np.ndarray  # (S,) string-table ids
    symbol_kind: np.ndarray  # (S,) SymbolKind codes
    symbol_scope: np.ndarray  # (S,) string-table ids
    symbol_annotation: np.ndarray  # (S,) string-table ids, NO_ANNOTATION for none
    symbol_line: np.ndarray  # (S,)
    occurrence_ids: np.ndarray  # (sum of occurrences,) node indices, CSR values
    occurrence_splits: np.ndarray  # (S + 1,) CSR row splits

    # -- sizes ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return int(self.node_kind.shape[0])

    @property
    def num_symbols(self) -> int:
        return int(self.symbol_node.shape[0])

    @property
    def num_edges(self) -> int:
        return sum(int(pairs.shape[1]) for pairs in self.edges.values())

    @property
    def nbytes(self) -> int:
        """Resident bytes of this graph's columns, strings and source text.

        The array columns are exact (``ndarray.nbytes``); strings count one
        byte per character — an underestimate of CPython object headers but
        proportional to the real footprint, which is what a byte-bounded
        cache needs to make eviction decisions.
        """
        total = (
            self.node_kind.nbytes
            + self.node_text.nbytes
            + self.node_line.nbytes
            + self.node_col.nbytes
            + self.symbol_node.nbytes
            + self.symbol_name.nbytes
            + self.symbol_kind.nbytes
            + self.symbol_scope.nbytes
            + self.symbol_annotation.nbytes
            + self.symbol_line.nbytes
            + self.occurrence_ids.nbytes
            + self.occurrence_splits.nbytes
        )
        total += sum(pairs.nbytes for pairs in self.edges.values())
        total += len(self.source)
        total += sum(len(text) for text in self.strings)
        return int(total)

    # -- node queries -----------------------------------------------------------

    def node_texts(self) -> list[str]:
        """Every node's text, resolved through the intern table."""
        return [self.strings[i] for i in self.node_text.tolist()]

    def node_indices_of_kind(self, kind: NodeKind) -> np.ndarray:
        return np.flatnonzero(self.node_kind == NODE_KIND_CODES[kind])

    def count_of_kind(self, kind: NodeKind) -> int:
        return int(np.count_nonzero(self.node_kind == NODE_KIND_CODES[kind]))

    def edge_array(self, kind: EdgeKind) -> np.ndarray:
        """The ``(2, E)`` array of one edge kind (empty view when absent)."""
        return self.edges.get(kind, _EMPTY_EDGES)

    # -- symbol queries ----------------------------------------------------------

    @property
    def symbols(self) -> list[SymbolInfo]:
        """One :class:`SymbolInfo` per symbol, in symbol-column order.

        Built from the columns on every read and not kept, so a cached graph
        never grows past :attr:`nbytes`; read it once per pass.
        """
        strings = self.strings
        nodes = self.symbol_node.tolist()
        names = self.symbol_name.tolist()
        kinds = self.symbol_kind.tolist()
        scopes = self.symbol_scope.tolist()
        annotations = self.symbol_annotation.tolist()
        lines = self.symbol_line.tolist()
        occurrences = self.occurrence_ids.tolist()
        splits = self.occurrence_splits.tolist()
        return [
            SymbolInfo(
                node_index=nodes[i],
                name=strings[names[i]],
                kind=SYMBOL_KIND_ORDER[kinds[i]],
                scope=strings[scopes[i]],
                annotation=None if annotations[i] == NO_ANNOTATION else strings[annotations[i]],
                lineno=lines[i],
                occurrence_indices=occurrences[splits[i] : splits[i + 1]],
            )
            for i in range(len(nodes))
        ]

    def annotated_symbols(self) -> list[SymbolInfo]:
        return [symbol for symbol in self.symbols if symbol.is_annotated]

    def find_symbol(
        self, name: str, scope: Optional[str] = None, kind: Optional[SymbolKind] = None
    ) -> Optional[SymbolInfo]:
        """The first symbol called ``name`` (optionally in ``scope``/of ``kind``)."""
        for symbol in self.symbols:
            if symbol.name == name and scope in (None, symbol.scope) and kind in (None, symbol.kind):
                return symbol
        return None

    def summary(self) -> dict[str, int]:
        """Small statistics dictionary used by corpus reporting."""
        return {
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "tokens": self.count_of_kind(NodeKind.TOKEN),
            "non_terminals": self.count_of_kind(NodeKind.NON_TERMINAL),
            "vocabulary": self.count_of_kind(NodeKind.VOCABULARY),
            "symbols": self.num_symbols,
            "annotated_symbols": len(self.annotated_symbols()),
        }

    # -- derived structures -------------------------------------------------------

    def node_subtokens(self):
        """Yield ``(node_index, subtokens)`` per node, splitting each unique
        lexeme once per call (the memo lives only as long as the call)."""
        from repro.graph.subtokens import split_identifier

        splits: dict[int, list[str]] = {}
        for node_index, text_id in enumerate(self.node_text.tolist()):
            subtokens = splits.get(text_id)
            if subtokens is None:
                subtokens = splits[text_id] = split_identifier(self.strings[text_id])
            yield node_index, subtokens

    def without_edges(self, excluded: Iterable[EdgeKind]) -> "FlatGraph":
        """A copy sharing all arrays except the excluded edge kinds."""
        excluded_set = set(excluded)
        return replace(
            self,
            edges={kind: pairs for kind, pairs in self.edges.items() if kind not in excluded_set},
        )

    def with_filename(self, filename: str) -> "FlatGraph":
        """This graph relabelled (content-addressed cache hits on renames)."""
        if filename == self.filename:
            return self
        return replace(self, filename=filename)

    # -- consistency --------------------------------------------------------------

    def validate(self) -> None:
        """Vectorised consistency check; raises ``ValueError`` on violation.

        Every code and id is range-checked, so nothing that gathers through
        a column (features through ``node_text``, records through the
        symbol columns) can read a wrong row: a text id of ``-1`` would
        otherwise silently resolve to the table's last string.
        """
        num_nodes = self.num_nodes
        num_strings = len(self.strings)
        for kind, pairs in self.edges.items():
            if not _within(pairs, 0, num_nodes):
                raise ValueError(f"dangling edge {kind.value} in {self.filename}")
        for what, column, low, high in (
            ("node kind code", self.node_kind, 0, len(NODE_KIND_ORDER)),
            ("node text id", self.node_text, 0, num_strings),
            ("symbol kind code", self.symbol_kind, 0, len(SYMBOL_KIND_ORDER)),
            ("symbol name id", self.symbol_name, 0, num_strings),
            ("symbol scope id", self.symbol_scope, 0, num_strings),
            ("symbol annotation id", self.symbol_annotation, NO_ANNOTATION, num_strings),
            ("symbol occurrence node", self.occurrence_ids, 0, num_nodes),
        ):
            if not _within(column, low, high):
                raise ValueError(f"{what} out of range in {self.filename}")
        if not _within(self.symbol_node, 0, num_nodes):
            raise ValueError(f"symbol node index out of range in {self.filename}")
        stray = np.flatnonzero(self.node_kind[self.symbol_node] != NODE_KIND_CODES[NodeKind.SYMBOL])
        if stray.size:
            name = self.strings[int(self.symbol_name[stray[0]])]
            raise ValueError(f"symbol {name} does not point at a symbol node")


def _within(values: np.ndarray, low: int, high: int) -> bool:
    """Whether every value lies in ``[low, high)`` (vacuously true when empty)."""
    return values.size == 0 or (int(values.min()) >= low and int(values.max()) < high)


class FlatGraphBuilder:
    """The mutable arena a single graph construction appends into.

    The construction API is ``add_node`` / ``add_edge`` / ``add_symbol``;
    it stores columns of plain ints and an intern table instead of per-node
    objects.  Symbols are accumulated as
    :class:`SymbolInfo` records (they are few and the AST walk mutates them
    freely); :meth:`finish` freezes everything into a :class:`FlatGraph`.
    """

    def __init__(self, filename: str = "<unknown>", source: str = "") -> None:
        self.filename = filename
        self.source = source
        self.strings = StringTable()
        self._node_kind: list[int] = []
        self._node_text: list[int] = []
        self._node_line: list[int] = []
        self._node_col: list[int] = []
        self._edges: dict[EdgeKind, list[tuple[int, int]]] = {}
        self.symbols: list[SymbolInfo] = []

    # -- construction -------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._node_kind)

    def add_node(self, kind: NodeKind, text: str, lineno: int = -1, col: int = -1) -> int:
        index = len(self._node_kind)
        self._node_kind.append(NODE_KIND_CODES[kind])
        self._node_text.append(self.strings.intern(text))
        self._node_line.append(lineno)
        self._node_col.append(col)
        return index

    def add_edge(self, kind: EdgeKind, source: int, target: int) -> None:
        if source == target:
            return
        if not (0 <= source < self.num_nodes and 0 <= target < self.num_nodes):
            raise IndexError(
                f"edge {kind.value} references missing node ({source}, {target}); "
                f"graph has {self.num_nodes} nodes"
            )
        self._edges.setdefault(kind, []).append((source, target))

    def add_symbol(
        self,
        name: str,
        kind: SymbolKind,
        scope: str,
        annotation: Optional[str] = None,
        lineno: int = -1,
    ) -> SymbolInfo:
        node_index = self.add_node(NodeKind.SYMBOL, name, lineno=lineno)
        info = SymbolInfo(
            node_index=node_index,
            name=name,
            kind=kind,
            scope=scope,
            annotation=annotation,
            lineno=lineno,
        )
        self.symbols.append(info)
        return info

    # -- read access during the build ------------------------------------------------

    def node_kind_of(self, index: int) -> NodeKind:
        return NODE_KIND_ORDER[self._node_kind[index]]

    def node_text_of(self, index: int) -> str:
        return self.strings[self._node_text[index]]

    def node_line_of(self, index: int) -> int:
        return self._node_line[index]

    def node_col_of(self, index: int) -> int:
        return self._node_col[index]

    def edge_pairs(self, kind: EdgeKind) -> list[tuple[int, int]]:
        """The live pair list of one edge kind (read-only by convention)."""
        return self._edges.get(kind, [])

    def iter_kind_codes(self) -> list[int]:
        return self._node_kind

    def iter_text_ids(self) -> list[int]:
        return self._node_text

    # -- freezing ----------------------------------------------------------------------

    def finish(self) -> FlatGraph:
        """Freeze the arena into an immutable :class:`FlatGraph`."""
        edges = {
            kind: np.asarray(pairs, dtype=np.int32).reshape(len(pairs), 2).T.copy()
            for kind, pairs in self._edges.items()
            if pairs
        }
        num_symbols = len(self.symbols)
        symbol_node = np.zeros(num_symbols, dtype=np.int32)
        symbol_name = np.zeros(num_symbols, dtype=np.int32)
        symbol_kind = np.zeros(num_symbols, dtype=np.int32)
        symbol_scope = np.zeros(num_symbols, dtype=np.int32)
        symbol_annotation = np.full(num_symbols, NO_ANNOTATION, dtype=np.int32)
        symbol_line = np.zeros(num_symbols, dtype=np.int32)
        splits = np.zeros(num_symbols + 1, dtype=np.int32)
        occurrence_chunks: list[list[int]] = []
        for position, symbol in enumerate(self.symbols):
            symbol_node[position] = symbol.node_index
            symbol_name[position] = self.strings.intern(symbol.name)
            symbol_kind[position] = SYMBOL_KIND_CODES[symbol.kind]
            symbol_scope[position] = self.strings.intern(symbol.scope)
            if symbol.annotation is not None:
                symbol_annotation[position] = self.strings.intern(symbol.annotation)
            symbol_line[position] = symbol.lineno
            occurrence_chunks.append(symbol.occurrence_indices)
            splits[position + 1] = splits[position] + len(symbol.occurrence_indices)
        occurrence_ids = (
            np.asarray([index for chunk in occurrence_chunks for index in chunk], dtype=np.int32)
            if occurrence_chunks
            else np.zeros(0, dtype=np.int32)
        )
        return FlatGraph(
            filename=self.filename,
            source=self.source,
            strings=tuple(self.strings.strings),
            node_kind=np.asarray(self._node_kind, dtype=np.int32),
            node_text=np.asarray(self._node_text, dtype=np.int32),
            node_line=np.asarray(self._node_line, dtype=np.int32),
            node_col=np.asarray(self._node_col, dtype=np.int32),
            edges=edges,
            symbol_node=symbol_node,
            symbol_name=symbol_name,
            symbol_kind=symbol_kind,
            symbol_scope=symbol_scope,
            symbol_annotation=symbol_annotation,
            symbol_line=symbol_line,
            occurrence_ids=occurrence_ids,
            occurrence_splits=splits,
        )
