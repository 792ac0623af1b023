"""Build Typilus program graphs from Python source code.

The builder follows Sec. 5.1 of the paper.  For a single Python file it

1. parses the file and, in one walk over its annotation slots
   (:func:`~repro.graph.slots.take_annotations`), reads the ground-truth
   type annotations (parameters, returns, variable annotations) keyed by
   scope, name and symbol kind and *erases* them from the tree — the models
   must never see the thing they are asked to predict;
2. re-generates the erased source and parses it once more, so that AST
   positions match the erased text the tokens come from;
3. tokenises the erased source into **token** nodes with ``NEXT_TOKEN``
   edges;
4. walks the erased AST creating **non-terminal** nodes, ``CHILD`` edges,
   ``ASSIGNED_FROM`` and ``RETURNS_TO`` edges;
5. builds the symbol table: one **symbol** node per variable, parameter and
   function return, connected to every binding token and syntax node with
   ``OCCURRENCE_OF`` edges;
6. runs the dataflow analysis producing ``NEXT_LEXICAL_USE`` and
   ``NEXT_MAY_USE`` edges between occurrence tokens;
7. adds **vocabulary** nodes and ``SUBTOKEN_OF`` edges for identifier
   subtokens;
8. attaches the collected annotations to the symbol records.

Every step appends into one :class:`~repro.graph.flatgraph.FlatGraphBuilder`
arena; :meth:`GraphBuilder.build` freezes it into the
:class:`~repro.graph.flatgraph.FlatGraph` that every later stage reads.

A bare annotated declaration (``x: int`` with no value) is rewritten to
``x = None`` during erasure so the variable still occurs in the erased
program; this only affects the graph, never any executed code.
"""

from __future__ import annotations

import ast
import io
import tokenize as tokenize_module
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.graph.dataflow import NextMayUseAnalysis, UseEvent, compute_next_lexical_use
from repro.graph.edges import EdgeKind
from repro.graph.flatgraph import FlatGraph, FlatGraphBuilder, is_identifier_text
from repro.graph.nodes import NodeKind, SymbolInfo, SymbolKind
from repro.graph.slots import RETURN_SYMBOL_NAME, SymbolKey, take_annotations
from repro.graph.subtokens import split_identifier

#: Token types kept as token nodes (identifiers/keywords, operators, literals).
_KEPT_TOKEN_TYPES = {
    tokenize_module.NAME,
    tokenize_module.OP,
    tokenize_module.NUMBER,
    tokenize_module.STRING,
}

#: Python 3.12+ tokenizes an f-string into these kinds around its parts; absent before.
_FSTRING_START = getattr(tokenize_module, "FSTRING_START", None)
_FSTRING_END = getattr(tokenize_module, "FSTRING_END", None)


class GraphBuildError(ValueError):
    """Raised when a file cannot be parsed or its graph cannot be built."""


def kept_tokens(source: str) -> Iterator[tuple[str, tuple[int, int]]]:
    """``(text, (line, column))`` of every token kept as a token node, the same on every Python.

    Python 3.12 splits an f-string into ``FSTRING_START``, its literal parts,
    the braces and names of its fields and ``FSTRING_END``.  Each such run,
    nested f-strings included, is merged into the one string token earlier
    versions give: the literal's source text at its start position.
    """
    lines = io.StringIO(source).readlines()
    depth = 0
    for token in tokenize_module.generate_tokens(io.StringIO(source).readline):
        if token.type == _FSTRING_START:
            if depth == 0:
                start = token.start
            depth += 1
        elif token.type == _FSTRING_END:
            depth -= 1
            if depth == 0:
                (first, column), (last, end) = start, token.end
                text = "".join(lines[first - 1 : last])
                yield text[column : len(text) - len(lines[last - 1]) + end], start
        elif depth == 0 and token.type in _KEPT_TOKEN_TYPES and token.string:
            yield token.string, token.start


# ---------------------------------------------------------------------------
# Scopes
# ---------------------------------------------------------------------------


@dataclass
class _Scope:
    """A lexical scope with its locally defined symbols."""

    path: str
    parent: Optional["_Scope"]
    is_class: bool = False
    symbols: dict[str, SymbolInfo] = field(default_factory=dict)

    def resolve(self, name: str) -> Optional[SymbolInfo]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            # Class scopes are not visible from nested function scopes in
            # Python's name resolution, except for self.* symbols which we
            # address explicitly by their dotted name.
            scope = scope.parent
        return None


def _assigned_names(node: ast.AST) -> list[str]:
    """Names bound by assignment-like statements directly in a scope body.

    The names come in first-occurrence order, so symbol and node order do not
    depend on the string hash seed.  The traversal stops at nested function,
    class and lambda definitions so that names local to an inner scope are
    not hoisted into the outer one.
    """
    names: dict[str, None] = {}
    _collect_assigned_names(node, names, is_root=True)
    return list(names)


def _collect_assigned_names(node: ast.AST, names: dict[str, None], is_root: bool = False) -> None:
    if not is_root and isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
    ):
        return
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        names[node.id] = None
    for child in ast.iter_child_nodes(node):
        _collect_assigned_names(child, names)


# ---------------------------------------------------------------------------
# The builder
# ---------------------------------------------------------------------------


class GraphBuilder:
    """Builds :class:`~repro.graph.flatgraph.FlatGraph` program graphs from source.

    Parameters
    ----------
    include_edges:
        Optional subset of :class:`EdgeKind` to keep (used by the ablation
        experiments).  ``None`` keeps all edge kinds.
    """

    def __init__(self, include_edges: Optional[Iterable[EdgeKind]] = None) -> None:
        self.include_edges = set(include_edges) if include_edges is not None else None

    # -- public API --------------------------------------------------------------

    def build(self, source: str, filename: str = "<string>") -> FlatGraph:
        try:
            tree = ast.parse(source)
            annotations = take_annotations(tree)
            # Token positions must match the erased text, so it is parsed again.
            erased = ast.unparse(tree)
            tree = ast.parse(erased)
            arena = FlatGraphBuilder(filename=filename, source=erased)
            state = _BuildState(graph=arena, annotations=annotations)
            state.add_tokens(erased)
            state.walk_module(tree)
            state.run_dataflow()
            state.add_subtoken_edges()
            state.attach_annotations()
        except SyntaxError as error:
            raise GraphBuildError(f"cannot parse {filename}: {error}") from error
        except RecursionError as error:  # the parser and every AST walk recurse per nesting level
            raise GraphBuildError(f"cannot parse {filename}: nested too deeply ({error})") from error
        graph = arena.finish()
        graph.validate()

        if self.include_edges is not None:
            graph = graph.without_edges(set(EdgeKind) - self.include_edges)
        return graph

    def build_file(self, path: str) -> FlatGraph:
        with open(path, "r", encoding="utf-8") as handle:
            return self.build(handle.read(), filename=path)


@dataclass
class _FunctionContext:
    """Per-function bookkeeping used while walking the AST."""

    scope: _Scope
    node_index: int
    return_symbol: SymbolInfo


class _BuildState:
    """Mutable state of a single graph construction.

    ``graph`` is the :class:`FlatGraphBuilder` arena the walk appends nodes,
    edges and symbols into — no intermediate object graph is built.
    """

    def __init__(self, graph: FlatGraphBuilder, annotations: dict[SymbolKey, str]) -> None:
        self.graph = graph
        self.annotations = annotations
        self.token_index_at: dict[tuple[int, int], int] = {}
        self.token_order: list[int] = []
        self.vocabulary_nodes: dict[str, int] = {}
        self.scopes: list[tuple[_Scope, list[ast.stmt]]] = []
        self.function_stack: list[_FunctionContext] = []
        self.scope_stack: list[_Scope] = []

    # -- token pass ---------------------------------------------------------------

    def add_tokens(self, source: str) -> None:
        graph = self.graph
        previous: Optional[int] = None
        try:
            tokens = list(kept_tokens(source))
        except tokenize_module.TokenError as error:  # pragma: no cover - defensive
            raise GraphBuildError(f"tokenisation failed: {error}") from error
        for text, (lineno, col) in tokens:
            index = graph.add_node(NodeKind.TOKEN, text, lineno=lineno, col=col)
            self.token_index_at[(lineno, col)] = index
            self.token_order.append(index)
            if previous is not None:
                graph.add_edge(EdgeKind.NEXT_TOKEN, previous, index)
            previous = index

    def token_at(self, lineno: int, col: int) -> Optional[int]:
        return self.token_index_at.get((lineno, col))

    # -- scope / symbol helpers -----------------------------------------------------

    @property
    def current_scope(self) -> _Scope:
        return self.scope_stack[-1]

    def _declare_symbol(
        self, name: str, kind: SymbolKind, scope: _Scope, lineno: int = -1
    ) -> SymbolInfo:
        if name in scope.symbols:
            return scope.symbols[name]
        info = self.graph.add_symbol(name, kind, scope.path, lineno=lineno)
        scope.symbols[name] = info
        return info

    def _record_occurrence(self, symbol: SymbolInfo, node_index: int) -> None:
        self.graph.add_edge(EdgeKind.OCCURRENCE_OF, node_index, symbol.node_index)
        symbol.occurrence_indices.append(node_index)

    # -- AST walk ---------------------------------------------------------------------

    def walk_module(self, tree: ast.Module) -> None:
        module_scope = _Scope(path="module", parent=None)
        self.scope_stack.append(module_scope)
        self.scopes.append((module_scope, list(tree.body)))
        for name in _assigned_names(tree):
            self._declare_symbol(name, SymbolKind.VARIABLE, module_scope)
        module_node = self.graph.add_node(NodeKind.NON_TERMINAL, "Module")
        for statement in tree.body:
            child_index = self.visit(statement)
            self.graph.add_edge(EdgeKind.CHILD, module_node, child_index)
        self.scope_stack.pop()

    def visit(self, node: ast.AST) -> int:
        """Create the non-terminal node for ``node`` and recurse into children."""
        label = type(node).__name__
        lineno = getattr(node, "lineno", -1)
        col = getattr(node, "col_offset", -1)
        node_index = self.graph.add_node(NodeKind.NON_TERMINAL, label, lineno=lineno, col=col)

        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._visit_function(node, node_index)
        elif isinstance(node, ast.ClassDef):
            self._visit_class(node, node_index)
        else:
            self._visit_generic(node, node_index)

        self._add_node_specific_edges(node, node_index)
        return node_index

    def _visit_children(self, node: ast.AST, node_index: int) -> None:
        for child in ast.iter_child_nodes(node):
            child_index = self.visit(child)
            self.graph.add_edge(EdgeKind.CHILD, node_index, child_index)

    def _visit_generic(self, node: ast.AST, node_index: int) -> None:
        if isinstance(node, ast.Name):
            self._handle_name(node, node_index)
        elif isinstance(node, ast.Attribute):
            self._handle_attribute(node, node_index)
        elif isinstance(node, ast.arg):
            self._handle_parameter(node, node_index)
        self._link_token(node, node_index)
        self._visit_children(node, node_index)

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef, node_index: int) -> None:
        enclosing = self.current_scope
        scope = _Scope(path=f"{enclosing.path}.{node.name}", parent=enclosing)
        # Parameters.
        args = node.args
        all_args = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        if args.vararg is not None:
            all_args.append(args.vararg)
        if args.kwarg is not None:
            all_args.append(args.kwarg)
        for arg in all_args:
            self._declare_symbol(arg.arg, SymbolKind.PARAMETER, scope, lineno=arg.lineno)
        # Local variables.
        for name in _assigned_names(node):
            if name not in scope.symbols:
                self._declare_symbol(name, SymbolKind.VARIABLE, scope, lineno=node.lineno)
        # Return symbol; the function definition node is one of its occurrences.
        return_symbol = self._declare_symbol(
            RETURN_SYMBOL_NAME, SymbolKind.FUNCTION_RETURN, scope, lineno=node.lineno
        )
        self._record_occurrence(return_symbol, node_index)
        name_token = self.token_at(node.lineno, node.col_offset + len("def "))
        if name_token is not None:
            self._record_occurrence(return_symbol, name_token)

        context = _FunctionContext(scope=scope, node_index=node_index, return_symbol=return_symbol)
        self.function_stack.append(context)
        self.scope_stack.append(scope)
        self.scopes.append((scope, list(node.body)))
        self._visit_children(node, node_index)
        self.scope_stack.pop()
        self.function_stack.pop()

    def _visit_class(self, node: ast.ClassDef, node_index: int) -> None:
        enclosing = self.current_scope
        scope = _Scope(path=f"{enclosing.path}.{node.name}", parent=enclosing, is_class=True)
        for name in _assigned_names(node):
            self._declare_symbol(name, SymbolKind.VARIABLE, scope, lineno=node.lineno)
        self.scope_stack.append(scope)
        self._visit_children(node, node_index)
        self.scope_stack.pop()

    # -- per-node-type edges -----------------------------------------------------------

    def _handle_name(self, node: ast.Name, node_index: int) -> None:
        symbol = self.current_scope.resolve(node.id)
        if symbol is None:
            return
        self._record_occurrence(symbol, node_index)
        token = self.token_at(node.lineno, node.col_offset)
        if token is not None:
            self._record_occurrence(symbol, token)

    def _handle_attribute(self, node: ast.Attribute, node_index: int) -> None:
        if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
            return
        class_scope = self._enclosing_class_scope()
        if class_scope is None:
            return
        dotted = f"self.{node.attr}"
        symbol = class_scope.symbols.get(dotted)
        if symbol is None and isinstance(node.ctx, ast.Store):
            symbol = self._declare_symbol(dotted, SymbolKind.VARIABLE, class_scope, lineno=node.lineno)
        if symbol is not None:
            self._record_occurrence(symbol, node_index)

    def _handle_parameter(self, node: ast.arg, node_index: int) -> None:
        symbol = self.current_scope.resolve(node.arg)
        if symbol is None:
            return
        self._record_occurrence(symbol, node_index)
        token = self.token_at(node.lineno, node.col_offset)
        if token is not None:
            self._record_occurrence(symbol, token)

    def _enclosing_class_scope(self) -> Optional[_Scope]:
        for scope in reversed(self.scope_stack):
            if scope.is_class:
                return scope
        return None

    def _link_token(self, node: ast.AST, node_index: int) -> None:
        """Connect a leaf-ish AST node to the token at its source position."""
        if isinstance(node, (ast.Name, ast.Constant, ast.arg)):
            lineno = getattr(node, "lineno", None)
            col = getattr(node, "col_offset", None)
            if lineno is None or col is None:
                return
            token = self.token_at(lineno, col)
            if token is not None:
                self.graph.add_edge(EdgeKind.CHILD, node_index, token)

    def _add_node_specific_edges(self, node: ast.AST, node_index: int) -> None:
        graph = self.graph
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)) and self.function_stack:
            context = self.function_stack[-1]
            graph.add_edge(EdgeKind.RETURNS_TO, node_index, context.node_index)
            self._record_occurrence(context.return_symbol, node_index)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            # ASSIGNED_FROM: value flows into each target.  The child
            # non-terminal nodes were created during the recursive visit; we
            # find them by scanning the CHILD edges added from this node.
            self._add_assigned_from(node, node_index)

    def _add_assigned_from(self, node: ast.Assign | ast.AugAssign, node_index: int) -> None:
        graph = self.graph
        children = [target for source, target in graph.edge_pairs(EdgeKind.CHILD) if source == node_index]
        if not children:
            return
        child_nodes = [(index, graph.node_kind_of(index), graph.node_text_of(index)) for index in children]
        value_label = type(node.value).__name__
        value_candidates = [
            index for index, kind, text in child_nodes if kind == NodeKind.NON_TERMINAL and text == value_label
        ]
        if not value_candidates:
            return
        value_index = value_candidates[-1]
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        target_labels = {type(target).__name__ for target in targets}
        for index, kind, text in child_nodes:
            if index == value_index or kind != NodeKind.NON_TERMINAL:
                continue
            if text in target_labels:
                graph.add_edge(EdgeKind.ASSIGNED_FROM, value_index, index)

    # -- dataflow pass ---------------------------------------------------------------------

    def run_dataflow(self) -> None:
        next_lexical: set[tuple[int, int]] = set()
        next_may_use: set[tuple[int, int]] = set()
        for scope, body in self.scopes:
            events_in_scope: list[UseEvent] = []
            initial_last: dict[str, set[int]] = {}
            # Parameter definitions are the first "use" of each parameter, so
            # they enter both relations ahead of the body.
            for symbol in scope.symbols.values():
                if symbol.kind != SymbolKind.PARAMETER:
                    continue
                token_occurrences = [
                    index
                    for index in symbol.occurrence_indices
                    if self.graph.node_kind_of(index) == NodeKind.TOKEN
                ]
                if not token_occurrences:
                    continue
                first = token_occurrences[0]
                events_in_scope.append(
                    UseEvent(
                        name=symbol.qualified_name,
                        occurrence_id=first,
                        lineno=self.graph.node_line_of(first),
                        col=self.graph.node_col_of(first),
                    )
                )
                initial_last[symbol.qualified_name] = {first}

            def uses_of(node: ast.AST, scope: _Scope = scope, sink: list[UseEvent] = events_in_scope) -> list[UseEvent]:
                events = self._uses_in(node, scope)
                sink.extend(events)
                return events

            analysis = NextMayUseAnalysis(uses_of)
            analysis.analyse_body(body, initial=initial_last)
            next_may_use.update(analysis.pairs)
            next_lexical.update(compute_next_lexical_use(events_in_scope))

        for source_token, target_token in sorted(next_lexical):
            self.graph.add_edge(EdgeKind.NEXT_LEXICAL_USE, source_token, target_token)
        for source_token, target_token in sorted(next_may_use):
            self.graph.add_edge(EdgeKind.NEXT_MAY_USE, source_token, target_token)

    def _uses_in(self, node: ast.AST, scope: _Scope) -> list[UseEvent]:
        """Lexically ordered occurrences of resolvable names within ``node``."""
        events: list[UseEvent] = []
        for child in ast.walk(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)) and child is not node:
                continue
            if not isinstance(child, ast.Name):
                continue
            symbol = scope.resolve(child.id)
            if symbol is None:
                continue
            token = self.token_at(child.lineno, child.col_offset)
            if token is None:
                continue
            events.append(
                UseEvent(
                    name=symbol.qualified_name,
                    occurrence_id=token,
                    lineno=child.lineno,
                    col=child.col_offset,
                )
            )
        events.sort(key=lambda event: (event.lineno, event.col))
        return events

    # -- subtokens --------------------------------------------------------------------------

    def add_subtoken_edges(self) -> None:
        graph = self.graph
        from repro.graph.flatgraph import NODE_KIND_CODES

        eligible = (NODE_KIND_CODES[NodeKind.TOKEN], NODE_KIND_CODES[NodeKind.SYMBOL])
        # Split each interned lexeme once; nodes sharing a text share the result.
        splits_by_text_id: dict[int, list[str]] = {}
        identifier_nodes = [
            (index, text_id)
            for index, (kind_code, text_id) in enumerate(
                zip(graph.iter_kind_codes(), graph.iter_text_ids())
            )
            if kind_code in eligible and is_identifier_text(graph.strings[text_id])
        ]
        for node_index, text_id in identifier_nodes:
            subtokens = splits_by_text_id.get(text_id)
            if subtokens is None:
                subtokens = split_identifier(graph.strings[text_id])
                splits_by_text_id[text_id] = subtokens
            for subtoken in subtokens:
                vocab_index = self.vocabulary_nodes.get(subtoken)
                if vocab_index is None:
                    vocab_index = graph.add_node(NodeKind.VOCABULARY, subtoken)
                    self.vocabulary_nodes[subtoken] = vocab_index
                graph.add_edge(EdgeKind.SUBTOKEN_OF, node_index, vocab_index)

    # -- annotations --------------------------------------------------------------------------

    def attach_annotations(self) -> None:
        for symbol in self.graph.symbols:
            key = SymbolKey(symbol.scope, symbol.name, symbol.kind)
            if key in self.annotations:
                symbol.annotation = self.annotations[key]


def build_graph(source: str, filename: str = "<string>", include_edges: Optional[Iterable[EdgeKind]] = None) -> FlatGraph:
    """Convenience wrapper: build the graph of one source string."""
    return GraphBuilder(include_edges=include_edges).build(source, filename=filename)
