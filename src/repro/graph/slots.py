"""Annotation slots: where each symbol's annotation lives in a module's AST.

A symbol is named by its :class:`SymbolKey` — scope path, name and kind —
where scope paths join ``module`` with the enclosing class and function
names.  :class:`SlotIndex` walks a module's statements once and turns a key
into the places its annotation goes.  Every stage that reads or writes
annotations goes through it, so they agree on where an annotation lives:

* the graph builder reads and erases every annotation with
  :func:`take_annotations` before it builds a graph (Sec. 5.1);
* the checker filter writes each candidate into its symbol's slot and
  re-checks (Sec. 6.3; :mod:`repro.checker.incremental`);
* corpus augmentation writes inferred return types into unannotated
  ``def`` statements.
"""

from __future__ import annotations

import ast
from typing import NamedTuple, Optional

from repro.graph.nodes import SymbolKind

#: Name used for the function-return symbol inside a function scope.
RETURN_SYMBOL_NAME = "<return>"


class SymbolKey(NamedTuple):
    """Identifies a symbol across the original and the erased tree."""

    scope: str
    name: str
    kind: SymbolKind


class AnnotationRewriteError(ValueError):
    """Raised when a prediction cannot be written into the program.

    The symbol has no annotation slot, the prediction is not an expression,
    or the source does not parse.
    """


def parse_annotation(type_string: str) -> ast.expr:
    """Parse a predicted type as an annotation expression."""
    try:
        return ast.parse(type_string, mode="eval").body
    except SyntaxError as error:
        raise AnnotationRewriteError(f"prediction {type_string!r} is not a valid annotation") from error


class AnnotationSlot:
    """One place an annotation goes, inside top-level statement ``top``.

    ``member`` indexes the member of a top-level class holding the slot.  The
    slot is a parameter, a function's return, an annotated assignment, or a
    plain ``Assign`` at ``body[index]`` that filling turns into an
    ``AnnAssign``.
    """

    def __init__(self, node: ast.AST, top: int, member: Optional[int], body: Optional[list] = None,
                 index: int = -1, function: Optional[ast.FunctionDef | ast.AsyncFunctionDef] = None) -> None:
        self.node = node
        self.top = top
        self.member = member
        self.body = body
        self.index = index
        #: The ``def`` whose signature a parameter or return slot belongs to.
        self.function = function
        self._field = "returns" if node is function else "annotation"
        self._original: Optional[ast.expr] = None

    @property
    def target(self) -> Optional[ast.expr]:
        """The assigned target of a variable slot."""
        if isinstance(self.node, ast.AnnAssign):
            return self.node.target
        return self.node.targets[0] if isinstance(self.node, ast.Assign) else None

    def fill(self, annotation: ast.expr) -> None:
        node = self.node
        if isinstance(node, ast.Assign):
            target = node.targets[0]
            self.body[self.index] = ast.copy_location(
                ast.AnnAssign(target=target, annotation=annotation, value=node.value,
                              simple=int(isinstance(target, ast.Name))),
                node,
            )
        else:
            self._original = getattr(node, self._field)
            setattr(node, self._field, annotation)

    def clear(self) -> None:
        """Undo :meth:`fill`."""
        if isinstance(self.node, ast.Assign):
            self.body[self.index] = self.node
        else:
            setattr(self.node, self._field, self._original)


class SlotIndex:
    """Every annotation slot of a module by scope path, from one statement walk."""

    def __init__(self, tree: ast.Module) -> None:
        self.functions: dict[str, list[tuple[ast.FunctionDef | ast.AsyncFunctionDef, int, Optional[int]]]] = {}
        self.assignments: dict[str, list[AnnotationSlot]] = {}
        #: Single-target ``self.attr = ...`` statements with their enclosing class names.
        self.self_assignments: list[tuple[str, tuple[str, ...], AnnotationSlot]] = []
        #: ``(scope, slot)`` in source order: each ``def``'s return slot, scoped
        #: by the function itself, and each assignment slot.
        self.in_order: list[tuple[str, AnnotationSlot]] = []
        self._walk(tree.body, "module", (), None, None, top_class=False)

    def _walk(self, body: list, path: str, classes: tuple[str, ...], top: Optional[int],
              member: Optional[int], top_class: bool) -> None:
        for index, node in enumerate(body):
            unit_top = index if top is None else top
            unit_member = index if top_class else member
            if isinstance(node, ast.ClassDef):
                self._walk(node.body, f"{path}.{node.name}", classes + (node.name,), unit_top, unit_member,
                           top_class=top is None)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = f"{path}.{node.name}"
                self.functions.setdefault(scope, []).append((node, unit_top, unit_member))
                self.in_order.append((scope, AnnotationSlot(node, unit_top, unit_member, function=node)))
                self._walk(node.body, scope, classes, unit_top, unit_member, top_class=False)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                slot = AnnotationSlot(node, unit_top, unit_member, body, index)
                self.assignments.setdefault(path, []).append(slot)
                self.in_order.append((path, slot))
                if isinstance(node, ast.Assign) and len(node.targets) == 1 and is_self_attribute(node.targets[0]):
                    self.self_assignments.append((node.targets[0].attr, classes, slot))
            else:  # nested blocks: if/for/while/with/try/match bodies, in source order
                for _, value in ast.iter_fields(node):
                    if not isinstance(value, list):
                        continue
                    blocks = [value] if value and isinstance(value[0], ast.stmt) else [
                        item.body for item in value if isinstance(item, (ast.excepthandler, ast.match_case))]
                    for block in blocks:
                        self._walk(block, path, classes, unit_top, unit_member, top_class=False)

    def find(self, scope: str, name: str, kind: SymbolKind) -> list[AnnotationSlot]:
        """The slots that annotating symbol ``name`` of ``scope`` fills; raises if there are none.

        A parameter or return is annotated in every ``def`` with that scope
        path (redefinitions included).  A variable is annotated at its first
        single-target assignment in the scope.  A ``self.attr`` symbol, which
        lives in its class's scope, falls back to the first
        ``self.attr = ...`` outside other classes.
        """
        slots = self._find(scope, name, kind)
        if not slots:
            raise AnnotationRewriteError(f"could not locate symbol {name!r} in scope {scope!r}")
        return slots

    def _find(self, scope: str, name: str, kind: SymbolKind) -> list[AnnotationSlot]:
        if kind == SymbolKind.FUNCTION_RETURN:
            if name != RETURN_SYMBOL_NAME:
                return []
            return [AnnotationSlot(node, top, member, function=node)
                    for node, top, member in self.functions.get(scope, ())]
        if kind == SymbolKind.PARAMETER:
            return [AnnotationSlot(arg, top, member, function=node)
                    for node, top, member in self.functions.get(scope, ())
                    for arg in _parameters(node) if arg.arg == name]
        for slot in self.assignments.get(scope, ()):
            node = slot.node
            if (isinstance(node, ast.AnnAssign) or len(node.targets) == 1) and _names_symbol(slot.target, name):
                return [slot]
        if name.startswith("self."):
            attribute = name[len("self."):]
            for attr, classes, slot in self.self_assignments:
                if attr == attribute and (not classes or (len(classes) == 1 and f"module.{classes[0]}" == scope)):
                    return [slot]
        return []


def take_annotations(tree: ast.Module) -> dict[SymbolKey, str]:
    """Read every annotation of ``tree`` by symbol key and erase it in place.

    Parameters and returns are keyed by their function's scope.  A variable
    annotation ``x: T`` is keyed by the statement's scope and a ``self.attr:
    T`` one by the scope one level above it (the method's class).  When a
    key is annotated twice, the later annotation wins.  Erasure turns
    ``x: T = v`` into ``x = v`` and a bare ``x: T`` into ``x = None``, so
    the variable still occurs in the erased program.
    """
    annotations: dict[SymbolKey, str] = {}

    def take(scope: str, name: str, kind: SymbolKind, annotation: Optional[ast.expr]) -> None:
        if annotation is not None:
            annotations[SymbolKey(scope, name, kind)] = ast.unparse(annotation)

    for scope, slot in SlotIndex(tree).in_order:
        node = slot.node
        if slot.function is not None:
            for arg in _parameters(node):
                take(scope, arg.arg, SymbolKind.PARAMETER, arg.annotation)
                arg.annotation = None
            take(scope, RETURN_SYMBOL_NAME, SymbolKind.FUNCTION_RETURN, node.returns)
            node.returns = None
        elif isinstance(node, ast.AnnAssign):
            target = node.target
            if isinstance(target, ast.Name):
                take(scope, target.id, SymbolKind.VARIABLE, node.annotation)
            elif is_self_attribute(target):
                take(scope.rpartition(".")[0] or scope, f"self.{target.attr}", SymbolKind.VARIABLE, node.annotation)
            value = node.value if node.value is not None else ast.Constant(value=None)
            slot.body[slot.index] = ast.copy_location(ast.Assign(targets=[target], value=value), node)
    return annotations


def _parameters(function: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.arg]:
    """Every parameter of ``function``: positional-only, positional, keyword-only, ``*args``, ``**kw``."""
    args = function.args
    return [arg for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            if arg is not None]


def is_self_attribute(target: ast.expr) -> bool:
    return isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) and target.value.id == "self"


def _names_symbol(target: ast.expr, name: str) -> bool:
    if isinstance(target, ast.Name):
        return target.id == name
    return is_self_attribute(target) and f"self.{target.attr}" == name
