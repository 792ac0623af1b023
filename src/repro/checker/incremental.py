"""Checked modules: parse a file once, re-check only what an annotation can affect.

The protocol of Sec. 6.3 inserts one candidate type at one symbol and re-runs
the type checker on the program.  Re-parsing and re-checking the whole file
for every candidate repeats work the candidate cannot change, so a
:class:`CheckedModule` parses the file once, builds its
:class:`~repro.checker.env.ModuleContext` once and checks it unit by unit
(:func:`~repro.checker.checker.iter_units`), keeping each unit's errors and
the module-scope bindings in force before it.

A candidate is then set into its annotation slot in place — found by
:class:`~repro.graph.slots.SlotIndex`, the index the graph builder reads
each label through — the one context entry the slot feeds (a function
signature, a class or a declared global) is recomputed, and only the units
that can observe the change are re-checked:

* the units holding the slot;
* units naming a changed function, method or attribute (a call, an
  attribute access, or a same-named ``def`` at any depth, which the checker
  binds to the module's signature);
* units naming a module-scope binding that differs from the baseline's at
  that point.  A re-checked module-level statement may bind differently
  (``x = f()`` after ``f``'s return changed), so the bindings are compared
  after every re-checked unit.

Each unit reads the module scope and the context only through names that
occur in it, so every other unit's errors are unchanged.  The verdict is the
``(code, scope)`` error-count difference over the re-checked units, which
equals the difference over the whole file.  This is dependence-driven
invalidation in the spirit of Sirius (see PAPERS.md).
"""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Optional

from repro.checker.checker import CheckerMode, OptionalTypeChecker, context_key, iter_units
from repro.checker.env import ClassInfo, ModuleContext, Scope
from repro.checker.errors import CheckResult, TypeCheckError
from repro.graph.nodes import SymbolKind
from repro.graph.slots import AnnotationRewriteError, AnnotationSlot, SlotIndex, is_self_attribute

#: Marks a name with no module-scope binding in a divergence record.
_UNBOUND = object()


@dataclass(frozen=True)
class _ScopeState:
    """The module scope's bindings at one point of the check."""

    bindings: dict
    declared: frozenset

    @classmethod
    def of(cls, scope: Scope) -> "_ScopeState":
        return cls(dict(scope.bindings), frozenset(scope.declared))

    def matches(self, scope: Scope) -> bool:
        return scope.bindings == self.bindings and scope.declared == self.declared

    def restore(self, scope: Scope, divergence: dict) -> None:
        """Set ``scope`` to this state with the ``divergence`` bindings laid over it."""
        scope.bindings = dict(self.bindings)
        scope.declared = set(self.declared)
        for name, (value, declared) in divergence.items():
            if value is _UNBOUND:
                scope.bindings.pop(name, None)
            else:
                scope.bindings[name] = value
            if declared:
                scope.declared.add(name)
            else:
                scope.declared.discard(name)

    def divergence(self, scope: Scope) -> dict:
        """``name -> (binding, declared)`` for every name where ``scope`` differs from this state."""
        if self.matches(scope):
            return {}
        names = {name for name in scope.bindings.keys() | self.bindings.keys()
                 if scope.bindings.get(name, _UNBOUND) != self.bindings.get(name, _UNBOUND)}
        names |= scope.declared ^ self.declared
        return {name: (scope.bindings.get(name, _UNBOUND), name in scope.declared) for name in names}


@dataclass
class _Unit:
    top: int
    member: Optional[int]
    class_name: Optional[str]
    names: frozenset
    errors: Counter
    before: _ScopeState


def _error_signature(errors: Iterable[TypeCheckError]) -> Counter:
    return Counter((error.code, error.scope) for error in errors)


def _identifiers(node: ast.AST) -> frozenset:
    """Every name a unit can look up: names, attributes and definitions."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(child.name)
    return frozenset(names)


class CheckedModule:
    """A file parsed, given its module context and type checked once.

    ``result`` holds the file's diagnostics, equal to
    :meth:`OptionalTypeChecker.check_source`.  :meth:`introduced_errors`
    answers one candidate annotation at a time by re-checking only the units
    it can affect; the module is restored afterwards, so one instance serves
    every candidate of the file (from one thread at a time).
    """

    def __init__(self, source: str, mode: CheckerMode = CheckerMode.STRICT) -> None:
        self.source = source
        self.checker = OptionalTypeChecker(mode=mode)
        try:
            self.tree: Optional[ast.Module] = ast.parse(source)
            self._check()
        except (SyntaxError, RecursionError):  # check_source's ANNOTATION_UNPARSABLE error
            self.tree = None
            self.result = self.checker.check_source(source)

    def _check(self) -> None:
        self.context: ModuleContext = self.checker.module_context(self.tree)
        self._slots = SlotIndex(self.tree)
        #: Index of the last top-level statement defining each context entry.
        self._last = {context_key(statement): top for top, statement in enumerate(self.tree.body)
                      if context_key(statement) is not None}
        self._initial = _ScopeState.of(self.context.globals)
        self._units: list[_Unit] = []
        errors: list[TypeCheckError] = []
        before = self._initial
        for top, member, node, class_name in iter_units(self.tree):
            if not before.matches(self.context.globals):
                before = _ScopeState.of(self.context.globals)
            unit_errors = self.checker.check_unit(node, self.context, class_name)
            errors.extend(unit_errors)
            self._units.append(_Unit(top, member, class_name, _identifiers(node), _error_signature(unit_errors),
                                     before))
        self.result = CheckResult(errors=errors)

    def introduced_errors(self, scope: str, name: str, kind: SymbolKind, annotation: ast.expr) -> Counter:
        """``(code, scope)`` counts of the errors that annotating one symbol introduces.

        Raises :class:`AnnotationRewriteError` when the symbol has no
        annotation slot or the source does not parse.
        """
        if self.tree is None:
            raise AnnotationRewriteError("source does not parse")
        slots = self._slots.find(scope, name, kind)
        restores: list[tuple[dict, str, object]] = []
        for slot in slots:
            slot.fill(annotation)
        try:
            changed, divergence = self._patch_context(slots, restores)
            before, after = self._recheck({(slot.top, slot.member) for slot in slots}, changed, divergence)
        finally:
            for table, key, value in reversed(restores):
                table[key] = value
            for slot in reversed(slots):
                slot.clear()
        return after - before

    def _patch_context(self, slots: list[AnnotationSlot], restores: list) -> tuple[set[str], dict]:
        """Recompute the context entries the filled slots feed.

        Returns the names whose function, method or attribute entry changed,
        and the declared globals whose initial binding changed.
        """
        changed: set[str] = set()
        divergence: dict = {}
        body = self.tree.body
        for slot in slots:
            statement = body[slot.top]
            key = context_key(statement)
            if key is None:
                continue
            table, name = key
            if table == "class":
                if self._last.get(key) == slot.top:
                    changed |= self._patch_class(statement, slot, restores)
                continue
            if slot.function is not statement and slot.body is not body:
                continue  # a nested slot: the entry keeps its value
            value = self.checker.context_entry(body[max(self._last.get(key, -1), slot.top)])
            if table == "function":
                if self._patch(self.context.functions, name, value, restores):
                    changed.add(name)
            elif self._initial.bindings.get(name, _UNBOUND) != value or name not in self._initial.declared:
                divergence[name] = (value, True)
        return changed, divergence

    def _patch_class(self, node: ast.ClassDef, slot: AnnotationSlot, restores: list) -> set[str]:
        """Patch the method or attribute of class ``node`` that ``slot`` can feed."""
        member = node.body[slot.member]
        old = self.context.classes[node.name]
        target = slot.target
        if slot.function is not None and slot.function is member:
            last = [other for other in node.body if isinstance(other, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and other.name == member.name][-1]
            new = replace(old, methods={**old.methods, member.name: self.checker.signature_from_node(
                last, is_method=True)})
        elif ((slot.body is node.body and isinstance(target, ast.Name))
              or (is_self_attribute(target) and isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)))):
            new = replace(old, attributes=self.checker.class_attributes(node))
        else:
            return set()
        if not self._patch(self.context.classes, node.name, new, restores):
            return set()
        return self._changed_members(old, new)

    @staticmethod
    def _patch(entries: dict, name: str, value: object, restores: list) -> bool:
        if entries[name] == value:
            return False
        restores.append((entries, name, entries[name]))
        entries[name] = value
        return True

    def _changed_members(self, old: ClassInfo, new: ClassInfo) -> set[str]:
        changed = {name for name in old.attributes.keys() | new.attributes.keys()
                   if old.attributes.get(name) != new.attributes.get(name)}
        changed |= {name for name in old.methods.keys() | new.methods.keys()
                    if old.methods.get(name) != new.methods.get(name)}
        if "__init__" in changed:
            changed |= self.context.classes.keys()  # constructor calls name a class, maybe a subclass
        return changed

    def _recheck(self, own: set, changed: set[str], divergence: dict) -> tuple[Counter, Counter]:
        """Re-check the affected units in order; baseline and new error counts over them."""
        scope = self.context.globals
        before: Counter = Counter()
        after: Counter = Counter()
        units = self._units
        for position, unit in enumerate(units):
            if not ((unit.top, unit.member) in own or not unit.names.isdisjoint(changed)
                    or (divergence and not unit.names.isdisjoint(divergence))):
                continue
            unit.before.restore(scope, divergence)
            node = self.tree.body[unit.top]
            if unit.member is not None:
                node = node.body[unit.member]
            after.update(_error_signature(self.checker.check_unit(node, self.context, unit.class_name)))
            before.update(unit.errors)
            if position + 1 < len(units):
                divergence = units[position + 1].before.divergence(scope)
        return before, after
