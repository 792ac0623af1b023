"""Subtyping lattice and the type-neutrality approximation.

Sec. 6.1 of the paper approximates type neutrality without running a type
checker: all types observed in the corpus are preprocessed (deep parameters
rewritten to ``Any``), arranged into a hierarchy assuming universal
covariance, and a prediction ``τp`` is *neutral* with the ground truth
``τg`` iff ``τg :< τp`` and ``τp ≠ ⊤`` in that hierarchy.

The lattice combines

* nominal subtyping edges — builtin defaults (``bool :< int :< float``,
  every concrete container under its abstract protocol) plus any edges
  registered from corpus class definitions (``class Dog(Animal)``);
* structural rules for parametric types under universal covariance
  (``List[int] :< List[object]``, ``List[int] :< List``);
* ``Optional``/``Union`` rules (``T :< Optional[T]``, a union is a subtype
  of ``T`` iff all members are, ``T`` is a subtype of a union iff it is a
  subtype of some member);
* ``Any`` as the top element and ``None`` subtype only of ``Optional``/top.
"""

from __future__ import annotations

from typing import Iterable

from repro.types.expr import TypeExpr
from repro.types.normalize import canonicalise
from repro.types.parser import try_parse_type

#: Built-in nominal edges: sub → list of direct supertypes.
_DEFAULT_NOMINAL_EDGES: dict[str, tuple[str, ...]] = {
    "bool": ("int",),
    "int": ("float",),
    "float": ("complex",),
    "bytearray": ("bytes",),
    "List": ("Sequence", "MutableSequence"),
    "Tuple": ("Sequence",),
    "str": ("Sequence",),
    "bytes": ("Sequence",),
    "MutableSequence": ("Sequence",),
    "Sequence": ("Collection", "Iterable"),
    "Set": ("AbstractSet", "Collection"),
    "FrozenSet": ("AbstractSet", "Collection"),
    "AbstractSet": ("Collection",),
    "Dict": ("Mapping", "MutableMapping"),
    "MutableMapping": ("Mapping",),
    "Mapping": ("Collection",),
    "Collection": ("Iterable", "Container", "Sized"),
    "Iterator": ("Iterable",),
    "Generator": ("Iterator",),
    "object": (),
}

#: Names that never count as informative predictions.
TOP_NAMES = frozenset({"Any", "object"})


class TypeLattice:
    """The subtyping relation used for the type-neutrality metric."""

    def __init__(self, numeric_tower: bool = True) -> None:
        self._supertypes: dict[str, set[str]] = {}
        for sub, supers in _DEFAULT_NOMINAL_EDGES.items():
            if not numeric_tower and sub in ("bool", "int", "float"):
                continue
            for sup in supers:
                self.add_nominal_edge(sub, sup)

    # -- construction ---------------------------------------------------------

    def add_nominal_edge(self, subtype: str, supertype: str) -> None:
        """Register ``class subtype(supertype)``-style nominal subtyping."""
        if subtype == supertype:
            return
        self._supertypes.setdefault(subtype, set()).add(supertype)

    def add_class_hierarchy(self, edges: Iterable[tuple[str, str]]) -> None:
        for subtype, supertype in edges:
            self.add_nominal_edge(subtype, supertype)

    # -- nominal reachability ---------------------------------------------------

    def nominal_supertypes(self, name: str) -> set[str]:
        """All nominal supertypes of ``name`` (reflexive, transitive)."""
        seen: set[str] = {name}
        frontier = [name]
        while frontier:
            current = frontier.pop()
            for parent in self._supertypes.get(current, ()):  # direct edges
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        seen.add("object")
        return seen

    def is_nominal_subtype(self, sub: str, sup: str) -> bool:
        if sup in TOP_NAMES:
            return True
        return sup in self.nominal_supertypes(sub)

    # -- structural subtyping ----------------------------------------------------

    def is_subtype(self, sub: TypeExpr, sup: TypeExpr) -> bool:
        """Whether ``sub :< sup`` under universal covariance."""
        sub = canonicalise(sub)
        sup = canonicalise(sup)
        return self._is_subtype(sub, sup)

    def _is_subtype(self, sub: TypeExpr, sup: TypeExpr) -> bool:
        if sup.is_any or sup.name == "object" and not sup.args:
            return True
        if sub.is_any:
            # Any is treated as compatible in both directions by optional
            # checkers; for the lattice we only allow it below the top.
            return sup.is_any or sup.name == "object"
        if sub == sup:
            return True

        # Unions / optionals on the left: every member must fit.
        if sub.is_union:
            return all(self._is_subtype(member, sup) for member in sub.args)
        if sub.is_optional:
            inner = sub.args[0] if sub.args else TypeExpr("Any")
            if sup.is_optional:
                sup_inner = sup.args[0] if sup.args else TypeExpr("Any")
                return self._is_subtype(inner, sup_inner)
            return False  # an optional value may be None, so a bare sup does not cover it

        # Unions / optionals on the right: fitting one member suffices.
        if sup.is_optional:
            if sub.is_none:
                return True
            sup_inner = sup.args[0] if sup.args else TypeExpr("Any")
            return self._is_subtype(sub, sup_inner)
        if sup.is_union:
            return any(self._is_subtype(sub, member) for member in sup.args)
        if sub.is_none:
            return False

        # Parametric against bare base: List[int] :< List, List[int] :< Sequence.
        if not sup.args:
            return self.is_nominal_subtype(sub.name, sup.name)

        # Parametric against parametric: nominal bases plus covariant arguments.
        if not self.is_nominal_subtype(sub.name, sup.name):
            return False
        if not sub.args:
            # A bare base is treated like base[Any, ...]; universal covariance
            # then requires the supertype's arguments to be Any-compatible.
            return all(arg.is_any for arg in sup.args)
        if len(sub.args) != len(sup.args):
            # Tolerate arity mismatches involving ellipsis (Tuple[int, ...]).
            if any(arg.name == "..." for arg in sub.args + sup.args):
                return all(
                    self._is_subtype(sa, sp)
                    for sa, sp in zip(sub.args, sup.args)
                    if sa.name != "..." and sp.name != "..."
                )
            return False
        return all(self._is_subtype(sa, sp) for sa, sp in zip(sub.args, sup.args))

    # -- neutrality ------------------------------------------------------------------

    def is_type_neutral(self, prediction: TypeExpr, ground_truth: TypeExpr) -> bool:
        """The paper's heuristic: ``τg :< τp`` and ``τp`` is not the top type."""
        prediction = canonicalise(prediction, max_depth=2)
        ground_truth = canonicalise(ground_truth, max_depth=2)
        if prediction.is_any or (prediction.name == "object" and not prediction.args):
            return False
        if prediction == ground_truth:
            return True
        return self._is_subtype(ground_truth, prediction)

    def is_type_neutral_str(self, prediction: str, ground_truth: str) -> bool:
        """String-level convenience used by the metrics module."""
        predicted = try_parse_type(prediction)
        truth = try_parse_type(ground_truth)
        if predicted is None or truth is None:
            return prediction == ground_truth
        return self.is_type_neutral(predicted, truth)


def lattice_from_class_edges(edges: Iterable[tuple[str, str]]) -> TypeLattice:
    """Build a lattice seeded with the corpus' user-defined class hierarchy."""
    lattice = TypeLattice()
    lattice.add_class_hierarchy(edges)
    return lattice
