"""Expression-level type inference for the optional type checker.

Given a :class:`~repro.checker.env.ModuleContext` and a local
:class:`~repro.checker.env.Scope`, :class:`ExpressionTyper` computes the type
of an expression on a best-effort basis; whatever cannot be determined is
``Any``, which is exactly how optional type checkers treat partial contexts.
"""

from __future__ import annotations

import ast
from typing import Callable, Optional

from repro.checker.env import (
    BUILTIN_METHODS,
    BUILTIN_SIGNATURES,
    FunctionSignature,
    ModuleContext,
    Scope,
)
from repro.checker.errors import ErrorCode, TypeCheckError
from repro.types.expr import ANY, NONE, TypeExpr
from repro.types.lattice import TypeLattice
from repro.types.normalize import canonicalise

_NUMERIC = {"bool", "int", "float", "complex"}


def is_assignable(value: TypeExpr, target: TypeExpr, lattice: TypeLattice, strict: bool = True) -> bool:
    """Whether a value of type ``value`` may be bound to a slot of type ``target``.

    ``Any`` is compatible in both directions (as in mypy and pytype).  In the
    lenient mode the check additionally tolerates numeric narrowing
    (``float`` into an ``int`` slot), mirroring pytype's permissiveness.
    """
    value = canonicalise(value)
    target = canonicalise(target)
    if value.is_any or target.is_any:
        return True
    if target.name == "object" and not target.args:
        return True
    if value == target:
        return True
    if target.is_optional:
        if value.is_none:
            return True
        inner = target.args[0] if target.args else ANY
        return is_assignable(value, inner, lattice, strict)
    if value.is_optional and not strict:
        inner = value.args[0] if value.args else ANY
        return is_assignable(inner, target, lattice, strict)
    if target.is_union:
        return any(is_assignable(value, member, lattice, strict) for member in target.args)
    if value.is_union:
        return all(is_assignable(member, target, lattice, strict) for member in value.args)
    # Bare containers are `C[Any, ...]`: compare bases only when either side
    # has no parameters.
    if (not value.args or not target.args) and (value.args or target.args):
        return lattice.is_nominal_subtype(value.name, target.name)
    if lattice.is_subtype(value, target):
        return True
    if not strict and value.name in _NUMERIC and target.name in _NUMERIC:
        return True
    return False


def join_types(types: list[TypeExpr], lattice: TypeLattice) -> TypeExpr:
    """Least-effort join of several types (used for list literals, returns)."""
    concrete = [canonicalise(t) for t in types if not t.is_any]
    if not concrete:
        return ANY
    unique = sorted(set(concrete), key=str)
    if len(unique) == 1:
        return unique[0]
    # Collapse onto a common supertype when one of the members already is one.
    for candidate in unique:
        if all(lattice.is_subtype(other, candidate) for other in unique):
            return candidate
    non_none = [t for t in unique if not t.is_none]
    if len(non_none) == 1 and len(unique) == 2:
        return TypeExpr("Optional", (non_none[0],))
    return TypeExpr("Union", tuple(unique))


class ExpressionTyper:
    """Infers expression types and reports expression-level diagnostics."""

    def __init__(
        self,
        context: ModuleContext,
        lattice: TypeLattice,
        report: Callable[[TypeCheckError], None],
        strict: bool = True,
    ) -> None:
        self.context = context
        self.lattice = lattice
        self.report = report
        self.strict = strict

    # -- entry point ----------------------------------------------------------------

    def infer(self, node: Optional[ast.expr], scope: Scope) -> TypeExpr:
        if node is None:
            return NONE
        method = getattr(self, f"_infer_{type(node).__name__.lower()}", None)
        if method is None:
            return ANY
        return method(node, scope)

    # -- literals --------------------------------------------------------------------

    def _infer_constant(self, node: ast.Constant, scope: Scope) -> TypeExpr:
        value = node.value
        if value is None:
            return NONE
        if isinstance(value, bool):
            return TypeExpr("bool")
        if isinstance(value, int):
            return TypeExpr("int")
        if isinstance(value, float):
            return TypeExpr("float")
        if isinstance(value, complex):
            return TypeExpr("complex")
        if isinstance(value, str):
            return TypeExpr("str")
        if isinstance(value, bytes):
            return TypeExpr("bytes")
        if value is Ellipsis:
            return ANY
        return ANY

    def _infer_joinedstr(self, node: ast.JoinedStr, scope: Scope) -> TypeExpr:
        return TypeExpr("str")

    def _infer_formattedvalue(self, node: ast.FormattedValue, scope: Scope) -> TypeExpr:
        return TypeExpr("str")

    def _infer_list(self, node: ast.List, scope: Scope) -> TypeExpr:
        element = join_types([self.infer(el, scope) for el in node.elts], self.lattice)
        return TypeExpr("List", (element,)) if not element.is_any else TypeExpr("List")

    def _infer_set(self, node: ast.Set, scope: Scope) -> TypeExpr:
        element = join_types([self.infer(el, scope) for el in node.elts], self.lattice)
        return TypeExpr("Set", (element,)) if not element.is_any else TypeExpr("Set")

    def _infer_tuple(self, node: ast.Tuple, scope: Scope) -> TypeExpr:
        elements = tuple(self.infer(el, scope) for el in node.elts)
        if elements and all(not el.is_any for el in elements):
            return TypeExpr("Tuple", elements)
        return TypeExpr("Tuple")

    def _infer_dict(self, node: ast.Dict, scope: Scope) -> TypeExpr:
        keys = [self.infer(k, scope) for k in node.keys if k is not None]
        values = [self.infer(v, scope) for v in node.values]
        key_type = join_types(keys, self.lattice)
        value_type = join_types(values, self.lattice)
        if key_type.is_any and value_type.is_any:
            return TypeExpr("Dict")
        return TypeExpr("Dict", (key_type, value_type))

    # -- names and attributes ------------------------------------------------------------

    def _infer_name(self, node: ast.Name, scope: Scope) -> TypeExpr:
        bound = scope.lookup(node.id)
        if bound is not None:
            return bound
        if node.id in self.context.classes:
            return TypeExpr("Type", (TypeExpr(node.id),))
        if node.id in self.context.functions or node.id in BUILTIN_SIGNATURES:
            return TypeExpr("Callable")
        return ANY

    def _infer_attribute(self, node: ast.Attribute, scope: Scope) -> TypeExpr:
        owner = self.infer(node.value, scope)
        if owner.is_any:
            return ANY
        owner = canonicalise(owner)
        if owner.is_optional:
            owner = owner.args[0] if owner.args else ANY
        class_info = self.context.classes.get(owner.name)
        if class_info is not None:
            found = class_info.lookup_attribute(node.attr, self.context.classes)
            if found is not None:
                return found
            if self.strict:
                self.report(
                    TypeCheckError(
                        ErrorCode.ATTR_DEFINED,
                        f'"{owner.name}" has no attribute "{node.attr}"',
                        getattr(node, "lineno", -1),
                        scope.name,
                    )
                )
            return ANY
        builtin_methods = BUILTIN_METHODS.get(owner.name)
        if builtin_methods is not None:
            if node.attr in builtin_methods:
                return builtin_methods[node.attr]
            if self.strict:
                self.report(
                    TypeCheckError(
                        ErrorCode.ATTR_DEFINED,
                        f'"{owner.name}" has no attribute "{node.attr}"',
                        getattr(node, "lineno", -1),
                        scope.name,
                    )
                )
        return ANY

    # -- operators -----------------------------------------------------------------------

    def _infer_binop(self, node: ast.BinOp, scope: Scope) -> TypeExpr:
        left = canonicalise(self.infer(node.left, scope))
        right = canonicalise(self.infer(node.right, scope))
        op = type(node.op).__name__
        return self._binop_result(left, right, op, getattr(node, "lineno", -1), scope)

    def _binop_result(self, left: TypeExpr, right: TypeExpr, op: str, lineno: int, scope: Scope) -> TypeExpr:
        if left.is_any or right.is_any:
            return ANY
        if left.name in _NUMERIC and right.name in _NUMERIC:
            if op == "Div":
                return TypeExpr("float")
            order = ["bool", "int", "float", "complex"]
            widest = max(left.name, right.name, key=order.index)
            result = "int" if widest == "bool" else widest
            return TypeExpr(result)
        if left.name == "str" and right.name == "str" and op == "Add":
            return TypeExpr("str")
        if left.name == "str" and op == "Mod":
            return TypeExpr("str")
        if left.name == "str" and right.name in _NUMERIC and op == "Mult":
            return TypeExpr("str")
        if left.name in _NUMERIC and right.name == "str" and op == "Mult":
            return TypeExpr("str")
        if left.name == "List" and right.name == "List" and op == "Add":
            return join_types([left, right], self.lattice)
        if left.name == "List" and right.name in _NUMERIC and op == "Mult":
            return left
        if left.name == "bytes" and right.name == "bytes" and op == "Add":
            return TypeExpr("bytes")
        if left.name in ("Set", "FrozenSet") and right.name in ("Set", "FrozenSet"):
            return left
        # Unknown user types: do not guess, do not error.
        if left.name in self.context.classes or right.name in self.context.classes:
            return ANY
        self.report(
            TypeCheckError(
                ErrorCode.OPERATOR,
                f'unsupported operand types for {op}: "{left}" and "{right}"',
                lineno,
                scope.name,
            )
        )
        return ANY

    def _infer_unaryop(self, node: ast.UnaryOp, scope: Scope) -> TypeExpr:
        operand = self.infer(node.operand, scope)
        if isinstance(node.op, ast.Not):
            return TypeExpr("bool")
        return operand

    def _infer_boolop(self, node: ast.BoolOp, scope: Scope) -> TypeExpr:
        return join_types([self.infer(v, scope) for v in node.values], self.lattice)

    def _infer_compare(self, node: ast.Compare, scope: Scope) -> TypeExpr:
        self.infer(node.left, scope)
        for comparator in node.comparators:
            self.infer(comparator, scope)
        return TypeExpr("bool")

    def _infer_ifexp(self, node: ast.IfExp, scope: Scope) -> TypeExpr:
        return join_types([self.infer(node.body, scope), self.infer(node.orelse, scope)], self.lattice)

    # -- calls ------------------------------------------------------------------------------

    def _infer_call(self, node: ast.Call, scope: Scope) -> TypeExpr:
        argument_types = [self.infer(arg, scope) for arg in node.args]
        keyword_types = {kw.arg: self.infer(kw.value, scope) for kw in node.keywords if kw.arg}

        signature, return_type = self._resolve_callee(node.func, scope)
        if signature is not None:
            self._check_call(signature, node, argument_types, keyword_types, scope)
            return signature.returns
        return return_type

    def _resolve_callee(self, func: ast.expr, scope: Scope) -> tuple[Optional[FunctionSignature], TypeExpr]:
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.context.classes:
                class_info = self.context.classes[name]
                init = class_info.lookup_method("__init__", self.context.classes)
                if init is not None:
                    constructor = FunctionSignature(
                        name=name,
                        parameters=init.parameters[1:] if init.parameters else [],
                        returns=TypeExpr(name),
                        has_varargs=init.has_varargs,
                        has_kwargs=init.has_kwargs,
                    )
                    return constructor, TypeExpr(name)
                return None, TypeExpr(name)
            signature = self.context.signature_of(name)
            if signature is not None:
                return signature, signature.returns
            return None, ANY
        if isinstance(func, ast.Attribute):
            owner = canonicalise(self.infer(func.value, scope))
            if owner.is_optional:
                owner = owner.args[0] if owner.args else ANY
            class_info = self.context.classes.get(owner.name)
            if class_info is not None:
                method = class_info.lookup_method(func.attr, self.context.classes)
                if method is not None:
                    bound = FunctionSignature(
                        name=f"{owner.name}.{func.attr}",
                        parameters=method.parameters[1:] if method.is_method else method.parameters,
                        returns=method.returns,
                        has_varargs=method.has_varargs,
                        has_kwargs=method.has_kwargs,
                    )
                    return bound, method.returns
                self._infer_attribute(func, scope)  # reports attr-defined in strict mode
                return None, ANY
            methods = BUILTIN_METHODS.get(owner.name)
            if methods is not None and func.attr in methods:
                result = methods[func.attr]
                # Element-aware results for parametric containers.
                if owner.name == "Dict" and func.attr == "get" and owner.args:
                    return None, TypeExpr("Optional", (owner.args[-1],))
                if owner.name == "List" and func.attr == "pop" and owner.args:
                    return None, owner.args[0]
                if owner.name == "Dict" and func.attr == "keys" and owner.args:
                    return None, TypeExpr("Iterator", (owner.args[0],))
                if owner.name == "Dict" and func.attr == "values" and owner.args:
                    return None, TypeExpr("Iterator", (owner.args[-1],))
                return None, result
            return None, ANY
        return None, ANY

    def _check_call(
        self,
        signature: FunctionSignature,
        node: ast.Call,
        argument_types: list[TypeExpr],
        keyword_types: dict[str, TypeExpr],
        scope: Scope,
    ) -> None:
        lineno = getattr(node, "lineno", -1)
        if self.strict and not signature.has_varargs and not signature.has_kwargs:
            supplied = len(argument_types) + len(keyword_types)
            required = len(signature.parameters)
            if supplied > required:
                self.report(
                    TypeCheckError(
                        ErrorCode.ARG_COUNT,
                        f'too many arguments for "{signature.name}" ({supplied} > {required})',
                        lineno,
                        scope.name,
                    )
                )
        for index, argument_type in enumerate(argument_types):
            expected = signature.parameter_type(index)
            if not is_assignable(argument_type, expected, self.lattice, self.strict):
                self.report(
                    TypeCheckError(
                        ErrorCode.ARG_TYPE,
                        f'argument {index + 1} to "{signature.name}" has incompatible type '
                        f'"{argument_type}"; expected "{expected}"',
                        lineno,
                        scope.name,
                    )
                )
        for keyword, argument_type in keyword_types.items():
            expected = signature.parameter_type_by_name(keyword)
            if expected is None:
                continue
            if not is_assignable(argument_type, expected, self.lattice, self.strict):
                self.report(
                    TypeCheckError(
                        ErrorCode.ARG_TYPE,
                        f'argument "{keyword}" to "{signature.name}" has incompatible type '
                        f'"{argument_type}"; expected "{expected}"',
                        lineno,
                        scope.name,
                    )
                )

    # -- subscripts and comprehensions -----------------------------------------------------

    def _infer_subscript(self, node: ast.Subscript, scope: Scope) -> TypeExpr:
        owner = canonicalise(self.infer(node.value, scope))
        index_type = self.infer(node.slice, scope)
        if isinstance(node.slice, ast.Slice):
            return owner
        if owner.name in ("List", "Sequence", "Tuple") and owner.args:
            if owner.name == "Tuple" and len(owner.args) > 1:
                return join_types(list(owner.args), self.lattice)
            if self.strict and not index_type.is_any and index_type.name not in ("int", "bool"):
                self.report(
                    TypeCheckError(
                        ErrorCode.INDEX,
                        f'invalid index type "{index_type}" for "{owner}"; expected "int"',
                        getattr(node, "lineno", -1),
                        scope.name,
                    )
                )
            return owner.args[0]
        if owner.name in ("Dict", "Mapping") and len(owner.args) == 2:
            key_type, value_type = owner.args
            if self.strict and not is_assignable(index_type, key_type, self.lattice, self.strict):
                self.report(
                    TypeCheckError(
                        ErrorCode.INDEX,
                        f'invalid index type "{index_type}" for "{owner}"; expected "{key_type}"',
                        getattr(node, "lineno", -1),
                        scope.name,
                    )
                )
            return value_type
        if owner.name == "str":
            return TypeExpr("str")
        if owner.name == "bytes":
            return TypeExpr("int")
        return ANY

    def _infer_listcomp(self, node: ast.ListComp, scope: Scope) -> TypeExpr:
        comp_scope = self._comprehension_scope(node.generators, scope)
        element = self.infer(node.elt, comp_scope)
        return TypeExpr("List", (element,)) if not element.is_any else TypeExpr("List")

    def _infer_setcomp(self, node: ast.SetComp, scope: Scope) -> TypeExpr:
        comp_scope = self._comprehension_scope(node.generators, scope)
        element = self.infer(node.elt, comp_scope)
        return TypeExpr("Set", (element,)) if not element.is_any else TypeExpr("Set")

    def _infer_generatorexp(self, node: ast.GeneratorExp, scope: Scope) -> TypeExpr:
        comp_scope = self._comprehension_scope(node.generators, scope)
        element = self.infer(node.elt, comp_scope)
        return TypeExpr("Iterator", (element,)) if not element.is_any else TypeExpr("Iterator")

    def _infer_dictcomp(self, node: ast.DictComp, scope: Scope) -> TypeExpr:
        comp_scope = self._comprehension_scope(node.generators, scope)
        key = self.infer(node.key, comp_scope)
        value = self.infer(node.value, comp_scope)
        if key.is_any and value.is_any:
            return TypeExpr("Dict")
        return TypeExpr("Dict", (key, value))

    def _comprehension_scope(self, generators: list[ast.comprehension], scope: Scope) -> Scope:
        comp_scope = scope.child("<comp>")
        for generator in generators:
            element_type = self.element_type(self.infer(generator.iter, comp_scope))
            self.bind_target(generator.target, element_type, comp_scope)
        return comp_scope

    def _infer_lambda(self, node: ast.Lambda, scope: Scope) -> TypeExpr:
        return TypeExpr("Callable")

    def _infer_starred(self, node: ast.Starred, scope: Scope) -> TypeExpr:
        return self.infer(node.value, scope)

    def _infer_await(self, node: ast.Await, scope: Scope) -> TypeExpr:
        return self.infer(node.value, scope)

    # -- helpers shared with the statement checker ---------------------------------------------

    def element_type(self, container: TypeExpr) -> TypeExpr:
        """The type produced by iterating a value of type ``container``."""
        container = canonicalise(container)
        if container.name in ("List", "Set", "FrozenSet", "Sequence", "Iterable", "Iterator", "Collection") and container.args:
            return container.args[0]
        if container.name == "Tuple" and container.args:
            return join_types(list(container.args), self.lattice)
        if container.name in ("Dict", "Mapping") and container.args:
            return container.args[0]
        if container.name == "str":
            return TypeExpr("str")
        if container.name == "bytes":
            return TypeExpr("int")
        if container.name == "range":
            return TypeExpr("int")
        return ANY

    def bind_target(self, target: ast.expr, value_type: TypeExpr, scope: Scope) -> None:
        """Bind an assignment/for-loop target to ``value_type`` in ``scope``."""
        if isinstance(target, ast.Name):
            scope.bind(target.id, value_type)
        elif isinstance(target, (ast.Tuple, ast.List)):
            element = self.element_type(value_type)
            inner = value_type.args if value_type.name == "Tuple" and len(value_type.args) == len(target.elts) else None
            for position, element_target in enumerate(target.elts):
                self.bind_target(element_target, inner[position] if inner else element, scope)
        elif isinstance(target, ast.Starred):
            self.bind_target(target.value, TypeExpr("List", (self.element_type(value_type),)), scope)
