"""The optional type checker: strict ("mypy-like") and lenient ("pytype-like").

The checker reproduces the role mypy and pytype play in the paper's Sec. 6.3
experiment: given a *partially annotated* program it reports type errors
caused by annotations that contradict the code, and stays silent about code
it cannot reason about.  Two modes model the two tools:

* :attr:`CheckerMode.STRICT` — checks assignments, redefinitions, argument
  counts, attribute existence, indexing and returns, like mypy;
* :attr:`CheckerMode.LENIENT` — checks only direct contradictions of explicit
  annotations and tolerates numeric narrowing, like pytype.  The lenient
  checker also exposes :meth:`OptionalTypeChecker.infer_annotations`, the
  analogue of running pytype to augment a corpus with inferred types.
"""

from __future__ import annotations

import ast
from collections import deque
from enum import Enum
from typing import Iterator, Optional

from repro.checker.env import ClassInfo, FunctionSignature, ModuleContext, Scope
from repro.checker.errors import CheckResult, ErrorCode, TypeCheckError
from repro.checker.infer import ExpressionTyper, is_assignable, join_types
from repro.types.expr import ANY, NONE, TypeExpr
from repro.types.lattice import TypeLattice
from repro.types.normalize import canonicalise
from repro.types.parser import try_parse_type


class CheckerMode(str, Enum):
    """Which real-world optional type checker the configuration emulates."""

    STRICT = "strict"  # mypy-like
    LENIENT = "lenient"  # pytype-like


class OptionalTypeChecker:
    """Type check a Python module under optional-typing semantics."""

    def __init__(self, mode: CheckerMode = CheckerMode.STRICT, lattice: Optional[TypeLattice] = None) -> None:
        self.mode = mode
        self.lattice = lattice if lattice is not None else TypeLattice()
        self._errors: list[TypeCheckError] = []

    @property
    def strict(self) -> bool:
        return self.mode == CheckerMode.STRICT

    # -- public API --------------------------------------------------------------------

    def check_source(self, source: str, filename: str = "<string>") -> CheckResult:
        """Type check a source string, returning every diagnostic found.

        A file that does not parse, or that nests deeper than the parser or
        the checker can recurse, yields one ``ANNOTATION_UNPARSABLE`` error.
        """
        try:
            tree = ast.parse(source)
            context = self.module_context(tree)
            errors = [error for _, _, node, class_name in iter_units(tree)
                      for error in self.check_unit(node, context, class_name)]
        except SyntaxError as error:
            message, lineno = f"syntax error: {error.msg}", error.lineno or -1
        except RecursionError:
            message, lineno = "nested too deeply to check", -1
        else:
            return CheckResult(errors=errors)
        return CheckResult(errors=[TypeCheckError(ErrorCode.ANNOTATION_UNPARSABLE, message, lineno)])

    def infer_annotations(self, source: str) -> dict[tuple[str, str, str], str]:
        """Best-effort inference of missing annotations (the pytype role).

        Returns a map ``(scope_path, name, kind) -> type string`` for function
        returns and variables whose types can be determined from literals and
        annotated signatures.  Parameters are never inferred (neither does
        pytype without call-site information).
        """
        try:
            tree = ast.parse(source)
        except SyntaxError:
            return {}
        context = self.module_context(tree)
        inferred: dict[tuple[str, str, str], str] = {}
        typer = ExpressionTyper(context, self.lattice, lambda _err: None, strict=False)

        def walk_function(node: ast.FunctionDef | ast.AsyncFunctionDef, scope_path: str, class_name: Optional[str]) -> None:
            function_scope = Scope(parent=context.globals, name=scope_path)
            signature = self.signature_from_node(node, is_method=class_name is not None)
            for parameter_name, parameter_type in signature.parameters:
                function_scope.bind(parameter_name, parameter_type)
            if class_name is not None and signature.parameters:
                function_scope.bind(signature.parameters[0][0], TypeExpr(class_name))
            return_types: list[TypeExpr] = []
            for statement in ast.walk(node):
                if isinstance(statement, ast.Return) and statement.value is not None:
                    return_types.append(typer.infer(statement.value, function_scope))
                elif isinstance(statement, ast.Assign):
                    value_type = typer.infer(statement.value, function_scope)
                    for target in statement.targets:
                        if isinstance(target, ast.Name) and not value_type.is_any:
                            function_scope.bind(target.id, value_type)
                            inferred.setdefault((scope_path, target.id, "variable"), str(value_type))
            if node.returns is None:
                joined = join_types(return_types, self.lattice) if return_types else NONE
                if not joined.is_any:
                    inferred[(scope_path, "<return>", "function_return")] = str(canonicalise(joined))

        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk_function(statement, f"module.{statement.name}", None)
            elif isinstance(statement, ast.ClassDef):
                for member in statement.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        walk_function(member, f"module.{statement.name}.{member.name}", statement.name)
            elif isinstance(statement, ast.Assign):
                value_type = typer.infer(statement.value, context.globals)
                for target in statement.targets:
                    if isinstance(target, ast.Name) and not value_type.is_any:
                        inferred.setdefault(("module", target.id, "variable"), str(value_type))
        return inferred

    # -- module context ------------------------------------------------------------------

    def _parse_annotation(self, node: Optional[ast.expr], lineno: int, scope: str) -> TypeExpr:
        if node is None:
            return ANY
        text = ast.unparse(node)
        parsed = try_parse_type(text)
        if parsed is None:
            self._report(ErrorCode.ANNOTATION_UNPARSABLE, f'invalid type annotation "{text}"', lineno, scope)
            return ANY
        return canonicalise(parsed)

    def signature_from_node(self, node: ast.FunctionDef | ast.AsyncFunctionDef, is_method: bool) -> FunctionSignature:
        args = node.args
        parameters: list[tuple[str, TypeExpr]] = []
        all_args = list(args.posonlyargs) + list(args.args)
        for arg in all_args:
            annotation = self._annotation_or_any(arg.annotation)
            parameters.append((arg.arg, annotation))
        for arg in args.kwonlyargs:
            parameters.append((arg.arg, self._annotation_or_any(arg.annotation)))
        returns = self._annotation_or_any(node.returns)
        return FunctionSignature(
            name=node.name,
            parameters=parameters,
            returns=returns,
            has_varargs=args.vararg is not None,
            has_kwargs=args.kwarg is not None,
            is_method=is_method,
        )

    def _annotation_or_any(self, node: Optional[ast.expr]) -> TypeExpr:
        if node is None:
            return ANY
        parsed = try_parse_type(ast.unparse(node))
        return canonicalise(parsed) if parsed is not None else ANY

    def module_context(self, tree: ast.Module) -> ModuleContext:
        """Build ``tree``'s module context and register its classes in the lattice."""
        context = self._build_module_context(tree)
        self._register_class_hierarchy(context)
        return context

    def context_entry(self, statement: ast.stmt) -> FunctionSignature | ClassInfo | TypeExpr:
        """The value a top-level statement gives its :func:`context_key` entry."""
        table, _ = context_key(statement)
        if table == "function":
            return self.signature_from_node(statement, is_method=False)
        if table == "class":
            return self._class_info_from_node(statement)
        return self._annotation_or_any(statement.annotation)

    def _build_module_context(self, tree: ast.Module) -> ModuleContext:
        context = ModuleContext()
        for statement in tree.body:
            key = context_key(statement)
            if key is None:
                continue
            table, name = key
            value = self.context_entry(statement)
            if table == "function":
                context.functions[name] = value
            elif table == "class":
                context.classes[name] = value
            else:
                context.globals.bind(name, value, declared=True)
        return context

    def _class_info_from_node(self, node: ast.ClassDef) -> ClassInfo:
        info = ClassInfo(name=node.name)
        info.bases = [base.id for base in node.bases if isinstance(base, ast.Name)]
        for member in node.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[member.name] = self.signature_from_node(member, is_method=True)
        info.attributes = self.class_attributes(node)
        return info

    def class_attributes(self, node: ast.ClassDef) -> dict[str, TypeExpr]:
        """A class's attribute types: annotated class members, then ``self.attr`` assignments."""
        attributes: dict[str, TypeExpr] = {}
        for member in node.body:
            if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                attributes[member.target.id] = self._annotation_or_any(member.annotation)
        # self.attr assignments inside methods contribute attributes too.
        for member in node.body:
            if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for statement in _walk_statements(member):
                target: Optional[ast.expr] = None
                annotation: Optional[ast.expr] = None
                if isinstance(statement, ast.AnnAssign):
                    target, annotation = statement.target, statement.annotation
                elif isinstance(statement, ast.Assign) and len(statement.targets) == 1:
                    target = statement.targets[0]
                if (
                    target is not None
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr not in attributes
                ):
                    attributes[target.attr] = self._annotation_or_any(annotation) if annotation is not None else ANY
        return attributes

    def _register_class_hierarchy(self, context: ModuleContext) -> None:
        for class_info in context.classes.values():
            for base in class_info.bases:
                self.lattice.add_nominal_edge(class_info.name, base)

    # -- checking --------------------------------------------------------------------------

    def _report(self, code: ErrorCode, message: str, lineno: int, scope: str) -> None:
        self._errors.append(TypeCheckError(code, message, lineno, scope))

    def check_unit(
        self, node: ast.stmt, context: ModuleContext, class_name: Optional[str] = None
    ) -> list[TypeCheckError]:
        """Check one unit of a module and return its diagnostics.

        A unit is a top-level statement or, with ``class_name``, one member
        of that top-level class (see :func:`iter_units`).  It runs in
        ``context.globals`` as the module scope, which it may rebind, so
        checking every unit in order checks the whole module.
        """
        self._errors = []
        if class_name is None:
            typer = ExpressionTyper(context, self.lattice, self._errors.append, strict=self.strict)
            self._check_statement(node, context.globals, typer, context, current_function=None)
        else:
            self._check_class_member(node, context.globals, context, class_name)
        return self._errors

    def _check_block(
        self,
        statements: list[ast.stmt],
        scope: Scope,
        typer: ExpressionTyper,
        context: ModuleContext,
        current_function: Optional[FunctionSignature],
    ) -> None:
        for statement in statements:
            self._check_statement(statement, scope, typer, context, current_function)

    def _check_statement(
        self,
        statement: ast.stmt,
        scope: Scope,
        typer: ExpressionTyper,
        context: ModuleContext,
        current_function: Optional[FunctionSignature],
    ) -> None:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._check_function(statement, scope, context, class_name=None)
        elif isinstance(statement, ast.ClassDef):
            self._check_class(statement, scope, context)
        elif isinstance(statement, ast.AnnAssign):
            self._check_ann_assign(statement, scope, typer)
        elif isinstance(statement, ast.Assign):
            self._check_assign(statement, scope, typer)
        elif isinstance(statement, ast.AugAssign):
            self._check_aug_assign(statement, scope, typer)
        elif isinstance(statement, ast.Return):
            self._check_return(statement, scope, typer, current_function)
        elif isinstance(statement, ast.For):
            element = typer.element_type(typer.infer(statement.iter, scope))
            typer.bind_target(statement.target, element, scope)
            self._check_block(statement.body, scope, typer, context, current_function)
            self._check_block(statement.orelse, scope, typer, context, current_function)
        elif isinstance(statement, ast.While):
            typer.infer(statement.test, scope)
            self._check_block(statement.body, scope, typer, context, current_function)
            self._check_block(statement.orelse, scope, typer, context, current_function)
        elif isinstance(statement, ast.If):
            typer.infer(statement.test, scope)
            self._check_if(statement, scope, typer, context, current_function)
        elif isinstance(statement, ast.With):
            for item in statement.items:
                context_type = typer.infer(item.context_expr, scope)
                if item.optional_vars is not None:
                    typer.bind_target(item.optional_vars, context_type, scope)
            self._check_block(statement.body, scope, typer, context, current_function)
        elif isinstance(statement, ast.Try):
            self._check_block(statement.body, scope, typer, context, current_function)
            for handler in statement.handlers:
                self._check_block(handler.body, scope, typer, context, current_function)
            self._check_block(statement.orelse, scope, typer, context, current_function)
            self._check_block(statement.finalbody, scope, typer, context, current_function)
        elif isinstance(statement, ast.Expr):
            typer.infer(statement.value, scope)
        elif isinstance(statement, (ast.Assert, ast.Raise, ast.Delete)):
            for value in ast.iter_child_nodes(statement):
                if isinstance(value, ast.expr):
                    typer.infer(value, scope)
        # Imports, pass, break, continue, global, nonlocal: nothing to check.

    def _check_if(
        self,
        statement: ast.If,
        scope: Scope,
        typer: ExpressionTyper,
        context: ModuleContext,
        current_function: Optional[FunctionSignature],
    ) -> None:
        """Check an ``if`` statement with basic ``None`` narrowing.

        Two common mypy-supported idioms are modelled:

        * ``if x is None: <body that returns/raises>`` — after the statement,
          ``x`` is narrowed to its non-``None`` type;
        * ``if x is not None: <body>`` — inside the body, ``x`` is narrowed.
        """
        narrowing = self._none_narrowing(statement.test, scope)
        if narrowing is not None:
            name, narrowed = narrowing
            is_none_test = self._is_none_comparison(statement.test, negated=False)
            original = scope.lookup(name)
            if is_none_test:
                # Body runs with x == None; keep the original binding there.
                self._check_block(statement.body, scope, typer, context, current_function)
                self._check_block(statement.orelse, scope, typer, context, current_function)
                if self._block_terminates(statement.body) and original is not None:
                    scope.bind(name, narrowed, declared=scope.is_declared(name))
                return
            # `if x is not None:` — narrow inside the body only.
            scope.bind(name, narrowed, declared=scope.is_declared(name))
            self._check_block(statement.body, scope, typer, context, current_function)
            if original is not None:
                scope.bind(name, original, declared=scope.is_declared(name))
            self._check_block(statement.orelse, scope, typer, context, current_function)
            return
        self._check_block(statement.body, scope, typer, context, current_function)
        self._check_block(statement.orelse, scope, typer, context, current_function)

    @staticmethod
    def _is_none_comparison(test: ast.expr, negated: bool) -> bool:
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            return False
        comparator = test.comparators[0]
        is_none = isinstance(comparator, ast.Constant) and comparator.value is None
        if not (is_none and isinstance(test.left, ast.Name)):
            return False
        return isinstance(test.ops[0], ast.IsNot if negated else ast.Is)

    def _none_narrowing(self, test: ast.expr, scope: Scope) -> Optional[tuple[str, TypeExpr]]:
        """If ``test`` compares a name against ``None``, return its narrowed type."""
        if not isinstance(test, ast.Compare) or not isinstance(test.left, ast.Name):
            return None
        if not (self._is_none_comparison(test, negated=False) or self._is_none_comparison(test, negated=True)):
            return None
        name = test.left.id
        bound = scope.lookup(name)
        if bound is None:
            return None
        bound = canonicalise(bound)
        if bound.is_optional:
            narrowed = bound.args[0] if bound.args else ANY
            return name, narrowed
        if bound.is_union:
            remaining = tuple(member for member in bound.args if not member.is_none)
            if len(remaining) == 1:
                return name, remaining[0]
            if remaining:
                return name, TypeExpr("Union", remaining)
        return None

    @staticmethod
    def _block_terminates(body: list[ast.stmt]) -> bool:
        return bool(body) and isinstance(body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break))

    def _check_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        scope: Scope,
        context: ModuleContext,
        class_name: Optional[str],
    ) -> None:
        signature = (
            context.classes[class_name].methods.get(node.name)
            if class_name is not None and class_name in context.classes
            else context.functions.get(node.name)
        )
        if signature is None:
            signature = self.signature_from_node(node, is_method=class_name is not None)
        function_scope = scope.child(node.name)
        for index, (parameter_name, parameter_type) in enumerate(signature.parameters):
            bound_type = parameter_type
            if index == 0 and class_name is not None and parameter_name in ("self", "cls") and parameter_type.is_any:
                bound_type = TypeExpr(class_name)
            function_scope.bind(parameter_name, bound_type, declared=not parameter_type.is_any)
        if node.args.vararg is not None:
            function_scope.bind(node.args.vararg.arg, TypeExpr("Tuple"))
        if node.args.kwarg is not None:
            function_scope.bind(node.args.kwarg.arg, TypeExpr("Dict"))
        # Check annotated defaults against parameter annotations.
        typer = ExpressionTyper(context, self.lattice, self._errors.append, strict=self.strict)
        defaults = node.args.defaults
        if defaults:
            offset = len(signature.parameters) - len(defaults)
            for position, default in enumerate(defaults):
                default_type = typer.infer(default, scope)
                expected = signature.parameter_type(offset + position)
                if default_type.is_none and not expected.is_any:
                    # A None default with a non-optional annotation is accepted by
                    # both mypy (implicit Optional off by default nowadays) only if
                    # Optional; we flag it only in strict mode.
                    if self.strict and not is_assignable(NONE, expected, self.lattice, self.strict):
                        self._report(
                            ErrorCode.ARG_TYPE,
                            f'default "None" incompatible with parameter "{signature.parameters[offset + position][0]}" '
                            f'of type "{expected}"',
                            node.lineno,
                            function_scope.name,
                        )
                elif not is_assignable(default_type, expected, self.lattice, self.strict):
                    self._report(
                        ErrorCode.ARG_TYPE,
                        f'default value of type "{default_type}" incompatible with "{expected}"',
                        node.lineno,
                        function_scope.name,
                    )
        self._check_block(node.body, function_scope, typer, context, signature)

    def _check_class(self, node: ast.ClassDef, scope: Scope, context: ModuleContext) -> None:
        for member in node.body:
            self._check_class_member(member, scope, context, node.name)

    def _check_class_member(self, member: ast.stmt, scope: Scope, context: ModuleContext, class_name: str) -> None:
        # Class bodies open no scope: annotated members bind in ``scope``.
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._check_function(member, scope, context, class_name=class_name)
        elif isinstance(member, ast.AnnAssign):
            typer = ExpressionTyper(context, self.lattice, self._errors.append, strict=self.strict)
            self._check_ann_assign(member, scope, typer)

    def _check_ann_assign(self, statement: ast.AnnAssign, scope: Scope, typer: ExpressionTyper) -> None:
        annotation = self._parse_annotation(statement.annotation, statement.lineno, scope.name)
        if isinstance(statement.target, ast.Name):
            scope.bind(statement.target.id, annotation, declared=True)
        if statement.value is None:
            return
        value_type = typer.infer(statement.value, scope)
        if not is_assignable(value_type, annotation, self.lattice, self.strict):
            self._report(
                ErrorCode.ASSIGNMENT,
                f'incompatible types in assignment (expression has type "{value_type}", '
                f'variable has type "{annotation}")',
                statement.lineno,
                scope.name,
            )

    def _check_assign(self, statement: ast.Assign, scope: Scope, typer: ExpressionTyper) -> None:
        value_type = typer.infer(statement.value, scope)
        for target in statement.targets:
            if isinstance(target, ast.Name):
                existing = scope.lookup(target.id)
                if existing is not None and scope.is_declared(target.id):
                    if not is_assignable(value_type, existing, self.lattice, self.strict):
                        self._report(
                            ErrorCode.ASSIGNMENT,
                            f'incompatible types in assignment (expression has type "{value_type}", '
                            f'variable has type "{existing}")',
                            statement.lineno,
                            scope.name,
                        )
                    continue  # keep the declared type
                if (
                    self.strict
                    and existing is not None
                    and not existing.is_any
                    and not value_type.is_any
                    and not is_assignable(value_type, existing, self.lattice, self.strict)
                    and not is_assignable(existing, value_type, self.lattice, self.strict)
                ):
                    self._report(
                        ErrorCode.REDEFINITION,
                        f'variable "{target.id}" changes type from "{existing}" to "{value_type}"',
                        statement.lineno,
                        scope.name,
                    )
                typer.bind_target(target, value_type, scope)
            elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) and target.value.id == "self":
                owner_type = scope.lookup(target.value.id)
                if owner_type is None:
                    continue
                class_info = typer.context.classes.get(owner_type.name)
                if class_info is None:
                    continue
                declared = class_info.attributes.get(target.attr)
                if declared is not None and not declared.is_any:
                    if not is_assignable(value_type, declared, self.lattice, self.strict):
                        self._report(
                            ErrorCode.ASSIGNMENT,
                            f'incompatible types in assignment to "self.{target.attr}" '
                            f'(expression has type "{value_type}", attribute has type "{declared}")',
                            statement.lineno,
                            scope.name,
                        )
            else:
                typer.bind_target(target, value_type, scope)

    def _check_aug_assign(self, statement: ast.AugAssign, scope: Scope, typer: ExpressionTyper) -> None:
        value_type = typer.infer(statement.value, scope)
        if isinstance(statement.target, ast.Name):
            target_type = scope.lookup(statement.target.id) or ANY
            result = typer._binop_result(
                canonicalise(target_type), canonicalise(value_type), type(statement.op).__name__, statement.lineno, scope
            )
            if scope.is_declared(statement.target.id) and not is_assignable(result, target_type, self.lattice, self.strict):
                self._report(
                    ErrorCode.ASSIGNMENT,
                    f'result of augmented assignment has type "{result}", variable has type "{target_type}"',
                    statement.lineno,
                    scope.name,
                )

    def _check_return(
        self,
        statement: ast.Return,
        scope: Scope,
        typer: ExpressionTyper,
        current_function: Optional[FunctionSignature],
    ) -> None:
        value_type = typer.infer(statement.value, scope) if statement.value is not None else NONE
        if current_function is None:
            return
        declared = current_function.returns
        if declared.is_any:
            return
        if statement.value is None and declared.is_none:
            return
        if not is_assignable(value_type, declared, self.lattice, self.strict):
            self._report(
                ErrorCode.RETURN_VALUE,
                f'incompatible return value type (got "{value_type}", expected "{declared}")',
                statement.lineno,
                scope.name,
            )


def _walk_statements(node: ast.stmt) -> Iterator[ast.AST]:
    """The statements under ``node`` in :func:`ast.walk` (breadth-first) order.

    Expressions hold no statements, so skipping them keeps the order.
    """
    todo = deque([node])
    while todo:
        node = todo.popleft()
        yield node
        for _, value in ast.iter_fields(node):
            if isinstance(value, list):
                todo.extend(item for item in value if isinstance(item, (ast.stmt, ast.excepthandler, ast.match_case)))


def context_key(statement: ast.stmt) -> Optional[tuple[str, str]]:
    """The module-context entry a top-level statement defines, as ``(table, name)``.

    Tables are ``"function"``, ``"class"`` and ``"global"`` (a declared module
    variable, bound before any statement runs).  When several statements
    define one entry, the last one wins.  Other statements define none.
    """
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return "function", statement.name
    if isinstance(statement, ast.ClassDef):
        return "class", statement.name
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return "global", statement.target.id
    return None


def iter_units(tree: ast.Module) -> Iterator[tuple[int, Optional[int], ast.stmt, Optional[str]]]:
    """The check units of a module in checking order: ``(top, member, node, class_name)``.

    A top-level class is checked member by member (``member`` indexes its
    body, ``class_name`` names it); every other top-level statement is one
    unit with ``member`` and ``class_name`` None.
    """
    for top, statement in enumerate(tree.body):
        if isinstance(statement, ast.ClassDef):
            for member, node in enumerate(statement.body):
                yield top, member, node, statement.name
        else:
            yield top, None, statement, None


def check_source(source: str, mode: CheckerMode = CheckerMode.STRICT) -> CheckResult:
    """Convenience wrapper: check one source string in the given mode."""
    return OptionalTypeChecker(mode=mode).check_source(source)
