"""Tests for the optional type checker (strict/mypy-like, lenient/pytype-like)."""

import ast
import functools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.checker import (
    CheckerMode,
    ErrorCode,
    OptionalTypeChecker,
    apply_annotation,
    AnnotationRewriteError,
    PredictionCategory,
    PredictionChecker,
    check_source,
    is_assignable,
)
from repro.corpus import CorpusSynthesizer, SynthesisConfig
from repro.graph.builder import GraphBuilder
from repro.graph.nodes import SymbolKind
from repro.types import TypeLattice, parse_type
from repro.types.normalize import canonical_string


WELL_TYPED = '''
def add(a: int, b: int) -> int:
    total = a + b
    return total


def greet(name: str) -> str:
    return "hello " + name


class Point:
    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def norm(self) -> float:
        return self.x * self.x + self.y * self.y


def length_of(items):
    return len(items)


origin = Point(0.0, 0.0)
distance: float = origin.norm()
message: str = greet("world")
count: int = add(1, 2)
'''


class TestAssignability:
    @pytest.fixture()
    def lattice(self):
        return TypeLattice()

    @pytest.mark.parametrize(
        "value,target,expected",
        [
            ("int", "int", True),
            ("int", "float", True),
            ("float", "int", False),
            ("Any", "int", True),
            ("int", "Any", True),
            ("None", "Optional[int]", True),
            ("int", "Optional[int]", True),
            ("str", "Optional[int]", False),
            ("List[int]", "List", True),
            ("List", "List[int]", True),
            ("List[int]", "Sequence[int]", True),
            ("int", "Union[int, str]", True),
            ("bytes", "Union[int, str]", False),
            ("int", "object", True),
        ],
    )
    def test_strict_assignability(self, lattice, value, target, expected):
        assert is_assignable(parse_type(value), parse_type(target), lattice, strict=True) is expected

    def test_lenient_allows_numeric_narrowing(self, lattice):
        assert is_assignable(parse_type("float"), parse_type("int"), lattice, strict=False)
        assert not is_assignable(parse_type("str"), parse_type("int"), lattice, strict=False)


class TestWellTypedPrograms:
    def test_strict_accepts_well_typed_module(self):
        assert check_source(WELL_TYPED, CheckerMode.STRICT).ok

    def test_lenient_accepts_well_typed_module(self):
        assert check_source(WELL_TYPED, CheckerMode.LENIENT).ok

    def test_unannotated_code_produces_no_errors(self):
        source = "def f(x):\n    y = x + 1\n    return y\n"
        assert check_source(source).ok

    def test_optional_narrowing_with_is_none_guard(self):
        source = (
            "from typing import Optional\n"
            "def greet(name: str, suffix: Optional[str] = None) -> str:\n"
            "    if suffix is None:\n"
            "        return 'hi ' + name\n"
            "    return 'hi ' + name + suffix\n"
        )
        assert check_source(source, CheckerMode.STRICT).ok

    def test_optional_narrowing_with_is_not_none_guard(self):
        source = (
            "from typing import Optional\n"
            "def scale(value: Optional[float]) -> float:\n"
            "    result = 0.0\n"
            "    if value is not None:\n"
            "        result = value * 2.0\n"
            "    return result\n"
        )
        assert check_source(source, CheckerMode.STRICT).ok

    def test_syntax_error_reported_not_raised(self):
        result = check_source("def broken(:\n")
        assert not result.ok
        assert result.errors[0].code == ErrorCode.ANNOTATION_UNPARSABLE


class TestErrorDetection:
    def test_wrong_return_type(self):
        result = check_source("def f() -> int:\n    return 'text'\n")
        assert any(e.code == ErrorCode.RETURN_VALUE for e in result.errors)

    def test_wrong_argument_type(self):
        source = "def f(x: int) -> int:\n    return x\n\ny = f('nope')\n"
        result = check_source(source)
        assert any(e.code == ErrorCode.ARG_TYPE for e in result.errors)

    def test_wrong_annotated_assignment(self):
        result = check_source("x: int = 'text'\n")
        assert any(e.code == ErrorCode.ASSIGNMENT for e in result.errors)

    def test_declared_variable_reassignment_checked(self):
        source = "def f() -> None:\n    x: int = 1\n    x = 'text'\n"
        result = check_source(source)
        assert any(e.code == ErrorCode.ASSIGNMENT for e in result.errors)

    def test_operator_mismatch(self):
        result = check_source("def f(a: str, b: int) -> str:\n    return a + b\n")
        assert any(e.code == ErrorCode.OPERATOR for e in result.errors)

    def test_attribute_error_strict_only(self):
        source = (
            "class Box:\n"
            "    def __init__(self, width: int) -> None:\n"
            "        self.width = width\n"
            "\n"
            "def f(box: Box) -> int:\n"
            "    return box.height\n"
        )
        assert any(e.code == ErrorCode.ATTR_DEFINED for e in check_source(source, CheckerMode.STRICT).errors)
        assert check_source(source, CheckerMode.LENIENT).ok

    def test_too_many_arguments_strict_only(self):
        source = "def f(x: int) -> int:\n    return x\n\ny = f(1, 2, 3)\n"
        assert any(e.code == ErrorCode.ARG_COUNT for e in check_source(source, CheckerMode.STRICT).errors)
        assert not any(e.code == ErrorCode.ARG_COUNT for e in check_source(source, CheckerMode.LENIENT).errors)

    def test_invalid_annotation_reported(self):
        result = check_source("value: 'List[' = []\n")
        assert any(e.code == ErrorCode.ANNOTATION_UNPARSABLE for e in result.errors)

    def test_lenient_reports_fewer_errors_than_strict(self):
        source = (
            "def f(x: int) -> int:\n"
            "    y: float = 2.5\n"
            "    return y\n"  # strict: return-value error; lenient tolerates numeric narrowing
        )
        strict_errors = len(check_source(source, CheckerMode.STRICT).errors)
        lenient_errors = len(check_source(source, CheckerMode.LENIENT).errors)
        assert lenient_errors <= strict_errors

    def test_dict_index_type_checked_strict(self):
        source = (
            "from typing import Dict\n"
            "def f(mapping: Dict[str, int]) -> int:\n"
            "    return mapping[3]\n"
        )
        assert any(e.code == ErrorCode.INDEX for e in check_source(source, CheckerMode.STRICT).errors)

    def test_class_attribute_assignment_checked(self):
        source = (
            "class Config:\n"
            "    def __init__(self, limit: int) -> None:\n"
            "        self.limit: int = limit\n"
            "\n"
            "    def reset(self) -> None:\n"
            "        self.limit = 'unbounded'\n"
        )
        assert any(e.code == ErrorCode.ASSIGNMENT for e in check_source(source, CheckerMode.STRICT).errors)


class TestInference:
    def test_infer_return_annotation(self):
        source = "def count(items):\n    return len(items)\n"
        inferred = OptionalTypeChecker(CheckerMode.LENIENT).infer_annotations(source)
        assert inferred[("module.count", "<return>", "function_return")] == "int"

    def test_infer_variable_types_from_literals(self):
        source = "def f():\n    label = 'x'\n    return label\n"
        inferred = OptionalTypeChecker(CheckerMode.LENIENT).infer_annotations(source)
        assert inferred[("module.f", "label", "variable")] == "str"

    def test_infer_module_level_constant(self):
        inferred = OptionalTypeChecker(CheckerMode.LENIENT).infer_annotations("LIMIT = 10\n")
        assert inferred[("module", "LIMIT", "variable")] == "int"

    def test_no_inference_for_annotated_returns(self):
        inferred = OptionalTypeChecker(CheckerMode.LENIENT).infer_annotations("def f() -> int:\n    return 1\n")
        assert ("module.f", "<return>", "function_return") not in inferred


class TestPredictionHarness:
    SOURCE = (
        "def repeat(text: str, times: int) -> str:\n"
        "    return text * times\n"
        "\n"
        "def run(count):\n"
        "    label = repeat('x', count)\n"
        "    return label\n"
    )

    def test_apply_annotation_to_parameter(self):
        modified = apply_annotation(self.SOURCE, "module.run", "count", SymbolKind.PARAMETER, "int")
        assert "def run(count: int):" in modified

    def test_apply_annotation_to_return(self):
        modified = apply_annotation(self.SOURCE, "module.run", "<return>", SymbolKind.FUNCTION_RETURN, "str")
        assert "-> str" in modified

    def test_apply_annotation_to_variable(self):
        modified = apply_annotation(self.SOURCE, "module.run", "label", SymbolKind.VARIABLE, "str")
        assert "label: str =" in modified

    def test_apply_annotation_unknown_symbol_raises(self):
        with pytest.raises(AnnotationRewriteError):
            apply_annotation(self.SOURCE, "module.run", "missing", SymbolKind.PARAMETER, "int")

    def test_apply_annotation_invalid_type_raises(self):
        with pytest.raises(AnnotationRewriteError):
            apply_annotation(self.SOURCE, "module.run", "count", SymbolKind.PARAMETER, "List[")

    def test_apply_annotation_to_self_attribute(self):
        source = (
            "class Box:\n"
            "    def __init__(self, width):\n"
            "        self.width = width\n"
        )
        modified = apply_annotation(source, "module.Box", "self.width", SymbolKind.VARIABLE, "int")
        assert "self.width: int = width" in modified

    def test_annotated_self_attribute_is_checked_like_a_plain_one(self):
        """``self.size: int = size`` in a method is the slot of class-scoped ``self.size``."""
        annotated = (
            "class C:\n"
            "    def __init__(self, size: int) -> None:\n"
            "        self.size: int = size\n"
            "\n"
            "    def double(self) -> int:\n"
            "        return self.size * 2\n"
        )
        plain = annotated.replace("self.size: int = size", "self.size = size")
        checker = PredictionChecker(CheckerMode.STRICT)
        outcomes = {
            (label, candidate): checker.check_prediction(source, "module.C", "self.size", SymbolKind.VARIABLE,
                                                         candidate)
            for label, source in (("annotated", annotated), ("plain", plain))
            for candidate in ("str", "int")
        }
        assert not any(outcome.skipped for outcome in outcomes.values())
        assert outcomes["plain", "str"].reason == "2 type error(s): assignment, return-value"
        assert outcomes["annotated", "str"].reason == outcomes["plain", "str"].reason
        assert not outcomes["annotated", "str"].ok
        assert outcomes["annotated", "int"].ok and outcomes["plain", "int"].ok

    def test_good_prediction_accepted(self):
        checker = PredictionChecker(CheckerMode.STRICT)
        outcome = checker.check_prediction(self.SOURCE, "module.run", "count", SymbolKind.PARAMETER, "int")
        assert outcome.ok and outcome.category == PredictionCategory.ADDED

    def test_bad_prediction_rejected(self):
        checker = PredictionChecker(CheckerMode.STRICT)
        outcome = checker.check_prediction(self.SOURCE, "module.run", "count", SymbolKind.PARAMETER, "str")
        assert not outcome.ok and outcome.introduced_errors >= 1

    def test_identical_prediction_categorised_tau_to_tau(self):
        checker = PredictionChecker(CheckerMode.STRICT)
        outcome = checker.check_prediction(
            self.SOURCE, "module.repeat", "times", SymbolKind.PARAMETER, "int", original_annotation="int"
        )
        assert outcome.ok and outcome.category == PredictionCategory.UNCHANGED

    def test_changed_prediction_categorised_tau_to_tau_prime(self):
        checker = PredictionChecker(CheckerMode.STRICT)
        outcome = checker.check_prediction(
            self.SOURCE, "module.repeat", "times", SymbolKind.PARAMETER, "float", original_annotation="int"
        )
        assert outcome.category == PredictionCategory.CHANGED

    def test_any_prediction_skipped(self):
        checker = PredictionChecker(CheckerMode.STRICT)
        outcome = checker.check_prediction(self.SOURCE, "module.run", "count", SymbolKind.PARAMETER, "Any")
        assert outcome.skipped

    def test_pre_existing_errors_do_not_count_against_prediction(self):
        source = "x: int = 'wrong'\n\ndef f(value):\n    return value + 1\n"
        checker = PredictionChecker(CheckerMode.STRICT)
        outcome = checker.check_prediction(source, "module.f", "value", SymbolKind.PARAMETER, "int")
        assert outcome.ok  # the unrelated baseline error is not attributed to the prediction


# ---------------------------------------------------------------------------
# Exactness of the incremental re-check against the whole-file protocol
# ---------------------------------------------------------------------------


class _LegacyInserter(ast.NodeTransformer):
    """The original rewrite: set one symbol's annotation, found by scope path."""

    def __init__(self, scope, name, kind, annotation):
        self.target_scope, self.target_name, self.kind, self.annotation = scope, name, kind, annotation
        self.applied = False
        self._scope = ["module"]

    def _visit_scope(self, node, name):
        self._scope.append(name)
        self.generic_visit(node)
        self._scope.pop()
        return node

    def visit_ClassDef(self, node):
        return self._visit_scope(node, node.name)

    def visit_FunctionDef(self, node):
        if ".".join(self._scope + [node.name]) == self.target_scope:
            if self.kind == SymbolKind.FUNCTION_RETURN and self.target_name == "<return>":
                node.returns = self.annotation
                self.applied = True
            elif self.kind == SymbolKind.PARAMETER:
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                    if arg is not None and arg.arg == self.target_name:
                        arg.annotation = self.annotation
                        self.applied = True
        return self._visit_scope(node, node.name)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _in_target_scope(self):
        return self.kind == SymbolKind.VARIABLE and not self.applied and ".".join(self._scope) == self.target_scope

    def visit_Assign(self, node):
        if self._in_target_scope() and len(node.targets) == 1 and self._matches(node.targets[0]):
            self.applied = True
            target = node.targets[0]
            return ast.copy_location(ast.AnnAssign(target=target, annotation=self.annotation, value=node.value,
                                                   simple=int(isinstance(target, ast.Name))), node)
        return self.generic_visit(node)

    def visit_AnnAssign(self, node):
        if self._in_target_scope() and self._matches(node.target):
            node.annotation = self.annotation
            self.applied = True
            return node
        return self.generic_visit(node)

    def _matches(self, target):
        if isinstance(target, ast.Name):
            return target.id == self.target_name
        return (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                and target.value.id == "self" and f"self.{target.attr}" == self.target_name)


class _LegacySelfAttributeInserter(ast.NodeTransformer):
    """The original fallback: annotate the first ``self.attr = ...`` not inside another class."""

    def __init__(self, class_scope, dotted_name, annotation):
        self.class_scope, self.attr, self.annotation = class_scope, dotted_name.split(".", 1)[1], annotation
        self.applied = False
        self._scope = ["module"]

    def visit_ClassDef(self, node):
        self._scope.append(node.name)
        if ".".join(self._scope) == self.class_scope:
            self.generic_visit(node)
        self._scope.pop()
        return node

    def visit_Assign(self, node):
        if self.applied or len(node.targets) != 1:
            return node
        target = node.targets[0]
        if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                and target.value.id == "self" and target.attr == self.attr):
            self.applied = True
            return ast.copy_location(ast.AnnAssign(target=target, annotation=self.annotation, value=node.value,
                                                   simple=0), node)
        return node


def _legacy_apply_annotation(source, scope, name, kind, type_string):
    try:
        annotation = ast.parse(type_string, mode="eval").body
    except SyntaxError as error:
        raise AnnotationRewriteError(type_string) from error
    inserter = _LegacyInserter(scope, name, kind, annotation)
    tree = inserter.visit(ast.parse(source))
    if not inserter.applied and kind == SymbolKind.VARIABLE and name.startswith("self."):
        inserter = _LegacySelfAttributeInserter(scope, name, annotation)
        tree = inserter.visit(ast.parse(source))
    if not inserter.applied:
        raise AnnotationRewriteError(name)
    return ast.unparse(ast.fix_missing_locations(tree))


def _oracle(source, scope, name, kind, predicted_type, mode):
    """The whole-file protocol: rewrite, re-check everything, diff ``(code, scope)`` counts."""
    if canonical_string(predicted_type) in (None, "Any"):
        return False, True, 0
    try:
        modified = _legacy_apply_annotation(source, scope, name, kind, predicted_type)
    except AnnotationRewriteError:
        return False, True, 0

    def signature(text):
        return Counter((error.code, error.scope) for error in check_source(text, mode).errors)

    introduced = sum((signature(modified) - signature(source)).values())
    return introduced == 0, False, introduced


def _verdict(outcome):
    return outcome.ok, outcome.skipped, outcome.introduced_errors


def _symbols(source):
    return [(symbol.scope, symbol.name, symbol.kind) for symbol in GraphBuilder().build(source).symbols]


#: Programs where re-checking only part of a file is easy to get wrong.
EDGE_CASES = {
    "redefined_function": (
        "def scale(value):\n    return value * 2\n\n"
        "def use(amount):\n    return scale(amount) + 1\n\n"
        "def scale(value):\n    return value.upper()\n"
    ),
    "nested_def_shares_top_level_name": (
        "def helper(a):\n    return a * 2\n\n"
        "def outer(b):\n    def helper(a):\n        return a + '!'\n    return b\n\n"
        "total = helper(3)\n"
    ),
    "module_level_annotated_global": (
        "def shout():\n    return NAME.upper() + str(LIMIT + 1)\n\n"
        "LIMIT: int = 10\nNAME = 'x'\n\n"
        "def over(n):\n    return n > LIMIT\n\n"
        "flag = over(LIMIT)\nLIMIT = 'y'\n"
    ),
    "self_attribute_only_in_method": (
        "class Box:\n"
        "    def __init__(self, width):\n        self.width = width\n\n"
        "    def area(self, height):\n        return self.width * height\n\n"
        "    def grow(self):\n        self.width = self.width + 1\n\n"
        "def make(w):\n    box = Box(w)\n    return box.area(2)\n"
    ),
    "class_annotation_shadows_self_attribute": (
        "class Holder:\n    size: int = 0\n    label = 'h'\n\n"
        "    def __init__(self, size):\n        self.size = size\n\n"
        "    def double(self):\n        return self.size * 2 + self.label\n"
    ),
    "module_call_result_read_later": (
        "def produce(n):\n    return n * 2\n\n"
        "result = produce(3)\ndoubled = result + 1\nlabel = str(doubled)\ntext = label.upper()\n"
    ),
    "redefined_method_and_class": (
        "class Tally:\n    def add(self, step):\n        return step + 1\n\n"
        "    def label(self, text: int):\n        return text\n\n"
        "def use(amount):\n    return Tally().add(amount) + 1\n\n"
        "class Tally:\n    def add(self, step):\n        return step.upper()\n\n"
        "    def add(self, count, extra):\n        return count * extra\n\n"
        "def later(amount):\n    return Tally().add(amount, 2) + Tally().label('s')\n"
    ),
    "inherited_constructor": (
        "class Base:\n    def __init__(self, value):\n        self.value = value\n\n"
        "class Child(Base):\n    def get(self):\n        return self.value\n\n"
        "item = Child(3)\nother = Base('s')\ntotal = item.get() + 1\n"
    ),
}

EDGE_CANDIDATES = ["int", "str", "float", "bool", "List[str]", "Optional[int]", "Dict[str, int]", "Box", "Any",
                   "List["]


class TestIncrementalExactness:
    @pytest.mark.parametrize("mode", list(CheckerMode))
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_cases_match_whole_file_oracle(self, case, mode):
        source = EDGE_CASES[case]
        checker = PredictionChecker(mode)
        module = checker.baseline(source)
        for scope, name, kind in _symbols(source):
            for candidate in EDGE_CANDIDATES:
                outcome = checker.check_prediction(source, scope, name, kind, candidate, baseline_result=module)
                assert _verdict(outcome) == _oracle(source, scope, name, kind, candidate, mode), (
                    scope, name, candidate)

    def test_seeded_project_top3_candidates_match_oracle(self, trained_pipeline):
        files = CorpusSynthesizer(SynthesisConfig(num_files=6, seed=21, num_user_classes=8)).generate()
        sources = {file.filename: file.source for file in files}
        suggestions = trained_pipeline.suggest_for_sources(sources, use_type_checker=False)
        checker = PredictionChecker(CheckerMode.STRICT)
        checks = 0
        for filename, file_suggestions in suggestions.items():
            source = sources[filename]
            module = checker.baseline(source)
            for suggestion in file_suggestions:
                kind = SymbolKind(suggestion.kind)
                for candidate, _ in suggestion.prediction.top(3):
                    outcome = checker.check_prediction(source, suggestion.scope, suggestion.name, kind, candidate,
                                                       suggestion.existing_annotation, baseline_result=module)
                    expected = _oracle(source, suggestion.scope, suggestion.name, kind, candidate,
                                       CheckerMode.STRICT)
                    assert _verdict(outcome) == expected, (filename, suggestion.scope, suggestion.name, candidate)
                    checks += 1
        assert checks > 300

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_apply_annotation_matches_legacy_rewrite(self, case):
        source = EDGE_CASES[case]
        for scope, name, kind in _symbols(source):
            try:
                expected = _legacy_apply_annotation(source, scope, name, kind, "int")
            except AnnotationRewriteError:
                with pytest.raises(AnnotationRewriteError):
                    apply_annotation(source, scope, name, kind, "int")
                continue
            assert apply_annotation(source, scope, name, kind, "int") == expected

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_baseline_equals_whole_file_check(self, case):
        source = EDGE_CASES[case]
        module = PredictionChecker(CheckerMode.STRICT).baseline(source)
        assert module.result.errors == check_source(source, CheckerMode.STRICT).errors

    def test_module_is_restored_after_each_check(self):
        source = EDGE_CASES["module_call_result_read_later"]
        checker = PredictionChecker(CheckerMode.STRICT)
        module = checker.baseline(source)
        first = checker.check_prediction(source, "module", "result", SymbolKind.VARIABLE, "str",
                                         baseline_result=module)
        checker.check_prediction(source, "module.produce", "<return>", SymbolKind.FUNCTION_RETURN, "str",
                                 baseline_result=module)
        again = checker.check_prediction(source, "module", "result", SymbolKind.VARIABLE, "str",
                                         baseline_result=module)
        assert _verdict(first) == _verdict(again)
        assert ast.unparse(module.tree) == ast.unparse(ast.parse(source))

    def test_rejection_names_introduced_error_codes(self):
        source = "def f(x):\n    return x + 1\n"
        outcome = PredictionChecker(CheckerMode.STRICT).check_prediction(
            source, "module.f", "x", SymbolKind.PARAMETER, "str")
        assert not outcome.ok
        assert outcome.reason == "1 type error(s): operator"

    def test_unparsable_source_skips_instead_of_raising(self):
        outcome = PredictionChecker(CheckerMode.STRICT).check_prediction(
            "def broken(:\n", "module.broken", "x", SymbolKind.PARAMETER, "int")
        assert outcome.skipped and not outcome.ok


@functools.lru_cache(maxsize=None)
def _generated_files(seed):
    files = CorpusSynthesizer(SynthesisConfig(num_files=3, seed=seed, num_user_classes=6)).generate()
    return [(file.source, _symbols(file.source)) for file in files]


_ATOMS = st.sampled_from(["int", "str", "float", "bool", "bytes", "None", "object", "Callable", "Any"])
_TYPES = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.builds("{}[{}]".format, st.sampled_from(["List", "Set", "Optional", "Iterator", "Type"]), inner),
        st.builds("Dict[{}, {}]".format, inner, inner),
        st.builds("Union[{}, {}]".format, inner, inner),
    ),
    max_leaves=4,
)
_CANDIDATES = st.one_of(_TYPES, st.just("Any"), st.text(max_size=12))


class TestIncrementalProperty:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 30), file_index=st.integers(0, 2), symbol_index=st.integers(0, 10_000),
           candidate=_CANDIDATES, mode=st.sampled_from(list(CheckerMode)))
    def test_random_candidates_never_raise_and_match_oracle(self, seed, file_index, symbol_index, candidate, mode):
        source, symbols = _generated_files(seed)[file_index]
        scope, name, kind = symbols[symbol_index % len(symbols)]
        outcome = PredictionChecker(mode).check_prediction(source, scope, name, kind, candidate)
        assert _verdict(outcome) == _oracle(source, scope, name, kind, candidate, mode)
