"""One annotation-slot walk: the builder's labels, erasure and corpus augmentation.

:func:`repro.graph.slots.take_annotations` replaced three separate AST walks
— an annotation collector and an annotation eraser in the graph builder, and
a return annotator in corpus augmentation.  Those walks are kept here as
oracles: on every file of three seeded corpora and on edge-case sources, the
one walk must read the same annotation map (in the same order), erase to the
same text byte for byte, and augment to the same source.
"""

import ast

import pytest

from repro.checker.checker import CheckerMode, OptionalTypeChecker
from repro.corpus import SynthesisConfig, generate_corpus
from repro.corpus.dataset import _augment_with_inferred_annotations
from repro.graph import GraphBuilder, SymbolKind, take_annotations
from repro.graph.slots import RETURN_SYMBOL_NAME


class _OracleCollector(ast.NodeVisitor):
    """The builder's former annotation collector, run on the original tree."""

    def __init__(self):
        self.annotations = {}
        self._scope = ["module"]

    def _record(self, name, kind, annotation, scope=None):
        if annotation is not None:
            self.annotations[(scope or ".".join(self._scope), name, kind)] = ast.unparse(annotation)

    def _visit_function(self, node):
        self._scope.append(node.name)
        args = node.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            self._record(arg.arg, SymbolKind.PARAMETER, arg.annotation)
        if args.vararg is not None:
            self._record(args.vararg.arg, SymbolKind.PARAMETER, args.vararg.annotation)
        if args.kwarg is not None:
            self._record(args.kwarg.arg, SymbolKind.PARAMETER, args.kwarg.annotation)
        self._record(RETURN_SYMBOL_NAME, SymbolKind.FUNCTION_RETURN, node.returns)
        self.generic_visit(node)
        self._scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node):
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def visit_AnnAssign(self, node):
        target = node.target
        if isinstance(target, ast.Name):
            self._record(target.id, SymbolKind.VARIABLE, node.annotation)
        elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) and target.value.id == "self":
            class_scope = ".".join(self._scope[:-1]) if len(self._scope) > 1 else ".".join(self._scope)
            self._record(f"self.{target.attr}", SymbolKind.VARIABLE, node.annotation, scope=class_scope)
        self.generic_visit(node)


class _OracleEraser(ast.NodeTransformer):
    """The builder's former annotation eraser."""

    def _erase_function(self, node):
        self.generic_visit(node)
        args = node.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            arg.annotation = None
        if args.vararg is not None:
            args.vararg.annotation = None
        if args.kwarg is not None:
            args.kwarg.annotation = None
        node.returns = None
        return node

    visit_FunctionDef = visit_AsyncFunctionDef = _erase_function

    def visit_AnnAssign(self, node):
        self.generic_visit(node)
        value = node.value if node.value is not None else ast.Constant(value=None)
        return ast.copy_location(ast.Assign(targets=[node.target], value=value), node)


def _oracle_augment(source):
    """Corpus augmentation as it was: a return annotator over the whole tree."""
    inferred = OptionalTypeChecker(CheckerMode.LENIENT).infer_annotations(source)
    if not inferred:
        return source
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return source

    class _ReturnAnnotator(ast.NodeTransformer):
        def __init__(self):
            self._scope = ["module"]

        def _visit_scope(self, node, name):
            self._scope.append(name)
            self.generic_visit(node)
            self._scope.pop()
            return node

        def visit_ClassDef(self, node):
            return self._visit_scope(node, node.name)

        def visit_FunctionDef(self, node):
            key = (".".join(self._scope + [node.name]), "<return>", "function_return")
            if node.returns is None and key in inferred:
                try:
                    node.returns = ast.parse(inferred[key], mode="eval").body
                except SyntaxError:
                    pass
            return self._visit_scope(node, node.name)

        visit_AsyncFunctionDef = visit_FunctionDef

    tree = _ReturnAnnotator().visit(tree)
    ast.fix_missing_locations(tree)
    return ast.unparse(tree)


EDGE_CASES = {
    "twice_annotated_and_redefined": (
        "x: int = 1\n"
        "x: str = 'a'\n"
        "def f(a: int) -> int:\n    return a\n"
        "def f(a: str, b: float) -> str:\n    return a\n"
        "class C:\n"
        "    def m(self, v: int) -> int:\n        return v\n"
        "    def m(self, v: bytes) -> bytes:\n        return v\n"
    ),
    "class_body_annotation": "class C:\n    a: int\n    b: str = 'b'\n",
    "self_attribute_in_init": (
        "class C:\n"
        "    def __init__(self, size: int) -> None:\n"
        "        self.size: int = size\n"
        "        self.name: str\n"
        "        self.size: float = 1.0\n"
    ),
    "self_attribute_in_nested_function": (
        "class C:\n"
        "    def method(self) -> None:\n"
        "        def inner() -> int:\n"
        "            self.count: int = 3\n"
        "            return self.count\n"
        "        inner()\n"
        "self.stray: int = 0\n"
    ),
    "parameter_kinds": "def g(a: int, /, b: str, *args: float, c: bytes, **kw: bool) -> None:\n    pass\n",
    "subscript_and_attribute_targets": "d = {}\nd['k']: int = 3\nobj = object()\nobj.attr: int = 4\nd['j']: str\n",
    "nested_blocks": (
        "import sys\n"
        "if sys.argv:\n    a: int = 1\nelse:\n    b: str = 'b'\n"
        "try:\n    c: int = 1\nexcept ValueError:\n    d: str = 'd'\nelse:\n    e: int = 2\n"
        "finally:\n    f: float = 1.0\n"
        "for i in range(3):\n    g: int = i\nelse:\n    h: str = 'h'\n"
        "while False:\n    w: int = 0\n"
        "with open('x') as handle:\n    t: str = handle.read()\n"
        "match sys.argv:\n    case [first]:\n        m: str = first\n    case _:\n        n: int = 0\n"
        "def scoped(flag: bool) -> int:\n"
        "    if flag:\n        local: int = 1\n    else:\n        local: int = 2\n"
        "    return local\n"
    ),
    "async_def": "async def fetch(url: str) -> bytes:\n    data: bytes = b''\n    return data\n",
    "duplicate_parameter_name": "def h(suffix: str, suffix=None) -> str:\n    return suffix\n",
    "module_level_bare": "x: int\ny = x\n",
    "augmented_redefinitions": (
        "def f(a):\n    return 1\n"
        "def f(a):\n    return 'one'\n"
        "class C:\n"
        "    def m(self):\n        return 1.5\n"
        "    def m(self) -> int:\n        return 2\n"
        "    async def n(self):\n        return True\n"
    ),
}

CORPORA = (
    SynthesisConfig(num_files=25, seed=1),
    SynthesisConfig(num_files=25, seed=2, annotation_probability=0.3),
    SynthesisConfig(num_files=25, seed=3, annotation_probability=1.0),
)


def _sources():
    cases = [(f"edge:{name}", source) for name, source in EDGE_CASES.items()]
    for config in CORPORA:
        cases += [(f"seed{config.seed}:{entry.filename}", entry.source) for entry in generate_corpus(config)]
    return cases


SOURCES = _sources()


@pytest.mark.parametrize("label,source", SOURCES, ids=[label for label, _ in SOURCES])
def test_one_walk_matches_collector_and_eraser(label, source):
    collector = _OracleCollector()
    collector.visit(ast.parse(source))
    expected_text = ast.unparse(ast.fix_missing_locations(_OracleEraser().visit(ast.parse(source))))

    tree = ast.parse(source)
    annotations = take_annotations(tree)
    assert list(annotations.items()) == list(collector.annotations.items())
    assert ast.unparse(tree) == expected_text


@pytest.mark.parametrize("label,source", SOURCES, ids=[label for label, _ in SOURCES])
def test_augmentation_matches_return_annotator(label, source):
    assert _augment_with_inferred_annotations(source) == _oracle_augment(source)


def test_augmentation_fills_every_unannotated_redefinition():
    augmented = _augment_with_inferred_annotations(EDGE_CASES["augmented_redefinitions"])
    assert augmented != EDGE_CASES["augmented_redefinitions"]
    assert "def m(self) -> int:" in augmented


def test_edge_case_keys():
    """The rules the one walk keeps, spelled out on the edge cases."""
    def keys(name):
        return take_annotations(ast.parse(EDGE_CASES[name]))

    twice = keys("twice_annotated_and_redefined")
    assert twice[("module", "x", SymbolKind.VARIABLE)] == "str"  # the later annotation wins
    assert twice[("module.f", "a", SymbolKind.PARAMETER)] == "str"
    assert twice[("module.C.m", RETURN_SYMBOL_NAME, SymbolKind.FUNCTION_RETURN)] == "bytes"
    assert keys("self_attribute_in_init")[("module.C", "self.size", SymbolKind.VARIABLE)] == "float"
    nested = keys("self_attribute_in_nested_function")
    assert nested[("module.C.method", "self.count", SymbolKind.VARIABLE)] == "int"  # one level up
    assert nested[("module", "self.stray", SymbolKind.VARIABLE)] == "int"
    assert [name for _, name, _ in keys("parameter_kinds")] == ["a", "b", "c", "args", "kw", RETURN_SYMBOL_NAME]
    assert set(keys("subscript_and_attribute_targets")) == set()  # erased, but no symbol to key


def test_build_parses_twice(monkeypatch):
    """The builder parses the source once and the erased text once."""
    calls = []
    original = ast.parse

    def counting_parse(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    GraphBuilder().build(EDGE_CASES["nested_blocks"])
    assert len(calls) == 2
    assert calls[0] == EDGE_CASES["nested_blocks"]
