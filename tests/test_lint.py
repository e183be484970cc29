"""Source hygiene: no module imports a name it never reads, and no
definition or switch of the program is reached only from the tests.

All are stdlib ``ast`` scans.  The import scan covers every program,
test, bench, script and example module.  A name counts as read when it
appears as a name anywhere in its module, inside a string annotation,
or in the module's ``__all__``.  The other two check ``src/`` against
the program's own trees (``CALLER_ROOTS``, no tests).  The reach scan
is a fixpoint from the program's entry points (the examples, benches,
perfbench and scripts, and each ``src/`` module's top-level
statements): each top-level function and class and each method and
property, private ones included, must be mentioned in code that is
itself reached.  Docstrings and other strings mention nothing.  Its
findings are reported in two parts, top-level definitions and
members.  The
switch scan asks that each ``True``/``False`` default of a parameter
or class field be passed something else there.  Both match by name, so
a same-named caller hides an unused definition.  Package
``__init__.py`` files are skipped: their imports and export tables
are the package's exports.
"""

from __future__ import annotations

import ast
import functools
import itertools
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

import pytest

REPO = Path(__file__).resolve().parent.parent
ROOTS = ("src", "tests", "benchmarks", "scripts", "examples")
#: The program and the trees that run it: examples, paper benches, the
#: repo benchmark and scripts.
CALLER_ROOTS = ("src", "examples", "benchmarks", "perfbench", "scripts")


def _annotation_names(node: ast.AST) -> Set[str]:
    """Names an annotation reads, the ones inside string annotations too."""
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unread_imports(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of every imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    read: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            read |= _annotation_names(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {
                c.value
                for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }
    return sorted((line, name) for name, line in imported.items() if name not in read)


class TestScanner:
    def test_finds_an_unread_import(self):
        assert unread_imports("import os\nfrom typing import List, Set\nx: List = []\n") == [
            (1, "os"),
            (2, "Set"),
        ]

    def test_string_annotations_and_all_count_as_reads(self):
        source = (
            "from typing import Optional\n"
            "from .spec import SoCSpec\n"
            "from .power import noc_power\n"
            "__all__ = ['noc_power']\n"
            "def f(spec: 'Optional[SoCSpec]') -> None: ...\n"
        )
        assert unread_imports(source) == []

    def test_dotted_import_binds_its_first_name(self):
        assert unread_imports("import os.path\nos.sep\n") == []


@pytest.mark.parametrize("root", ROOTS)
def test_no_unused_imports(root):
    found = []
    for path in sorted((REPO / root).rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unread_imports(path.read_text(encoding="utf-8")):
            found.append("%s:%d: %s" % (path.relative_to(REPO), line, name))
    assert not found, "imported but never read:\n" + "\n".join(found)


def _sources(root: str) -> Dict[str, str]:
    return {
        str(path.relative_to(REPO)): path.read_text(encoding="utf-8")
        for path in sorted((REPO / root).rglob("*.py"))
        if path.name != "__init__.py"
    }


def _callers() -> List[str]:
    """The sources of every caller tree but ``src/``."""
    return [source for root in CALLER_ROOTS[1:] for source in _sources(root).values()]


#: Calls whose constant string arguments name attributes, and which.
_NAME_GETTERS = {"getattr": slice(1, 2), "hasattr": slice(1, 2), "attrgetter": slice(None)}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def code_mentions(nodes: Iterable[ast.AST]) -> Set[str]:
    """Every name ``nodes`` mention in code: names, attributes, imported
    names and the constant names passed to ``getattr``, ``hasattr`` and
    ``attrgetter``.  Strings, docstrings included, mention nothing, and
    a definition's own name is not a mention."""
    names: Set[str] = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.alias):
                names.add(sub.name.rpartition(".")[2])
            elif isinstance(sub, ast.Call):
                func = sub.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                for arg in sub.args[_NAME_GETTERS.get(called, slice(0))]:
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                        names.update(arg.value.split("."))
    return names


class _Definition:
    """A top-level function or class, or a method or property of one."""

    def __init__(self, where: str, label: str, owner: Optional["_Definition"], code: List[ast.AST]):
        self.where = where
        self.label = label
        self.name = label.rpartition(".")[2]
        self.owner = owner
        self.code = code
        self.reached = False

    def reachable(self, mentioned: Set[str]) -> bool:
        if self.owner is None:
            return self.name in mentioned
        dunder = self.name.startswith("__") and self.name.endswith("__")
        return self.owner.reached and (dunder or self.name in mentioned)


def _definitions(path: str, source: str, mentioned: Set[str]) -> List[_Definition]:
    """The definitions of one module; adds what its other top-level
    statements mention to ``mentioned``."""
    found: List[_Definition] = []
    for node in ast.parse(source).body:
        where = "%s:%d" % (path, node.lineno)
        if isinstance(node, _FUNCTIONS):
            found.append(_Definition(where, node.name, None, [node]))
        elif isinstance(node, ast.ClassDef):
            members = [item for item in node.body if isinstance(item, _FUNCTIONS)]
            rest = [item for item in node.body if not isinstance(item, _FUNCTIONS)]
            cls = _Definition(
                where, node.name, None, node.bases + node.keywords + node.decorator_list + rest
            )
            found.append(cls)
            for item in members:
                label = "%s.%s" % (node.name, item.name)
                found.append(_Definition("%s:%d" % (path, item.lineno), label, cls, [item]))
        else:
            mentioned |= code_mentions([node])
    return found


def unreached_definitions(modules: Mapping[str, str], roots: Iterable[str] = ()) -> List[str]:
    """``path:line: label`` of each definition in ``modules`` (path ->
    source) that the program cannot reach.

    The ``roots`` (sources) are reached code, and so is every top-level
    statement of ``modules`` that defines no function or class.  A
    top-level function or class is reached once reached code mentions
    its name, and a method or property once its class is reached and
    reached code mentions its name; dunder methods come with their
    class.  A reached definition's code is reached code.  A name matches
    every definition of that name, whatever it belongs to.  Members of
    an unreached class are not listed apart from it.
    """
    mentioned = code_mentions(ast.parse(source) for source in roots)
    definitions = [
        definition
        for path, source in sorted(modules.items())
        for definition in _definitions(path, source, mentioned)
    ]
    grew = True
    while grew:
        grew = False
        for definition in definitions:
            if not definition.reached and definition.reachable(mentioned):
                definition.reached = grew = True
                mentioned |= code_mentions(definition.code)
    return [
        "%s: %s" % (d.where, d.label)
        for d in definitions
        if not d.reached and (d.owner is None or d.owner.reached)
    ]


class TestReachScanner:
    def test_finds_a_name_only_tests_reach(self):
        modules = {
            "src/a.py": "def used(): ...\ndef unused(): ...\nclass _Private: ...\n",
            "src/b.py": "from .a import used\nused()\n",
        }
        assert unreached_definitions(modules) == [
            "src/a.py:2: unused",
            "src/a.py:3: _Private",
        ]

    def test_the_definition_alone_is_no_mention(self):
        modules = {"src/a.py": "class Lonely:\n    def method(self): ...\n# Lonely\n"}
        assert unreached_definitions(modules) == ["src/a.py:1: Lonely"]

    def test_a_docstring_mention_reaches_nothing(self):
        modules = {
            "src/a.py": (
                "def helper(): ...\n"
                "def main():\n    \'\'\'Calls :func:`helper`.\'\'\'\n"
                "main()\n"
            ),
        }
        assert unreached_definitions(modules) == ["src/a.py:1: helper"]

    def test_a_chain_of_dead_functions_is_dead(self):
        modules = {"src/a.py": "def first():\n    return second()\ndef second(): ...\n"}
        assert unreached_definitions(modules) == [
            "src/a.py:1: first",
            "src/a.py:3: second",
        ]

    def test_a_private_function_only_dead_code_calls_is_dead(self):
        modules = {
            "src/a.py": (
                "def _helper(): ...\n"
                "def dead():\n    return _helper()\n"
                "def live(): ...\n"
            ),
        }
        assert unreached_definitions(modules, ["from a import live\nlive()\n"]) == [
            "src/a.py:1: _helper",
            "src/a.py:2: dead",
        ]

    def test_a_getattr_string_names_a_member(self):
        modules = {
            "src/a.py": (
                "class Box:\n"
                "    def size(self): ...\n"
                "    def weight(self): ...\n"
                "getattr(Box(), 'size')()\n"
            ),
        }
        assert unreached_definitions(modules) == ["src/a.py:3: Box.weight"]

    def test_dunder_methods_come_with_a_reached_class(self):
        modules = {
            "src/a.py": (
                "class Point:\n"
                "    def __init__(self): ...\n"
                "    def __repr__(self): ...\n"
                "    def unused(self): ...\n"
                "class Lonely:\n"
                "    def __init__(self): ...\n"
                "POINT = Point()\n"
            ),
        }
        assert unreached_definitions(modules) == [
            "src/a.py:4: Point.unused",
            "src/a.py:5: Lonely",
        ]


def _is_bool(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is bool


def bool_options(source: str) -> List[Tuple[int, str, str, bool]]:
    """``(line, label, name, default)`` of every ``True``/``False``
    default of a parameter (labelled ``f(name)`` or ``Class.f(name)``)
    and of an annotated class field (``Class.name``), at any depth."""
    found: List[Tuple[int, str, str, bool]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                for item in child.body:
                    if (
                        isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and _is_bool(item.value)
                    ):
                        label = "%s%s.%s" % (prefix, child.name, item.target.id)
                        found.append((item.lineno, label, item.target.id, item.value.value))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
                defaulted += zip(args.kwonlyargs, args.kw_defaults)
                for arg, default in defaulted:
                    if _is_bool(default):
                        label = "%s%s(%s)" % (prefix, child.name, arg.arg)
                        found.append((default.lineno, label, arg.arg, default.value))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def values_passed(source: str) -> Dict[str, List[object]]:
    """Name -> the values a module passes under that name: by keyword
    argument, or as a string key of a dict literal (for ``**`` passing).
    A constant counts as its value and any other expression as ``...``;
    a ``name=name`` pass-through passes nothing."""
    passed: Dict[str, List[object]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            pairs = [(kw.arg, kw.value) for kw in node.keywords if kw.arg]
        elif isinstance(node, ast.Dict):
            pairs = [
                (key.value, value)
                for key, value in zip(node.keys, node.values)
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            ]
        else:
            continue
        for name, value in pairs:
            if isinstance(value, ast.Name) and value.id == name:
                continue
            passed.setdefault(name, []).append(
                value.value if isinstance(value, ast.Constant) else ...
            )
    return passed


def unset_options(modules: Mapping[str, str], callers: Iterable[str] = ()) -> List[str]:
    """``path:line: label`` of each boolean default in ``modules`` that
    neither ``modules`` nor ``callers`` pass anything else under its
    name."""
    passed: Dict[str, List[object]] = {}
    for source in itertools.chain(modules.values(), callers):
        for name, values in values_passed(source).items():
            passed.setdefault(name, []).extend(values)
    return [
        "%s:%d: %s" % (path, line, label)
        for path, source in sorted(modules.items())
        for line, label, name, default in bool_options(source)
        if all(value is default for value in passed.get(name, ()))
    ]


class TestOptionScanner:
    def test_finds_a_switch_only_tests_set(self):
        modules = {
            "src/a.py": (
                "def power(t, lengths=True, *, ni=False): ...\n"
                "class Config:\n    strict: bool = False\n    k: int = 1\n"
                "    def run(self, fast=True): ...\n"
            ),
            "src/b.py": "power(t, lengths=True, ni=flag)\nConfig(k=2)\n",
        }
        assert unset_options(modules) == [
            "src/a.py:1: power(lengths)",
            "src/a.py:3: Config.strict",
            "src/a.py:5: Config.run(fast)",
        ]

    def test_other_constants_expressions_and_dict_keys_count(self):
        modules = {"src/a.py": "def f(a=True, b=False, c=True): ...\n"}
        callers = ["f(a=False)\n", "f(b=args.b)\n", "f(**{'c': None})\n"]
        assert unset_options(modules, callers) == []

    def test_a_pass_through_sets_nothing(self):
        modules = {"src/a.py": "def f(a=True): ...\ndef g(a=True):\n    f(a=a)\n"}
        assert unset_options(modules) == ["src/a.py:1: f(a)", "src/a.py:2: g(a)"]


#: Definitions the program does not reach, kept on purpose.
KEPT_UNREACHED = {
    "CacheStats.as_dict": "docs/caching.md prints it",
    "CacheStore.in_memory": "tests build their disk-less stores with it",
    "DiskTier.entry_count": "tests count the stored blobs through it",
    "IslandStateMachine.state_at": "tests read an island's state at a time through it",
    "SocPower.noc_dynamic_fraction": "test_integration.py's NoC < 10% check",
    "IslandEconomics.gate_net_gain_uj": "docs/runtime.md's break-even identity",
    "SoCSpec.core_peak_bandwidth_mbps": (
        "the exact reference test_spec.py compares core_peak_bandwidths against"
    ),
    "_RecordPickler.reducer_override": "pickle calls it by name",
}

#: Boolean defaults the program never sets, kept on purpose.
KEPT_OPTIONS = {
    "PathCostConfig.allow_parallel_links": (
        "a field of the keyed SynthesisConfig.path_cost: deleting it moves "
        "every design_space_key, so it waits for a SCHEMA_VERSION bump"
    ),
}


def _unkept(found: List[str], kept: Mapping[str, str]) -> Tuple[List[str], List[str]]:
    """The findings ``kept`` does not name, and the ``kept`` entries
    no longer found."""
    labels = {line.rpartition(": ")[2] for line in found}
    return (
        [line for line in found if line.rpartition(": ")[2] not in kept],
        sorted(set(kept) - labels),
    )


@functools.lru_cache(maxsize=None)
def _program_unreached() -> Tuple[str, ...]:
    """The reach scan's findings on the program, run once per session."""
    return tuple(unreached_definitions(_sources("src"), _callers()))


def _assert_reached(members: bool) -> None:
    """The reach scan finds no top-level definition (``members`` false)
    or no method or property (``members`` true) outside the allowlist."""

    def is_member(label: str) -> bool:
        return "." in label

    found = [
        line for line in _program_unreached() if is_member(line.rpartition(": ")[2]) == members
    ]
    kept = {label: why for label, why in KEPT_UNREACHED.items() if is_member(label) == members}
    unreached, stale = _unkept(found, kept)
    assert not unreached, "definitions the program cannot reach:\n" + "\n".join(unreached)
    assert not stale, "kept definitions the program now reaches: %s" % stale


def test_no_public_name_only_tests_reach():
    """Every top-level function and class, private ones too."""
    _assert_reached(members=False)


def test_no_public_member_only_tests_read():
    """Every method and property of a top-level class, private ones too."""
    _assert_reached(members=True)


def test_no_switch_only_tests_set():
    unset, stale = _unkept(unset_options(_sources("src"), _callers()), KEPT_OPTIONS)
    assert not unset, "boolean defaults that only tests set:\n" + "\n".join(unset)
    assert not stale, "kept options the program now sets: %s" % stale
