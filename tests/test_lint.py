"""Source hygiene: no module imports a name it never reads, and no
public name, member or switch of the program is reached only from the
tests.

All are stdlib ``ast`` scans.  The import scan covers every program,
test, bench, script and example module.  A name counts as read when it
appears as a name anywhere in its module, inside a string annotation,
or in the module's ``__all__``.  The reach scans check ``src/``
against the program's own trees (``CALLER_ROOTS``, no tests): each
public top-level function and class, and each public method and
property of a public class, must be named there, in code or in a
docstring; each ``True``/``False`` default of a parameter or class
field must be passed something else there.  All match by name, so a
same-named caller hides an unused definition.  Package ``__init__.py``
files are skipped: their imports and export tables are the package's
exports.
"""

from __future__ import annotations

import ast
import itertools
import re
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

import pytest

REPO = Path(__file__).resolve().parent.parent
ROOTS = ("src", "tests", "benchmarks", "scripts", "examples")
#: Trees whose modules keep a public ``src/`` name alive by naming it.
CALLER_ROOTS = ("src", "examples", "benchmarks", "perfbench", "scripts")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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


def public_definitions(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of every public top-level function and class."""
    return [
        (node.lineno, node.name)
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def names_mentioned(source: str) -> Set[str]:
    """Every name a module mentions: names, attributes, imported names
    and the words of its strings (docstrings and doctests included).
    A definition's own name is not a mention."""
    names: Set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(_WORD.findall(node.value))
    return names


def unreached_definitions(
    modules: Mapping[str, str],
    callers: Iterable[str] = (),
    definitions: Callable[[str], List[Tuple[int, str]]] = public_definitions,
) -> List[str]:
    """``path:line: label`` of each of the ``definitions`` in ``modules``
    (path -> source) whose name, the label's last dotted part, neither
    ``modules`` nor ``callers`` (sources) mention."""
    mentioned: Set[str] = set()
    for source in itertools.chain(modules.values(), callers):
        mentioned |= names_mentioned(source)
    return [
        "%s:%d: %s" % (path, line, label)
        for path, source in sorted(modules.items())
        for line, label in definitions(source)
        if label.rpartition(".")[2] not in mentioned
    ]


def _sources(root: str) -> Dict[str, str]:
    return {
        str(path.relative_to(REPO)): path.read_text(encoding="utf-8")
        for path in sorted((REPO / root).rglob("*.py"))
        if path.name != "__init__.py"
    }


class TestReachScanner:
    def test_finds_a_name_only_tests_reach(self):
        modules = {
            "src/a.py": "def used(): ...\ndef unused(): ...\nclass _Private: ...\n",
            "src/b.py": "from .a import used\nused()\n",
        }
        assert unreached_definitions(modules) == ["src/a.py:2: unused"]

    def test_own_module_callers_and_docstrings_count(self):
        modules = {
            "src/a.py": (
                "def helper(): ...\n"
                "def main():\n    return helper()\n"
                "class Report:\n    '''What :func:`build` returns.'''\n"
                "def build():\n    '''Return a :class:`Report`.'''\n"
                "def twice(n):\n    '''>>> twice(2)\n    4'''\n"
            ),
        }
        assert unreached_definitions(modules, ["import a\na.main()\n"]) == []

    def test_the_definition_alone_is_no_mention(self):
        modules = {"src/a.py": "class Lonely:\n    def method(self): ...\n# Lonely\n"}
        assert unreached_definitions(modules) == ["src/a.py:1: Lonely"]


def _callers() -> List[str]:
    """The sources of every caller tree but ``src/``."""
    return [source for root in CALLER_ROOTS[1:] for source in _sources(root).values()]


def test_no_public_name_only_tests_reach():
    found = unreached_definitions(_sources("src"), _callers())
    assert not found, "public names that only tests reach:\n" + "\n".join(found)


def public_members(source: str) -> List[Tuple[int, str]]:
    """``(line, "Class.member")`` of every public method and property of
    each public top-level class."""
    return [
        (item.lineno, "%s.%s" % (node.name, item.name))
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
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


class TestMemberScanner:
    def test_finds_a_member_only_tests_read(self):
        modules = {
            "src/a.py": (
                "class Report:\n"
                "    def used(self): ...\n"
                "    @property\n    def unused(self): ...\n"
                "    def _private(self): ...\n"
                "class _Hidden:\n    def lonely(self): ...\n"
            ),
            "src/b.py": "def show(report):\n    return report.used()\n",
        }
        assert unreached_definitions(modules, definitions=public_members) == [
            "src/a.py:4: Report.unused"
        ]

    def test_callers_and_docstrings_count(self):
        modules = {
            "src/a.py": (
                "class Report:\n"
                "    def rows(self): ...\n"
                "    def total(self):\n        'Sum of :meth:`rows`.'\n"
            ),
        }
        callers = ["print(report.total())\n"]
        assert unreached_definitions(modules, callers, public_members) == []


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


#: Public members the program does not read, kept because a test or a
#: doc observes behaviour through them.
KEPT_MEMBERS = {
    "CacheStats.as_dict": "docs/caching.md prints it",
    "CacheStore.in_memory": "tests build their disk-less stores with it",
    "IslandStateMachine.state_at": "tests read an island's state at a time through it",
    "DiskTier.entry_count": "tests count the stored blobs through it",
    "SocPower.noc_dynamic_fraction": "test_integration.py's NoC < 10% check",
    "IslandEconomics.gate_net_gain_uj": "docs/runtime.md's break-even identity",
    "ScheduleSavings.net_savings_mw": "the gating-schedule economics tests",
    "ScheduleSavings.overhead_fraction": "the gating-schedule economics tests",
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


def test_no_public_member_only_tests_read():
    found = unreached_definitions(_sources("src"), _callers(), public_members)
    unread, stale = _unkept(found, KEPT_MEMBERS)
    assert not unread, "public members that only tests read:\n" + "\n".join(unread)
    assert not stale, "kept members the program now reads: %s" % stale


def test_no_switch_only_tests_set():
    unset, stale = _unkept(unset_options(_sources("src"), _callers()), KEPT_OPTIONS)
    assert not unset, "boolean defaults that only tests set:\n" + "\n".join(unset)
    assert not stale, "kept options the program now sets: %s" % stale
