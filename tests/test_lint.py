"""Source hygiene: no module imports a name it never reads, and no
public name of the program is reached only from the tests.

Both are stdlib ``ast`` scans.  The import scan covers every program,
test, bench, script and example module.  A name counts as read when it
appears as a name anywhere in its module, inside a string annotation,
or in the module's ``__all__``.  The reach scan checks each public
top-level function and class of ``src/``: something other than a test
must name it, in code or in a docstring.  Package ``__init__.py``
files are skipped by both: their imports and export tables are the
package's exports.
"""

from __future__ import annotations

import ast
import itertools
import re
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Set, Tuple

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
    modules: Mapping[str, str], callers: Iterable[str] = ()
) -> List[str]:
    """``path:line: name`` of each public definition in ``modules``
    (path -> source) that neither ``modules`` nor ``callers`` (sources)
    mention."""
    mentioned: Set[str] = set()
    for source in itertools.chain(modules.values(), callers):
        mentioned |= names_mentioned(source)
    return [
        "%s:%d: %s" % (path, line, name)
        for path, source in sorted(modules.items())
        for line, name in public_definitions(source)
        if name not in mentioned
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


def test_no_public_name_only_tests_reach():
    callers = [source for root in CALLER_ROOTS[1:] for source in _sources(root).values()]
    found = unreached_definitions(_sources("src"), callers)
    assert not found, "public names that only tests reach:\n" + "\n".join(found)
