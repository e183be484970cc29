"""Source hygiene: no module imports a name it never reads.

A stdlib ``ast`` scan over every program, test, bench, script and
example module.  A name counts as read when it appears as a name
anywhere in its module, inside a string annotation, or in the module's
``__all__``.  Package ``__init__.py`` files are skipped: their imports
are the package's exports.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Set, Tuple

import pytest

REPO = Path(__file__).resolve().parent.parent
ROOTS = ("src", "tests", "benchmarks", "scripts", "examples")


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
