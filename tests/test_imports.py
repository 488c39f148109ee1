"""Every imported name in the package, the tests and the demos is used,
and every private name the package defines is read by the package.

No linter runs on this repository, so these AST scans stand in for one.  A
dotted ``import a.b`` without an alias is taken as a side-effect import and
skipped; so is ``from __future__ import ...``.  A name counts as used when
the module reads it or exports it in ``__all__``.  A private function,
class, method or module-level constant (a name with one leading
underscore) counts as read when some package module loads a name or an
attribute of that name, or imports it; a helper only the tests call
belongs with the tests.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "graphspde").glob("*.py"))
FILES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py"),
                *(ROOT / "demos").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname or "." not in alias.name:
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            try:
                used.update(ast.literal_eval(node.value))
            except ValueError:
                # A computed __all__ (the package's, from dir()) exports
                # every public name.
                used.update(n for n in imported if not n.startswith("_"))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    defined, read = {}, set()
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:  # module-level constants
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            defined.setdefault(leaf.id,
                                               f"{name}:{leaf.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.setdefault(node.name, f"{name}:{node.lineno}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                                ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{where}: {name}" for name, where in sorted(defined.items())
            if name.startswith("_") and not name.startswith("__")
            and name not in read]


def test_scan_finds_an_unused_import():
    source = ("import os\nimport os.path\nfrom math import pi, tau as t\n"
              "__all__ = ['pi']\n")
    assert unused_imports(source) == ["line 1: os", "line 3: t"]


@pytest.mark.parametrize("path", FILES,
                         ids=[str(f.relative_to(ROOT)) for f in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unread_private_name():
    sources = {
        "a.py": ("_TOL = 1.0\n_UNREAD: float = 2.0\n__all__ = []\n"
                 "def _used():\n    return _TOL\n"
                 "class _Box:\n    def _method(self):\n        pass\n"
                 "    def __init__(self):\n        self._field = 0\n"),
        "b.py": "from a import _used\n_Box()._field\n",
    }
    assert unread_private_names(sources) == ["a.py:2: _UNREAD",
                                             "a.py:7: _method"]


def test_no_private_name_only_the_tests_read():
    assert unread_private_names({str(path.relative_to(ROOT)): path.read_text()
                                 for path in PACKAGE}) == []
