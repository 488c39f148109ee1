"""Every imported name in the package, the tests and the demos is used.

No linter runs on this repository, so this AST scan stands in for one.  A
dotted ``import a.b`` without an alias is taken as a side-effect import and
skipped; so is ``from __future__ import ...``.  A name counts as used when
the module reads it or exports it in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "graphspde").glob("*.py"),
                *(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


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


def test_scan_finds_an_unused_import():
    source = ("import os\nimport os.path\nfrom math import pi, tau as t\n"
              "__all__ = ['pi']\n")
    assert unused_imports(source) == ["line 1: os", "line 3: t"]


@pytest.mark.parametrize("path", FILES,
                         ids=[str(f.relative_to(ROOT)) for f in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
