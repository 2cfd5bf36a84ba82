"""Every module-level import of `coxkl` is used.

No linter runs on this package, so a name left behind when code moves
between modules is caught here: each name that a top-level `import` binds
must be read somewhere in its module, or be listed in `__all__`.
"""

import ast
from pathlib import Path

import pytest

import coxkl

SOURCES = sorted(Path(coxkl.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of source that it never
    reads and does not list in `__all__`, in import order."""
    tree = ast.parse(source)
    bound, used = [], set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    used.update(
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    )
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_import_check_names_what_is_unused():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from x import a, b as c, d\n"
        "__all__ = ['a']\n"
        "d = js.dumps(c)\n"
    )
    assert unused_imports(source) == ["os", "d"]
