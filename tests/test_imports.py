"""Every name a raresum module imports is used in it.

There is no linter in the toolchain, so this test is the unused-import
check: it parses each module with `ast` and fails on an imported name that
the module never reads.  `__init__.py` exists to re-export, and
`REEXPORTS` lists the other names a module imports only for its callers.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "raresum"
# module -> names it imports only to re-export them (documented there)
REEXPORTS = {"cli.py": {"adaptive_estimate", "tilted_iid_estimate"}}


def unused_imports(source: str) -> set:
    """The names the module source imports but never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_no_unused_imports(module):
    unused = unused_imports((PACKAGE / module).read_text(encoding="utf-8"))
    assert unused == REEXPORTS.get(module, set()), f"{module} never uses {sorted(unused)}"


def test_unused_import_check_flags_and_passes():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from typing import Optional, Sequence\n"
              "def f(x: Optional[int]) -> int:\n    return np.abs(x)\n")
    assert unused_imports(source) == {"os", "Sequence"}
