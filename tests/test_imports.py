"""Every name a raresum module imports is used in it, and every name the
benchmark tracer wraps exists.

There is no linter in the toolchain, so this test is the unused-import
check: it parses each module with `ast` and fails on an imported name that
the module never reads.  `__init__.py` exists to re-export, and
`REEXPORTS` lists the other names a module imports only for its callers.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "raresum"
TRACER = PACKAGE.parent.parent / "raresum_bench" / "tracer.py"
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


def tracer_wrapped_names() -> set:
    """(module, name) of each raresum attribute that `Tracer.installed` in
    the benchmark's tracer reads, parsed from its source."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    tracer = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "Tracer")
    installed = next(node for node in tracer.body
                     if isinstance(node, ast.FunctionDef) and node.name == "installed")
    modules = {a.asname or a.name for node in ast.walk(installed)
               if isinstance(node, ast.ImportFrom) and node.module == "raresum"
               for a in node.names}
    return {(node.value.id, node.attr) for node in ast.walk(installed)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def test_tracer_wraps_only_names_that_exist():
    # the benchmark's traced pass fails when a wrapped name is gone; this
    # catches a refactor that drops one in tier-1 already
    names = tracer_wrapped_names()
    assert {("pathgen", "sample_path"), ("pathgen", "step_params"),
            ("pathgen", "tilted_tail_sampler")} <= names
    missing = [f"raresum.{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(f"raresum.{module}"), name)]
    assert not missing, f"the benchmark tracer wraps missing names {missing}"
