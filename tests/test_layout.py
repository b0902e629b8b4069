"""Module layering of ``ttm``: every import sits at module level, and the
dependencies that the unreached-code trim removed stay removed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ttm"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))

# module -> ttm modules (or "module.name" imports) it must not use
REMOVED_DEPENDENCIES = {
    "towers": {"dialects", "maps.matmul"},
    "textio": {"measures"},
    "maps": {"polys"},
}


def tree_of(module):
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def ttm_imports(tree):
    """The ttm modules a module imports, plus ``module.name`` for each name
    taken from one."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module)
                out.update(f"{node.module}.{a.name}" for a in node.names)
            else:
                out.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            out.update(a.name.removeprefix("ttm.") for a in node.names
                       if a.name.startswith("ttm."))
    return out


def test_modules_found():
    assert {"graphs", "maps", "towers", "measures", "textio", "cli"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_imports_at_module_level(module):
    local = [(fn.name, node.lineno)
             for fn in ast.walk(tree_of(module))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert local == [], f"function-local imports in ttm.{module}"


@pytest.mark.parametrize("module", sorted(REMOVED_DEPENDENCIES))
def test_removed_dependencies_stay_removed(module):
    used = ttm_imports(tree_of(module))
    assert not used & REMOVED_DEPENDENCIES[module], sorted(used)
