"""Module layering of ``ttm``: every import sits at module level and is
used, and the dependencies, names and parameters that the unreached-code
trims removed stay removed."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import ttm

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ttm"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))

# module -> ttm modules (or "module.name" imports) it must not use
REMOVED_DEPENDENCIES = {
    "towers": {"dialects", "maps.matmul"},
    "textio": {"measures"},
    "maps": {"polys"},
    "measures": {"maps.used_language", "maps.search_covers"},
}

# module -> names ("Class.attr" for members, "function(parameter)" for
# parameters) that no command, benchmark job or tracer reached
REMOVED_NAMES = {
    "graphs": {"Language", "Graph.check_path", "Graph.reduced_paths(start)"},
    "maps": {"power", "junction_turns", "legal_seeds", "infinitely_legal_language",
             "LegalPullbacks.seeds", "search_covers", "GraphMap.cover_starts",
             "GraphMap.reduced_successors", "_spanning_tree", "_tree_path", "_loop_word",
             "fundamental_group_images", "subgroup_is_whole_group"},
    "polys": {"poly_eval", "poly_divmod", "poly_gcd", "is_zero_poly", "_integer_multiple",
              "_integer_candidates", "char_poly_at"},
    "intervals": {"format_interval(digits)", "is_exact_zero", "_sum"},
    "cli": {"DIGITS", "fmt", "_table_rows", "_value_texts"},
    "textio": {"_TOKEN", "format_table_tsv(rows)", "format_table_tsv(default)",
               "_Parser.bad_edge", "_Parser.bad_vertex", "_Parser.bad_image",
               "_Parser.bad_letter_image", "_Parser.new_name", "_Parser.keyword",
               "_Parser.names_until", "_Parser.unknown", "_Parser.upto"},
    "towers": {"StationaryTower.path_image", "WeightTower.edge_weight_at",
               "WeightTower.turn_weight_at", "StationaryTower.pullbacks",
               "VectorTower", "WeightTower.check_switch_conditions",
               "weight_tower_from_vector(vt)"},
    "dialects": {"BlowUp.local_vertex", "BlowUp.nonlocal_edge", "BlowUp.base_edge",
                 "BlowUp.turn_of_local", "blowup_isomorphism", "keyed_edge_bijection",
                 "maps_equal_via", "BlowUp.check_structure", "ShortForm.base_map",
                 "ShortForm.parent", "LongForm.base"},
    "substitutions": {"to_train_track", "_is_primitive_word", "SubshiftMeasure.tower",
                      "_is_integer"},
    "spectra": {"BlockForm.permutation", "BlockForm.permuted_matrix", "_cyclic_classes",
                "_reachability"},
    "measures": {"recover_weights(enforce_bound)", "KolmogorovFunction._sweep_at",
                 "_walk_order", "_kirchhoff_walk", "_pushforward_walk",
                 "_common", "_definitely_less", "_ZERO_RECIPE", "_walk",
                 "_EXACT_ZERO", "_sub", "_magnitudes", "_pushforward",
                 "_require_pushforward", "KolmogorovFunction._value",
                 "KolmogorovFunction._values", "KolmogorovFunction._scale",
                 "KolmogorovFunction._level_sweep", "_NO_RECIPE"},
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


@pytest.mark.parametrize("module,name", [
    pytest.param(module, name, id=f"{module}.{name}")
    for module in sorted(REMOVED_NAMES) for name in sorted(REMOVED_NAMES[module])])
def test_removed_names_stay_removed(module, name):
    owner = importlib.import_module(f"ttm.{module}")
    path, _, parameter = name.rstrip(")").partition("(")
    *owners, attr = path.split(".")
    for o in owners:
        owner = getattr(owner, o)
    if parameter:
        assert parameter not in inspect.signature(getattr(owner, attr)).parameters
    else:
        assert not hasattr(owner, attr)
        if isinstance(owner, type):   # nor as a field that the constructor takes
            assert attr not in inspect.signature(owner).parameters
        assert owners or not hasattr(ttm, attr), "still exported by ttm"


def test_cli_does_not_load_dialects():
    """The presentations are library surface only: no command reaches them."""
    probe = "import sys, ttm.cli; print('ttm.dialects' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], cwd=SRC.parent,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_runtime_does_not_load_mpmath():
    """The interval kernel is the package's own: neither importing the
    command line nor running a command loads mpmath, the tests' reference."""
    probe = "import sys, ttm.cli; print(any(m.startswith('mpmath') for m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], cwd=SRC.parent,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
    maps = TESTS.parent / "bench" / "inputs" / "maps.tt"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "ttm", "spectrum",
                           str(maps), "--map", "q2"], cwd=SRC.parent,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and '"distinguished"' in proc.stdout, proc.stderr
    imported = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "ttm.intervals" in imported
    assert [m for m in imported if m.startswith("mpmath")] == []


def imported_packages(path):
    """The top-level packages that a module imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    names += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    return {m.partition(".")[0] for m in names}


def test_no_module_imports_mpmath():
    for path in sorted(SRC.glob("*.py")):
        assert "mpmath" not in imported_packages(path), path.name


def test_cli_does_not_load_dataclasses():
    """The records are plain classes: the command line pays neither the
    import of ``dataclasses`` nor the decoration of its classes."""
    probe = "import sys, ttm.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], cwd=SRC.parent,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_no_module_imports_dataclasses():
    for path in sorted(SRC.glob("*.py")):
        assert "dataclasses" not in imported_packages(path), path.name


# the package re-exports its names; the acceptance suite is kept as written
UNUSED_IMPORTS_ALLOWED = {SRC / "__init__.py", TESTS / "test_acceptance.py"}


def unused_module_imports(path):
    """Names bound by a module-level import that the file never references."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {(a.asname or a.name).partition(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for a in node.names}
    return sorted(bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})


def test_no_unused_module_imports():
    files = [p for p in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
             if p not in UNUSED_IMPORTS_ALLOWED]
    unused = {p.name: unused_module_imports(p) for p in files}
    assert {name: names for name, names in unused.items() if names} == {}
