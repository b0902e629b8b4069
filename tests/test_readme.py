"""The examples of README.md run as printed."""

import json
import re
from pathlib import Path

from ttm.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["fib"].legal.is_infinitely_legal((0, 2))


def test_readme_exact_radius_prints_as_stated(tmp_path, capsys):
    """``spectrum --exact`` and ``ergodic --exact`` print the radius of
    a -> a b, b -> a as the endpoint pair that README.md states."""
    pair, = re.findall(r"the radius of `a -> a b,\s+b -> a` prints as `(\[.*?\])`",
                       README.read_text(encoding="utf-8"))
    path = tmp_path / "fib.tt"
    path.write_text("graph R { vertices: v ; edge a: v -> v ; edge b: v -> v ; }\n"
                    "map f: R -> R { a -> a b ; b -> a ; }\n"
                    "subst s over a b { a -> a b ; b -> a }\n")
    assert main(["spectrum", str(path), "--map", "f", "--exact"]) == 0
    assert json.loads(capsys.readouterr().out)["blocks"][0]["spectral_radius"] == pair
    assert main(["ergodic", str(path), "--subst", "s", "--exact"]) == 0
    assert json.loads(capsys.readouterr().out)["measures"][0]["eigenvalue"] == pair
