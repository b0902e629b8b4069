import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ttm
import ttm.intervals as ia
from ttm import maps
from ttm.cli import main, pick_vector
from ttm.maps import DirectionAnalysis
from ttm.towers import StationaryTower, WeightTower

from conftest import rose_map

DATA = Path(__file__).resolve().parent / "data"

FIB_DOC = """
graph R { vertices: * ; edge a: * -> * ; edge b: * -> * ; }
map f: R -> R { vertex * -> * ; a -> a b ; b -> a ; }
map bad: R -> R { vertex * -> * ; a -> a b ; b -> ~a ; }
subst fib over a b { a -> a b ; b -> a }
subst three over a b c { a -> a b ; b -> b a ; c -> c c c a b }
"""


@pytest.fixture()
def fib_file(tmp_path):
    path = tmp_path / "fib.tt"
    path.write_text(FIB_DOC)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check(fib_file, capsys):
    code, out, _ = run(capsys, "check", fib_file, "--map", "f")
    assert code == 0
    assert "train-track: yes" in out
    assert "expanding: yes" in out
    assert "homotopy-equivalence: yes" in out
    assert "repetition-bound[level 1]: 1" in out


def test_check_rejects(fib_file, capsys):
    code, out, _ = run(capsys, "check", fib_file, "--map", "bad")
    assert code == 0
    assert "train-track: no" in out
    assert "unreduced" in out


def test_verify_passes(fib_file, capsys):
    code, out, _ = run(capsys, "verify", fib_file, "--map", "f",
                       "--max-len", "5", "--tol", "1e-12")
    assert code == 0
    assert out.count("pass") == 5


def test_verify_fails_on_bad_map(fib_file, capsys):
    code, _, err = run(capsys, "verify", fib_file, "--map", "bad",
                       "--max-len", "4", "--tol", "1e-12")
    assert code == 3  # precondition: not a train track map


@pytest.mark.parametrize("tol,status", [("1e-12", "FAIL"), ("0", "INCONCLUSIVE"),
                                        ("1e-12", "pass")])
def test_verify_switch_verdict(fib_file, capsys, monkeypatch, tol, status):
    """The switch suite follows the verdict rule of the other suites: a
    violation provably beyond the tolerance fails, one whose interval
    straddles it is inconclusive.  The failing measure has the weight of the
    edge a raised by 1/1000, which breaks the switch condition at a and
    moves the value of (a,) away from the oracle's estimate."""
    if status == "FAIL":
        build = ttm.cli.eigenvector_measure

        def perturbed(*args):
            kf = build(*args)
            kf.weights.edge_weight[0] = kf.weights.edge_weight[0] + ia.exact(1) / 1000
            return kf

        monkeypatch.setattr(ttm.cli, "eigenvector_measure", perturbed)
    code, out, _ = run(capsys, "verify", fib_file, "--map", "f",
                       "--max-len", "2", "--tol", tol)
    assert f"switch conditions: {status} (" in out
    # the oracle compares |eval - estimate| beyond the tail bound with --tol;
    # single edges have tail bound 0, so at --tol 0 they cannot be proved
    assert f"oracle agreement: {status} (" in out
    assert code == (0 if status == "pass" else 4)


def test_measure_table(fib_file, capsys):
    code, out, _ = run(capsys, "measure", fib_file, "--map", "f",
                       "--table-up-to", "3")
    assert code == 0
    lines = dict(line.split("\t") for line in out.strip().splitlines())
    assert lines["a"].startswith("1.6180339887")
    assert lines["a a"].startswith("0.6180339887")
    assert lines["b b"] == "0.0"


def test_measure_deterministic(fib_file, capsys):
    _, first, _ = run(capsys, "measure", fib_file, "--map", "f",
                      "--table-up-to", "3")
    _, second, _ = run(capsys, "measure", fib_file, "--map", "f",
                       "--table-up-to", "3")
    assert first == second


def test_measure_explicit_vector(fib_file, capsys):
    """A failing check leaves standard output empty, also for a table, which
    is written one length at a time: every check runs before the first row."""
    code, out, _ = run(capsys, "measure", fib_file, "--map", "f",
                       "--vector", "1,1", )
    assert code == 3 and out == ""  # no --paths and no --table-up-to
    for form in ("tsv", "json"):
        code, out, err = run(capsys, "measure", fib_file, "--map", "f", "--vector", "1,1",
                             "--table-up-to", "3", "--format", form)
        assert code == 3 and out == ""
        assert "not an exact eigenvector" in err


def test_measure_paths_and_table_exclusive(fib_file, capsys):
    """``--paths`` beside ``--table-up-to`` is refused, not ignored."""
    code, out, err = run(capsys, "measure", fib_file, "--map", "f",
                         "--table-up-to", "2", "--paths", "a")
    assert (code, out) == (3, "")
    assert err == "error: give --paths or --table-up-to, not both\n"


def test_measure_json(fib_file, capsys):
    code, out, _ = run(capsys, "measure", fib_file, "--map", "f",
                       "--paths", "a,b", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["values"][0]["path"] == "a"


def test_spectrum(fib_file, capsys):
    code, out, _ = run(capsys, "spectrum", fib_file, "--map", "f")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["power_used"] == 1
    assert payload["blocks"][0]["kind"] == "primitive"
    assert payload["distinguished"][0]["eigenvalue"].startswith("1.6180339887")


def test_spectrum_exact_endpoints_enclose_the_golden_ratio(capsys):
    """``--exact`` rounds the endpoints outward: x**2 - x - 1 is negative at
    the printed lower endpoint of the radius and positive at the upper one,
    so the printed pair holds phi; the coordinate a = phi - 1 is held too."""
    maps = Path(__file__).resolve().parents[1] / "bench" / "inputs" / "maps.tt"
    code, out, _ = run(capsys, "spectrum", str(maps), "--map", "f", "--exact")
    assert code == 0
    payload = json.loads(out)
    brackets = [payload["blocks"][0]["spectral_radius"],
                payload["distinguished"][0]["vector"]["a"]]
    for text, shift in zip(brackets, (0, 1)):
        lo, hi = (Fraction(t) + shift for t in text.strip("[]").split(", "))
        assert lo * lo - lo - 1 < 0 < hi * hi - hi - 1, text


def test_integer_radius_prints_exact_from_a_wide_isolating_interval(tmp_path, capsys):
    """x**2 - 5x - 3900 = (x - 65)(x + 60): the largest root lies 125 above
    the other, and both the map's spectrum and the substitution's ergodic
    report print it as the exact 65."""
    a, b = " ".join(["x1"] * 65), " ".join(["x0"] * 60 + ["x1"] * 5)
    path = tmp_path / "r65.tt"
    path.write_text(f"""
graph R {{ vertices: * ; edge x0: * -> * ; edge x1: * -> * ; }}
map m: R -> R {{ x0 -> {a} ; x1 -> {b} ; }}
subst s over x0 x1 {{ x0 -> {a} ; x1 -> {b} }}
""")
    code, out, _ = run(capsys, "spectrum", str(path), "--map", "m", "--exact")
    assert code == 0
    assert json.loads(out)["blocks"][0]["spectral_radius"] == "[65.0, 65.0]"
    code, out, _ = run(capsys, "ergodic", str(path), "--subst", "s", "--exact")
    assert code == 0
    assert json.loads(out)["measures"][0]["eigenvalue"] == "[65.0, 65.0]"


def test_spectrum_of_an_imprimitive_block(capsys):
    """The period-2 block {a, b}, reached from the aperiodic block {c, d}:
    the report, ``power_used`` 4 included, is byte for byte the recorded one."""
    code, out, err = run(capsys, "spectrum", str(DATA / "periodic.tt"), "--map", "p")
    assert (code, err) == (0, "")
    assert out == (DATA / "periodic.spectrum.json").read_text()
    assert json.loads(out)["power_used"] == 4


def test_ergodic(fib_file, capsys):
    code, out, _ = run(capsys, "ergodic", fib_file, "--subst", "three")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["measures"]) == 2
    freqs = sorted(m["frequencies"]["c"] for m in payload["measures"])
    assert freqs[0] == "0.0"
    assert freqs[1].startswith("0.3333333333")


def test_ergodic_builds_no_weight_tower(fib_file, capsys, monkeypatch):
    """The frequencies are the certified eigenvectors' coordinates: printing
    them builds no stationary tower, no weight tower and no cylinder
    evaluator."""
    built = []
    for cls in (StationaryTower, WeightTower):
        monkeypatch.setattr(cls, "__init__", lambda self, *args, init=cls.__init__:
                            built.append(type(self)) or init(self, *args))
    code, out, err = run(capsys, "ergodic", fib_file, "--subst", "three")
    assert (code, err) == (0, "") and len(json.loads(out)["measures"]) == 2
    assert built == []


@pytest.mark.parametrize("name", ["i12", "b20"])
@pytest.mark.parametrize("command, flag", [("ergodic", "--subst"), ("spectrum", "--map")])
def test_seeded_substitution_reports(capsys, name, command, flag):
    """Two of the seeded bench substitutions (irreducible on 12 letters,
    block triangular on 20), whose reports the bench judges only against
    its own first pass: byte for byte the recorded ones.  i12 is primitive
    with an irrational eigenvalue (about 2.5725), so it has no periodic
    point and no warning; b20 is not primitive, and its scan warns."""
    code, out, err = run(capsys, command, str(DATA / "subs20.tt"), flag, name)
    assert (code, err) == (0, "")
    assert out == (DATA / f"subs20.{name}.{command}.json").read_text()
    if command == "ergodic":
        assert bool(json.loads(out)["warnings"]) == (name == "b20")


def test_verify_doubles_precision_when_inconclusive(fib_file, capsys):
    import ttm.intervals as ia
    old = ia.precision_bits()
    try:
        # at 24 bits every residual interval straddles the tolerance, so the
        # suite must raise precision instead of reporting false violations
        ia.set_precision(24)
        code, out, _ = run(capsys, "verify", fib_file, "--map", "f",
                           "--max-len", "3", "--tol", "1e-12")
        assert code == 0
        assert "INCONCLUSIVE" not in out
    finally:
        ia.set_precision(old)


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.tt"
    bad.write_text("graph G { vertices: v ; edge a: v -> w ; }")
    code, _, err = run(capsys, "check", str(bad), "--map", "f")
    assert code == 2
    assert "parse error" in err


def test_missing_map_exit_code(fib_file, capsys):
    code, _, err = run(capsys, "check", fib_file, "--map", "nope")
    assert code == 2


def test_error_in_an_unused_declaration_exits_2(tmp_path, capsys):
    """The whole document is validated before a command runs: an undeclared
    edge in the last of 30 maps fails ``check`` of the first one."""
    rose = "graph R { vertices: * ; edge a: * -> * ; edge b: * -> * ; }\n"
    maps = [f"map m{k}: R -> R {{ a -> a b ; b -> a ; }}\n" for k in range(30)]
    good, bad = tmp_path / "good.tt", tmp_path / "bad.tt"
    good.write_text(rose + "".join(maps))
    bad.write_text(rose + "".join(maps[:29]) + "map m29: R -> R { a -> a b ; b -> a c ; }\n")
    assert run(capsys, "check", str(good), "--map", "m0")[0] == 0
    code, out, err = run(capsys, "check", str(bad), "--map", "m0")
    assert (code, out) == (2, "")
    assert err == "parse error: line 31, col 37: undeclared edge 'c'\n"


def test_duplicate_declaration_exits_2(tmp_path, capsys):
    """A second graph of the same name is a parse error, not a silent
    replacement of the first."""
    path = tmp_path / "dup.tt"
    path.write_text("graph R { vertices: * ; edge a: * -> * ; }\n"
                    "map f: R -> R { a -> a a ; }\n"
                    "graph R { vertices: * ; edge b: * -> * ; }\n")
    code, out, err = run(capsys, "spectrum", str(path), "--map", "f")
    assert (code, out) == (2, "")
    assert err == "parse error: line 3, col 7: duplicate graph 'R'\n"


@pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
def test_unreadable_input_file_exit_code(tmp_path, capsys, kind):
    if kind == "directory":
        path = tmp_path
    else:
        path = tmp_path / "latin1.tt"
        path.write_bytes(FIB_DOC.replace("fib over", "fib\xe9 over").encode("latin-1"))
    code, out, err = run(capsys, "check", str(path), "--map", "f")
    assert code == 2
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("verify", "--max-len", "0"),
    ("verify", "--oracle-t", "-1"),
    ("measure", "--table-up-to", "0"),
    ("measure", "--table-up-to", "-1"),
    ("check", "--rep-cap", "-1"),
    ("check", "--rep-levels", "-1"),
    ("verify", "--tol", "nan"),
    ("verify", "--tol", "-1"),
    ("verify", "--tol", "inf"),
    ("measure", "--paths", " "),
    ("measure", "--paths", ","),
])
def test_length_bounds_rejected(fib_file, capsys, argv):
    command, *flags = argv
    code, out, err = run(capsys, command, fib_file, "--map", "f", *flags)
    assert code == 3
    assert out == ""
    assert flags[0] in err


VALENCE_2_DOC = """
graph G { vertices: u w ; edge a: u -> w ; edge b: w -> u ; edge c: u -> u ; }
map f: G -> G { a -> c a ; b -> b c ; c -> c a b ; }
"""


@pytest.mark.parametrize("argv", [("check",), ("measure", "--table-up-to", "2"),
                                  ("verify",)])
def test_valence_2_vertex_exits_3(tmp_path, capsys, argv):
    """Towers need a long-edge base graph; an expanding train track map on a
    graph with a valence-2 vertex is refused before any output."""
    path = tmp_path / "v2.tt"
    path.write_text(VALENCE_2_DOC)
    command, *flags = argv
    code, out, err = run(capsys, command, str(path), "--map", "f", *flags)
    assert (code, out) == (3, "")
    assert err.startswith("error: stationary towers need a long-edge base graph")


def test_oracle_t_zero_accepted(fib_file, capsys):
    code, _, _ = run(capsys, "verify", fib_file, "--map", "f", "--max-len", "2",
                     "--oracle-t", "0")
    assert code == 0


@pytest.mark.parametrize("vector", ["1,x", "1/0,1", "1,,1"])
def test_bad_vector_rejected(fib_file, capsys, vector):
    code, out, err = run(capsys, "measure", fib_file, "--map", "f",
                         "--vector", vector, "--paths", "a")
    assert code == 3
    assert "vector" in err


def test_parser_built_once_and_commands_looked_up_at_each_call(fib_file, capsys,
                                                               monkeypatch):
    """``main`` reuses one argument parser and finds the subcommand by name
    each time, so a replaced ``cmd_check`` runs on the next call."""
    import ttm.cli as cli
    assert run(capsys, "check", fib_file, "--map", "f")[0] == 0
    parser = cli._parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args.map) or 0)
    assert run(capsys, "check", fib_file, "--map", "bad") == (0, "", "")
    assert seen == ["bad"] and cli._parser() is parser


def test_verify_restores_precision(fib_file, capsys, monkeypatch):
    import ttm.cli as cli
    import ttm.intervals as ia
    real = cli._verify_once
    calls = []

    def inconclusive_once(f, args, tol):
        calls.append(ia.precision_bits())
        lines, failures, inconclusive = real(f, args, tol)
        return lines, failures, inconclusive + (["forced"] if len(calls) == 1 else [])

    monkeypatch.setattr(cli, "_verify_once", inconclusive_once)
    before = ia.precision_bits()
    code, out, _ = run(capsys, "verify", fib_file, "--map", "f", "--max-len", "3")
    assert code == 0
    assert calls == [before, 2 * before]
    assert ia.precision_bits() == before


def test_verify_reports_escalated_precision(fib_file, capsys, monkeypatch):
    import ttm.cli as cli
    import ttm.intervals as ia
    real = cli._verify_once

    def always_inconclusive(f, args, tol):
        lines, failures, inconclusive = real(f, args, tol)
        return lines, failures, inconclusive + ["forced"]

    monkeypatch.setattr(cli, "_verify_once", always_inconclusive)
    before = ia.precision_bits()
    code, out, _ = run(capsys, "verify", fib_file, "--map", "f", "--max-len", "2")
    assert code == 4
    assert f"inconclusive at {4 * before} bits: forced" in out
    assert ia.precision_bits() == before


def test_verify_restores_precision_when_a_run_raises(fib_file, capsys, monkeypatch):
    """The escalated rerun raises: the error exits 3 and the caller's
    precision is back."""
    import ttm.cli as cli
    import ttm.intervals as ia
    real = cli._verify_once
    calls = []

    def raises_on_rerun(f, args, tol):
        calls.append(ia.precision_bits())
        if len(calls) == 2:
            raise ttm.PreconditionError("forced")
        lines, failures, inconclusive = real(f, args, tol)
        return lines, failures, inconclusive + ["forced"]

    monkeypatch.setattr(cli, "_verify_once", raises_on_rerun)
    before = ia.precision_bits()
    code, out, err = run(capsys, "verify", fib_file, "--map", "f", "--max-len", "2")
    assert code == 3 and out == "" and "forced" in err
    assert calls == [before, 2 * before]
    assert ia.precision_bits() == before


def test_pick_vector_auto_takes_largest_eigenvalue(monkeypatch):
    """a -> ab, b -> ba, c -> cccab has distinguished eigenvalues 2 and 3;
    auto takes 3, rescaled so its smallest positive coordinate is one, and
    builds no measure to choose."""
    def no_measure(*args):
        raise AssertionError("pick_vector built a measure")
    monkeypatch.setattr(ttm.measures, "eigenvector_measure", no_measure)
    vector, lam = pick_vector(rose_map("ab", "ba", "cccab"), "auto")
    assert lam.compare(3) == 0
    positive = [v for v in vector if (v > 0) is True]
    assert len(positive) == 3
    assert ia.contains_zero(min(positive, key=ia.midpoint) - ia.one())


def run_module(*argv, timeout=120, **env):
    """Run ``python -m ttm`` in a fresh interpreter, killed after ``timeout``
    seconds, with extra environment variables."""
    src = str(Path(ttm.__file__).resolve().parents[1])
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "ttm", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_broken_pipe_exits_1_quietly():
    """A reader that stops early ends the command with exit code 1 and
    nothing on standard error: a table read up to its first row (as by
    ``head -1``), and a report written into a pipe with no reader at all."""
    src = str(Path(ttm.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # buffered, as by default: an unbuffered stream drops the rest of a
    # write that the reader cut short, so only the next write would fail
    env.pop("PYTHONUNBUFFERED", None)
    ttm_argv = [sys.executable, "-m", "ttm"]
    table = ["measure", str(BENCH_MAPS), "--map", "f", "--table-up-to", "9"]
    with subprocess.Popen(ttm_argv + table, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as proc:
        # the table (about 1 MB) outgrows the pipe, so the writer is still
        # writing when the reader goes
        assert proc.stdout.readline() == b"a\t1.61803398875\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(ttm_argv + ["spectrum", str(BENCH_MAPS), "--map", "q2"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.parametrize("bits", ["abc", "8"])
def test_bad_precision_setting_exits_3(fib_file, bits):
    proc = run_module("check", fib_file, "--map", "f", TTM_PRECISION_BITS=bits)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "TTM_PRECISION_BITS" in proc.stderr
    assert "Traceback" not in proc.stderr


Q2_DOC = """
graph R4 { vertices: * ; edge a: * -> * ; edge b: * -> * ; edge c: * -> * ; edge d: * -> * ; }
map q2: R4 -> R4 { a -> a c ; b -> a ; c -> b d ; d -> a ; }
"""


def test_check_q2_default_arguments_finishes(tmp_path):
    """The repetition windows of q2 multiply fast with the radius, so they
    must be pruned as they grow, not filtered once complete.  A fresh
    process under a timeout turns a runaway search into a failure."""
    path = tmp_path / "q2.tt"
    path.write_text(Q2_DOC)
    proc = run_module("check", str(path), "--map", "q2", timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        "train-track: yes",
        "expanding: yes",
        "homotopy-equivalence: no",
        "repetition-bound[level 0]: 0",
        "repetition-bound[level 1]: not found within cap 6",
        "repetition-bound[level 2]: not found within cap 6",
    ]


BENCH_MAPS = Path(__file__).resolve().parent.parent / "bench" / "inputs" / "maps.tt"


def test_deep_q2_check_is_pinned(capsys):
    """The deepest repetition search on the benchmark maps, byte for byte as
    the backward pullback search printed it: every window at levels 1-3 and
    radii up to 8 is kept or dropped by infinite legality."""
    code, out, err = run(capsys, "check", str(BENCH_MAPS), "--map", "q2",
                         "--rep-levels", "3", "--rep-cap", "8")
    assert (code, err) == (0, "")
    assert out == (
        "train-track: yes\n"
        "expanding: yes\n"
        "homotopy-equivalence: no\n"
        "repetition-bound[level 0]: 0\n"
        "repetition-bound[level 1]: not found within cap 8\n"
        "repetition-bound[level 2]: not found within cap 8\n"
        "repetition-bound[level 3]: not found within cap 8\n"
    )


@pytest.mark.parametrize("argv, golden", [
    (("measure", "--table-up-to", "5"), "red.110.measure.tsv"),
    (("measure", "--table-up-to", "5", "--format", "json"), "red.110.measure.json"),
    (("verify", "--max-len", "6"), "red.110.verify.txt"),
])
def test_zero_coordinate_measure_is_pinned(capsys, argv, golden):
    """Red's measure of the vector (1, 1, 0), whose edge c weighs zero, byte
    for byte as recorded when its support still held the zero-valued paths
    through c: the table rows and the verify lines do not change."""
    command, *flags = argv
    code, out, err = run(capsys, command, str(BENCH_MAPS), "--map", "red",
                         "--vector", "1,1,0", *flags)
    assert (code, err) == (0, "")
    assert out == (DATA / golden).read_text()


def test_check_builds_few_language_fixpoints(capsys, monkeypatch):
    """The repetition search builds the language towards the longest window
    it may read, ``2 cap + 1``: five fixpoints for red (lengths 1, 3, 6, 12
    and 17, where one per window length made 13), and with a far cap none
    longer than twice the longest window the search reads (13 for f, whose
    level-3 bound is 6)."""
    built, windows = [], maps.image_windows
    monkeypatch.setattr(maps, "image_windows",
                        lambda f, starts, n: built.append(n) or windows(f, starts, n))
    code, _, _ = run(capsys, "check", str(BENCH_MAPS), "--map", "red",
                     "--rep-levels", "3", "--rep-cap", "8")
    assert code == 0 and built == [1, 3, 6, 12, 17]
    built.clear()
    code, out, _ = run(capsys, "check", str(BENCH_MAPS), "--map", "f",
                       "--rep-levels", "3", "--rep-cap", "40")
    assert code == 0 and out.endswith("repetition-bound[level 3]: 6\n")
    assert built and max(built) <= 2 * 13


def test_check_refuses_levels_with_too_many_short_edges(capsys, monkeypatch):
    """f has 1,028,458 short edges at level 26, above ``MAX_SHORT_EDGES``:
    the count comes from the image lengths, so the refusal builds no word,
    searches no level and prints nothing.  Level 25 is searched."""
    built, word = [], StationaryTower.word

    def counted(tower, e, n):
        built.append(n)
        return word(tower, e, n)
    monkeypatch.setattr(StationaryTower, "word", counted)
    code, out, err = run(capsys, "check", str(BENCH_MAPS), "--map", "f",
                         "--rep-levels", "32", "--rep-cap", "0")
    assert (code, out, built) == (3, "", [])
    assert "--rep-levels 32: tower level 26 has 1028458 short edges" in err
    code, out, err = run(capsys, "check", str(BENCH_MAPS), "--map", "f",
                         "--rep-levels", "25", "--rep-cap", "0")
    assert code == 0 and "repetition-bound[level 25]" in out


@pytest.mark.parametrize("up_to", [20, 10 ** 9])
def test_measure_refuses_tables_with_too_many_rows(capsys, monkeypatch, up_to):
    """f has 2 (3**k - 1) reduced paths up to length k, 28,697,812 up to 15,
    above ``MAX_TABLE_ROWS``: the count comes from the successors of the last
    edges, so the refusal builds no word and prints nothing."""
    built, word = [], StationaryTower.word

    def counted(tower, e, n):
        built.append(n)
        return word(tower, e, n)
    monkeypatch.setattr(StationaryTower, "word", counted)
    code, out, err = run(capsys, "measure", str(BENCH_MAPS), "--map", "f",
                         "--table-up-to", str(up_to))
    assert (code, out, built) == (3, "", [])
    assert (f"--table-up-to {up_to}: the reduced paths up to length 15 number "
            f"28697812, more than the 10000000 rows") in err


def test_table_row_count_is_exact(capsys, monkeypatch):
    """The bound admits a table of exactly ``MAX_TABLE_ROWS`` rows: f up to
    length 9 has 39,364."""
    argv = ("measure", str(BENCH_MAPS), "--map", "f", "--table-up-to", "9")
    monkeypatch.setattr(ttm.cli, "MAX_TABLE_ROWS", 39364)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.count("\n") == 39364
    monkeypatch.setattr(ttm.cli, "MAX_TABLE_ROWS", 39363)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "") and "number 39364" in err


@pytest.mark.parametrize("argv", [
    ("check", "--map", "f", "--rep-levels", "3", "--rep-cap", "8"),
    ("measure", "--map", "f", "--table-up-to", "3"),
    ("verify", "--map", "f"),
    ("ergodic", "--subst", "three"),
], ids=lambda argv: argv[0])
def test_one_direction_analysis_per_command(fib_file, capsys, monkeypatch, argv):
    """Every layer of a command reads the one ``GraphMap.directions`` of its
    map: the train track test, the tower, its weights and the legal seeds.
    ``ergodic`` builds none: a positive rose map needs no train track test,
    and it reads no tower."""
    built = []
    init = DirectionAnalysis.__init__

    def counting_init(self, f):
        built.append(f)
        init(self, f)

    monkeypatch.setattr(DirectionAnalysis, "__init__", counting_init)
    code, _, err = run(capsys, argv[0], fib_file, *argv[1:])
    assert (code, err) == (0, "")
    assert len(built) == (0 if argv[0] == "ergodic" else 1)
