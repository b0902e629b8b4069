"""The verify suites and the measure tables walk only the support.

Each suite is compared with a test-local copy of the walk over every
reduced path (the walk the suites made before they visited only the
support and its one-edge boundary): the reports must agree in their
checks, failures, inconclusive checks and verdicts, on correct measures and
on broken ones, and the flip and Kirchhoff reports also on measure tables,
at a tolerance and at tolerance zero.
"""

import contextlib
import io
import json
import random
import tracemalloc
from pathlib import Path

import pytest

import ttm.intervals as ia
from ttm.cli import fmt_exact_fraction, main, pick_vector
from ttm.errors import PreconditionError
from ttm.graphs import Graph, is_reduced, make_turn, reverse_path
from ttm.maps import GraphMap
from ttm.measures import (
    FrequencyOracle, KolmogorovFunction, MeasureTable, VerificationReport, eigen_measures,
    eigenvector_measure, image_measure, verify_eigen_measure, verify_kolmogorov,
    verify_oracle,
)
from ttm.textio import parse
from ttm.towers import StationaryTower

from conftest import A, Abar, B, Bbar, pullback_maps, rose_map
from test_measures import figure4_table


# -- the full walks, as the suites ran them over every reduced path ---------------------


def _magnitudes(residuals):
    """|r| for each residual; the shared exact zero is skipped unread."""
    return (abs(r) for r in residuals if r is not ia.zero())


def _sub(x, y):
    """x - y; two shared exact zeros give the shared exact zero."""
    if x is ia.zero() and y is ia.zero():
        return x
    return x - y


def full_kolmogorov(source, max_length, tol):
    """Flip and both Kirchhoff rules on every reduced path up to the bound,
    each residual subtracting every one-edge extension; for a table, the
    monotonicity flags too."""
    table = isinstance(source, MeasureTable)
    graph, get = source.graph, source.value if table else source.eval

    def kirchhoff(path, extended):
        residual = get(path)
        for longer in extended:
            residual = _sub(residual, get(longer))
        return residual

    residuals = (
        ("flip", lambda p: _sub(get(p), get(reverse_path(p)))),
        ("kirchhoff-left",
         lambda p: kirchhoff(p, ((e,) + p for e in graph.extensions_left(p)))),
        ("kirchhoff-right",
         lambda p: kirchhoff(p, (p + (e,) for e in graph.extensions_right(p)))),
    )
    report = VerificationReport()
    paths = graph.reduced_paths(max_length)
    for name, residual in residuals:
        report.record(name, _magnitudes(map(residual, paths)), tol)
    if table:
        report.flags.extend(("monotonicity", graph.path_label(p), graph.path_label(q))
                            for p, q in source.monotonicity_violations())
    return report


def full_eigen(f, kf, lam, max_length, tol):
    lam = ia.coerce(lam)
    report = VerificationReport()
    report.record("eigen-equation", _magnitudes(
        image_measure(f, kf, path) - lam * kf.eval(path)
        for path in f.domain.reduced_paths(max_length)), tol)
    return report


def full_oracle(kf, oracle, max_length, tol):
    worst, excess = 0.0, []
    for p in kf.graph.reduced_paths(max_length):
        value, est = kf.eval(p), oracle.estimate(p)
        worst = max(worst, ia.sup_abs(value - est.value))
        excess.append(est.excess(value))
    report = VerificationReport()
    report.record("oracle", excess, tol)
    return report, worst


def outcome(report):
    """Everything a report says, with the verdict line of each check."""
    failed = {n for n, _ in report.failures}
    open_ = {n for n, _ in report.inconclusive}
    verdicts = {n: "FAIL" if n in failed else "INCONCLUSIVE" if n in open_ else "pass"
                for n in report.checks}
    return (report.checks, report.failures, report.inconclusive, report.flags,
            report.max_violation, verdicts)


def all_suites(f, kf, lam, max_length, tol, walked, t=20):
    """The three suites in the order ``verify`` runs them, on one measure."""
    wt = kf.weights
    oracle = FrequencyOracle(f, wt.vector, wt.lam, t)
    if walked:
        kolmogorov, eigen, agree = verify_kolmogorov, verify_eigen_measure, verify_oracle
    else:
        kolmogorov, eigen, agree = full_kolmogorov, full_eigen, full_oracle
    reports = (kolmogorov(kf, max_length, tol), eigen(f, kf, lam, max_length, tol))
    report, worst = agree(kf, oracle, min(max_length, 4), tol)
    return tuple(map(outcome, reports + (report,))) + (worst,)


def measure_makers(f):
    """One maker per measure of f: each call builds the measure afresh from
    the same (vector, lambda) intervals, so two calls give equal measures
    with empty caches."""
    makers = []
    for pair, _ in eigen_measures(f)[0]:
        vector, lam = tuple(pair.vector), ia.coerce(pair.value)
        makers.append((lambda v=vector, l=lam: eigenvector_measure(StationaryTower(f), v, l),
                       lam))
    return makers


PULLBACK_MAPS = pullback_maps()
MAPS = dict(PULLBACK_MAPS)
CASES = ([(name, MAPS[name], 5) for name in ("fibonacci", "thue-morse", "tribonacci", "red")]
         + [("q", MAPS["q"], 4)]
         + [(name, f, 5) for name, f in PULLBACK_MAPS if name.startswith("random")])


@pytest.mark.parametrize("tol", [1e-12, 0.0], ids=["tol-1e-12", "tol-0"])
@pytest.mark.parametrize("name,f,max_length", CASES, ids=[c[0] for c in CASES])
def test_walked_suites_equal_full_walk(name, f, max_length, tol):
    makers = measure_makers(f)
    assert makers
    for make, lam in makers:
        assert (all_suites(f, make(), lam, max_length, tol, walked=True)
                == all_suites(f, make(), lam, max_length, tol, walked=False))


# -- broken measures: non-zero violations must be the same too ----------------------------


def fib_maker():
    return measure_makers(MAPS["fibonacci"])[0]


def perturbed(make, edge=0):
    def build():
        kf = make()
        kf.weights.edge_weight[edge] = kf.weights.edge_weight[edge] + ia.exact(1) / 1000
        return kf
    return build


def without(make, path):
    """A measure whose sweeps lose ``path`` and its right extensions (with
    their reversals), so its support is not closed under taking the tail of
    a path.  The left Kirchhoff rule fails at ``path``, which only the
    ``q[1:]`` boundary of the walk reaches, and the oracle still counts
    ``path``, which only the oracle's support reaches."""
    def build():
        kf = make()
        graph = kf.graph
        for length, dropped in ((len(path), [path]),
                                (len(path) + 1,
                                 [path + (e,) for e in graph.extensions_right(path)])):
            sweep = kf._length_sweep(length)
            for q in dropped:
                sweep.pop(q, None)
                sweep.pop(reverse_path(q), None)
        return kf
    return build


@pytest.mark.parametrize("tol", [1e-12, 0.0], ids=["tol-1e-12", "tol-0"])
@pytest.mark.parametrize("name,f", [("fibonacci", MAPS["fibonacci"]),
                                    ("tribonacci", MAPS["tribonacci"]),
                                    ("red", MAPS["red"])])
@pytest.mark.parametrize("broken", ["wrong-eigenvalue", "perturbed-edge", "not-tail-closed"])
def test_walked_suites_equal_full_walk_on_broken_measures(name, f, broken, tol):
    for make, lam in measure_makers(f):
        if broken == "wrong-eigenvalue":
            lam = lam * (1 + ia.exact(1) / 64)
        elif broken == "perturbed-edge":
            make = perturbed(make)
        else:
            make = without(make, (A,))
        walked = all_suites(f, make(), lam, 4, tol, walked=True)
        full = all_suites(f, make(), lam, 4, tol, walked=False)
        assert walked == full
        assert any(report[1] for report in full[:3]), "the broken measure fails a check"


# -- measure tables: the entries and their reversals are the walk ------------------------


def raised(table, *paths):
    """The table with the entries of ``paths`` raised by 1/1000."""
    entries = dict(table.entries)
    for p in paths:
        entries[p] = entries[p] + ia.exact(1) / 1000
    return MeasureTable(table.graph, entries, table.max_length)


def red_table():
    f = MAPS["red"]
    return eigenvector_measure(StationaryTower(f), *pick_vector(f, "auto")).support_table(5)


# name -> (table maker, failed checks, whether they are all the failures)
RED_PATH = (0, 2)
TABLES = {
    "figure-4": (lambda rose2: figure4_table(rose2, 5), ("kirchhoff-left",), False),
    "support-table": (lambda rose2: red_table(), (), True),
    "kirchhoff-fail": (lambda rose2: raised(red_table(), RED_PATH, reverse_path(RED_PATH)),
                       ("kirchhoff-left", "kirchhoff-right"), True),
    "flip-fail": (lambda rose2: raised(red_table(), RED_PATH), ("flip",), False),
}


@pytest.mark.parametrize("tol", [1e-12, 0.0], ids=["tol-1e-12", "tol-0"])
@pytest.mark.parametrize("name", list(TABLES))
def test_walked_kolmogorov_equals_full_walk_on_tables(rose2, name, tol):
    """The walk over the valued paths reports on a table what the walk
    over every reduced path reports: an exact Fraction listing (with its
    monotonicity flag), the support table of a bench measure, and that table
    with one pair of entries raised (Kirchhoff fails) or with one
    orientation of a path raised (flip fails)."""
    make, failing, only = TABLES[name]
    table = make(rose2)
    walked = outcome(verify_kolmogorov(table, 4, tol))
    assert walked == outcome(full_kolmogorov(table, 4, tol))
    failed = {n for n, _ in walked[1]}
    assert failed == set(failing) if only else failed >= set(failing)
    assert bool(walked[3]) == (name == "figure-4")


def test_kolmogorov_walk_reads_only_valued_paths(monkeypatch):
    """Neither a measure nor a table is checked by enumerating reduced paths
    or the one-edge extensions of a path."""
    make, _ = fib_maker()
    kf, table = make(), make().support_table(5)

    def refuse(*args):
        raise AssertionError("the Kirchhoff walk enumerated paths")
    for name in ("reduced_paths", "extensions_left", "extensions_right"):
        monkeypatch.setattr(Graph, name, refuse)
    assert verify_kolmogorov(kf, 4, 1e-12).passed
    assert verify_kolmogorov(table, 4, 1e-12).passed


def wide_rose_doc(n, seed):
    """A positive map of the rose with n edges: each letter goes to the next
    letter and one or two random letters."""
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(n)]
    images = [[names[(i + 1) % n]] + rng.choices(names, k=rng.randint(1, 2))
              for i in range(n)]
    edges = " ".join(f"edge {x}: * -> * ;" for x in names)
    rules = " ".join(f"{x} -> {' '.join(image)} ;" for x, image in zip(names, images))
    return f"graph W {{ vertices: * ; {edges} }}\nmap w: W -> W {{ {rules} }}\n"


def test_wide_rose_verifies(tmp_path, capsys):
    """``verify`` on a 40-edge rose passes its five suites at length 3."""
    path = tmp_path / "wide40.tt"
    path.write_text(wide_rose_doc(40, 40), encoding="utf-8")
    assert main(["verify", str(path), "--map", "w", "--max-len", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and all(": pass (" in line for line in lines), lines


@pytest.mark.parametrize("tol", [1e-12, 0.0], ids=["tol-1e-12", "tol-0"])
def test_oracle_walks_its_own_support(tol):
    """Without the edge a in the measure's support, the largest distance to
    the oracle is mu(a), the weight of a, at a path that only the oracle's
    support puts in the walk."""
    make, _ = fib_maker()
    broken = without(make, (A,))
    wt = broken().weights
    oracle = FrequencyOracle(MAPS["fibonacci"], wt.vector, wt.lam, 20)
    report, worst = verify_oracle(broken(), oracle, 4, tol)
    full, full_worst = full_oracle(broken(), oracle, 4, tol)
    assert outcome(report) == outcome(full) and worst == full_worst
    assert report.failures and abs(worst - ia.midpoint(wt.vector[0])) < 1e-9
    assert (A,) not in broken().support(1)


# -- the table evaluator ----------------------------------------------------------------


BENCH_MAPS = Path(__file__).resolve().parents[1] / "bench" / "inputs" / "maps.tt"

# Edge names that stress the label order and the JSON escapes: a name that
# is a prefix of others, a digit, a capital (it sorts before the small
# letters) and a non-ASCII name; and names with a control character, which
# sorts before the space that joins a label, so that "a\x01 b" comes before
# "a b" although "a" comes before "a\x01".
NAMES_DOC = """
graph S { vertices: * ; edge a: * -> * ; edge ab: * -> * ; edge a1: * -> * ;
          edge B: * -> * ; edge \u00e9t\u00e9: * -> * ; }
map s: S -> S { a -> a ab ; ab -> a a1 ; a1 -> a B ; B -> a \u00e9t\u00e9 ; \u00e9t\u00e9 -> a ; }
"""
CONTROL_DOC = """
graph C { vertices: * ; edge a: * -> * ; edge a\x01: * -> * ; edge b: * -> * ; }
map c: C -> C { a -> a a\x01 ; a\x01 -> b ; b -> a ; }
"""
# Names that JSON escapes: a quote and a backslash, with q" a prefix of q"r;
# q0 sorts after q" as a name and before it escaped (q\"), so the JSON
# rows keep the order of the names, not of their escapes.
ESCAPE_DOC = r"""
graph E { vertices: * ; edge q": * -> * ; edge q"r: * -> * ; edge q0: * -> * ;
          edge \: * -> * ; edge b\c: * -> * ; }
map e: E -> E { q" -> q" q"r ; q"r -> q" q0 ; q0 -> q" \ ; \ -> q" b\c ; b\c -> q" ; }
"""
TABLE_CASES = {"fibonacci": (None, "f", 6), "tribonacci": (None, "t", 5),
               "red": (None, "red", 5), "q": (None, "q", 5),
               "names": (NAMES_DOC, "s", 4), "control-names": (CONTROL_DOC, "c", 5),
               "escaped-names": (ESCAPE_DOC, "e", 4)}


def reference_table(f, max_length, form, exact):
    """The table as plain code prints it: every reduced path by length and
    then label, ``eval`` on each in that order on a fresh measure."""
    graph = f.domain
    kf = eigenvector_measure(StationaryTower(f), *pick_vector(f, "auto"))
    paths = sorted(graph.reduced_paths(max_length), key=lambda p: (len(p), graph.path_label(p)))
    show = fmt_exact_fraction if exact else ia.format_interval
    rows = [(graph.path_label(p), show(kf.eval(p))) for p in paths]
    if form == "json":
        payload = {"schema": 1, "values": [{"path": label, "value": v} for label, v in rows]}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return "".join(f"{label}\t{v}\n" for label, v in rows)


@pytest.mark.parametrize("name", list(TABLE_CASES))
def test_table_rows_and_values_equal_eval(name, tmp_path, capsys):
    """The streamed table, as TSV, as JSON and with ``--exact``, is byte for
    byte the table of the reference: the rows in the same order and every
    value the one ``eval`` gives."""
    doc, map_name, max_length = TABLE_CASES[name]
    path = BENCH_MAPS
    if doc is not None:
        path = tmp_path / "table.tt"
        path.write_text(doc, encoding="utf-8")
    f = parse(path.read_text(encoding="utf-8")).map(map_name)
    for form, exact in (("tsv", False), ("json", False), ("tsv", True)):
        argv = ["measure", str(path), "--map", map_name, "--table-up-to", str(max_length),
                "--format", form] + ["--exact"] * exact
        assert main(argv) == 0
        assert capsys.readouterr().out == reference_table(f, max_length, form, exact)


@pytest.mark.parametrize("map_name,max_length", [("f", 9), ("q", 5), ("red", 5)])
def test_table_walks_only_the_support(map_name, max_length, monkeypatch, capsys):
    """A table evaluates the support paths of each length, once each and in
    row order, and no other row: the zero rows cost no evaluator call."""
    walked_paths = []
    walked = KolmogorovFunction._walked

    def counted(kf, path):
        walked_paths.append(path)
        return walked(kf, path)
    monkeypatch.setattr(KolmogorovFunction, "_walked", counted)
    argv = ["measure", str(BENCH_MAPS), "--map", map_name,
            "--table-up-to", str(max_length)]
    assert main(argv) == 0
    rows = capsys.readouterr().out.count("\n")
    f = parse(BENCH_MAPS.read_text(encoding="utf-8")).map(map_name)
    kf = eigenvector_measure(StationaryTower(f), *pick_vector(f, "auto"))
    label = f.domain.path_label
    expected = [p for k in range(1, max_length + 1)
                for p in sorted(kf.support(k), key=label)]
    assert walked_paths == expected
    assert len(walked_paths) < rows


class Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def test_table_memory_holds_one_level():
    """The traced peak of a 39,364-row table written into a sink that keeps
    nothing: one level of labels and the support, about 3.7 MB, where the
    whole table with its row texts and its output string took 13.4 MB."""
    argv = ["measure", str(BENCH_MAPS), "--map", "f", "--table-up-to", "9"]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(Discard()):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000, peak


# -- the closure property ------------------------------------------------------------------


@pytest.mark.parametrize("name,f", PULLBACK_MAPS, ids=[n for n, _ in PULLBACK_MAPS])
def test_zero_recipe_paths_extend_to_zero_recipe_paths(name, f):
    """A path with the zero recipe has only zero-recipe one-edge extensions:
    both one-edge-shorter subpaths of a reduced support path are support
    paths.  The walks do not rely on this property; they add the one-edge
    boundary of the support themselves."""
    kf = eigen_measures(f)[0][0][1]
    for length in range(1, 7):
        shorter = kf.support(length)
        for q in kf.support(length + 1):
            assert is_reduced(q), q
            assert q[1:] in shorter and q[:-1] in shorter, q


@pytest.mark.parametrize("name,f", PULLBACK_MAPS, ids=[n for n, _ in PULLBACK_MAPS])
def test_walks_evaluate_only_reduced_paths(name, f, monkeypatch):
    """The train track property replaces the reducedness filters: each
    support is reduced and closed under reversal, and every path that the
    three verify walks evaluate, push forward or estimate is reduced."""
    seen = []
    walked, estimate = KolmogorovFunction._walked, FrequencyOracle.estimate
    image_values = KolmogorovFunction._image_values

    def pushed(kf, f, bound):
        values = image_values(kf, f, bound)
        seen.extend(values)
        return values

    monkeypatch.setattr(KolmogorovFunction, "_walked",
                        lambda kf, path: seen.append(path) or walked(kf, path))
    monkeypatch.setattr(FrequencyOracle, "estimate",
                        lambda oracle, path: seen.append(path) or estimate(oracle, path))
    monkeypatch.setattr(KolmogorovFunction, "_image_values", pushed)
    max_length = 4 if name == "q" else 5
    for make, lam in measure_makers(f):
        kf = make()
        for length in range(1, max_length + 2):
            support = kf.support(length)
            assert all(is_reduced(p) and reverse_path(p) in support for p in support)
        all_suites(f, kf, lam, max_length, 1e-12, walked=True)
    assert seen and all(is_reduced(p) for p in seen)


def test_oracle_of_another_map_is_refused():
    """The oracle's support enters the walk unfiltered, so it must count
    factors of the measure's own map: not those of a -> ba, b -> a, whose
    transition matrix is Fibonacci's, so that the vector is its eigenvector
    too."""
    make, _ = fib_maker()
    kf = make()
    wt = kf.weights
    twin = rose_map("ba", "a")
    assert twin.transition_matrix() == MAPS["fibonacci"].transition_matrix()
    oracle = FrequencyOracle(twin, wt.vector, wt.lam, 6)
    with pytest.raises(PreconditionError):
        verify_oracle(kf, oracle, 3, 1e-12)
    verify_oracle(kf, FrequencyOracle(MAPS["fibonacci"], wt.vector, wt.lam, 6), 3, 1e-12)


def test_support_holds_only_reduced_paths(fib_setup):
    """On Fibonacci the turn {a, b} is illegal: the level-n words of a-bar
    and b end in a-bar and start with a, so every window across that
    junction backtracks.  The sweep drops those windows, so the support
    holds only reduced paths and no walk has to filter it."""
    tower, _, _, kf = fib_setup
    assert not tower.f.directions.is_legal(make_turn(A, B))
    for length in range(2, 7):
        n = tower.level_for_length(length)
        window = tower.word(Abar, n)[-1:] + tower.word(B, n)[:length - 1]
        assert not is_reduced(window) and window not in kf.support(length)
        assert all(is_reduced(p) for p in kf.support(length))


def test_support_holds_every_non_zero_path(fib_setup, rose2):
    """Off the support a path is the exact zero.  A junction window is kept
    only at a turn that some direction orbit visits, so (A, Bbar), across
    the legal but unvisited turn {Abar, Bbar}, is off the support."""
    kf = fib_setup[3]
    for p in rose2.reduced_paths(5):
        support = kf.support(len(p))
        assert (p in support) == (reverse_path(p) in support)
        assert p in support or kf.eval(p) is ia.zero(), p
    assert (A, Bbar) not in kf.support(2) and kf.eval((A, Bbar)) is ia.zero()


def test_oracle_support_is_the_non_zero_counts(fib_setup, rose2):
    tower, vt, _, _ = fib_setup
    oracle = FrequencyOracle(tower.f, vt.vector, vt.lam, 6)
    for length in range(1, 5):
        support = oracle.support(length)
        for p in rose2.reduced_paths(length):
            if len(p) == length:
                assert (p in support) == any(oracle.counts(p)), p


def test_eigen_walk_needs_a_self_map(fib_setup):
    """a -> a b, b -> c into the three-petal rose has no eigen equation."""
    r3 = rose_map("ab", "ac", "a").domain
    with pytest.raises(PreconditionError):
        verify_eigen_measure(GraphMap(fib_setup[0].graph, r3, [0], [(0, 2), (4,)]),
                             fib_setup[3], ia.exact(2), 3, 1e-12)
