"""Command-line surface.

Subcommands:

* ``check``     train track / expanding / homotopy-equivalence / repetition report
* ``spectrum``  block decomposition, eigenvalues, distinguished eigenvectors (JSON)
* ``measure``   cylinder values of the eigenvector measure (TSV or JSON)
* ``verify``    Kirchhoff, flip, switch, eigen-equation, oracle agreement
* ``ergodic``   candidate ergodic probability measures of a substitution subshift

Exit codes: 0 success, 1 the reader closed standard output early (a broken
pipe, as in ``ttm ... | head``), 2 parse error, 3 precondition violated
(including a ``TTM_PRECISION_BITS`` that is not an integer of at least 16),
4 verification failure.  The working precision (bits) comes from
``TTM_PRECISION_BITS`` (default 128), applied at import.  Outputs are
deterministic: a value prints as its midpoint rounded to ``intervals.DIGITS``
significant digits, with a ``±`` width when the interval is wider than that,
and sort orders are fixed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import intervals as ia
from . import spectra
from .errors import ParseError, TTMError
from .maps import (
    GraphMap, is_expanding, is_homotopy_equivalence, is_train_track,
)
from .measures import (
    FrequencyOracle, eigenvector_measure, measure_pairs,
    verify_eigen_measure, verify_kolmogorov, verify_oracle,
)
from .substitutions import ergodic_measures
from .textio import format_table_tsv, parse, parse_path
from .towers import StationaryTower, repetition_bound

EXIT_BROKEN_PIPE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFICATION = 4

# the most short edges of a tower level that ``check`` builds whole (f of
# bench/inputs/maps.tt has 57,314 at level 20 and 18,454,930 at level 32)
MAX_SHORT_EDGES = 10 ** 6

# the most rows ``measure --table-up-to`` writes (f of bench/inputs/maps.tt
# has 39,364 up to length 9 and 6,973,568,800 up to length 20)
MAX_TABLE_ROWS = 10 ** 7


def fmt_exact_fraction(x) -> str:
    """Outward endpoints as exact fractions (the endpoints are dyadic)."""
    lo, hi = ia.endpoints(x)
    return f"[{lo}, {hi}]"


def load(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


# -- vector selection ---------------------------------------------------------------


def pick_vector(f: GraphMap, spec_text: str):
    """Vector for the measure pipeline.

    ``auto`` takes the distinguished eigenvector with the largest eigenvalue
    above one, rescaled so its smallest positive coordinate is one.  An
    explicit comma-separated rational vector is certified against the
    transition matrix, with the eigenvalue derived exactly.
    """
    m = f.transition_matrix()
    if spec_text == "auto":
        pairs = measure_pairs(f)[0]
        if not pairs:
            raise TTMError("no eigenvalue above one; no measure to build")
        by_value = functools.cmp_to_key(lambda p, q: p.value.compare(q.value))
        best = max(pairs, key=by_value)    # the first of the largest
        positive = [v for v in best.vector if (v > 0) is True]
        scale = min(positive, key=ia.midpoint)
        return tuple(v / scale for v in best.vector), best.value
    try:
        coords = [Fraction(tok) for tok in spec_text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise TTMError(f"vector coordinates must be rationals: {exc}") from exc
    if len(coords) != len(m):
        raise TTMError(f"vector needs {len(m)} coordinates")
    if all(c == 0 for c in coords) or any(c < 0 for c in coords):
        raise TTMError("vector must be non-negative and non-zero")
    image = [sum(m[i][j] * coords[j] for j in range(len(coords)))
             for i in range(len(coords))]
    pivot = next(i for i, c in enumerate(coords) if c != 0)
    lam = image[pivot] / coords[pivot]
    if any(image[i] != lam * coords[i] for i in range(len(coords))):
        raise TTMError("not an exact eigenvector of the transition matrix")
    return tuple(ia.from_fraction(c) for c in coords), ia.from_fraction(lam)


# -- subcommands --------------------------------------------------------------------


def cmd_check(args) -> int:
    _require_length("--rep-cap", args.rep_cap, 0)
    _require_length("--rep-levels", args.rep_levels, 0)
    doc = load(args.file)
    f = doc.map(args.map)
    out = []
    ok, witness = is_train_track(f)
    if ok:
        out.append("train-track: yes")
    else:
        e, t = witness
        out.append(f"train-track: no (iterate {t} of edge "
                   f"{f.domain.edge_labels[e >> 1]} is unreduced)")
    expanding = is_expanding(f) if ok else None
    out.append("expanding: " + ("yes" if expanding else
                                "no" if expanding is not None else "n/a"))
    out.append("homotopy-equivalence: "
               + ("yes" if is_homotopy_equivalence(f) else "no"))
    if ok and expanding:
        _require_short_edges(f, args.rep_levels)
        tower = StationaryTower(f)
        for level in range(args.rep_levels + 1):
            r = repetition_bound(tower, level, args.rep_cap)
            out.append(f"repetition-bound[level {level}]: " + (
                str(r.bound) if r.found else f"not found within cap {args.rep_cap}"))
    print("\n".join(out))
    return 0


def _require_short_edges(f, levels: int) -> None:
    """TTMError when a level up to ``levels`` has more than ``MAX_SHORT_EDGES``
    short edges, sum |f^n(e)| over the oriented edges by integer recursion."""
    edges = f.domain.positive_edges
    lengths = [1] * len(edges)     # |f^n(e)| of each positive edge e, at e >> 1
    for n in range(levels + 1):
        count = 2 * sum(lengths)
        if count > MAX_SHORT_EDGES:
            raise TTMError(f"--rep-levels {levels}: tower level {n} has {count} short "
                           f"edges, more than the {MAX_SHORT_EDGES} that check searches")
        lengths = [sum(lengths[x >> 1] for x in f.image(e)) for e in edges]


def cmd_spectrum(args) -> int:
    doc = load(args.file)
    f = doc.map(args.map)
    m = f.transition_matrix()
    spec = spectra.spectrum(m)
    bf = spec.form
    labels, exact = f.domain.edge_labels, args.exact
    blocks = []
    for i, (idx, radius) in enumerate(zip(bf.blocks, spec.radii)):
        blocks.append({
            "indices": [labels[k] for k in idx],
            "kind": bf.kinds[i],
            "period": bf.periods[i],
            "spectral_radius": ia.format_interval(radius.interval(),
                                                  exact_endpoints=exact),
        })
    order = [[i, j] for i in range(len(bf.blocks))
             for j in bf.reachable(i) if i != j]
    report = {
        "schema": 1,
        "matrix": [list(r) for r in m],
        "edge_order": list(labels),
        "blocks": blocks,
        "power_used": bf.power_used,
        "dominates": order,
        "distinguished": [_eigenpair_json(pair, labels, "vector", exact)
                          for pair in spec.distinguished],
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _eigenpair_json(pair, labels, name, exact):
    """An eigenpair as JSON: its eigenvalue, its coordinates by label under
    ``name`` and the labels of its support."""
    fmt = functools.partial(ia.format_interval, exact_endpoints=exact)
    return {"eigenvalue": fmt(pair.interval()),
            name: {label: fmt(v) for label, v in zip(labels, pair.vector)},
            "support": [labels[k] for k in sorted(pair.support)]}


def _text_of(exact, escape):
    """Value -> its printed text, through ``escape``, formatted once per
    distinct value (most values repeat, and every zero row is the one shared
    zero)."""
    shown = {}

    def text(value):
        got = shown.get(value)
        if got is None:
            got = shown[value] = escape(fmt_exact_fraction(value) if exact
                                        else ia.format_interval(value))
        return got
    return text


def _table_levels(kf, max_length, text, escape):
    """The rows of every reduced path up to the bound, one text per length,
    each row ``"\n" + label + "\t" + value`` (label and value through
    ``escape``) and the rows in label order.

    The rows of the paths of length k that start with edge a form a block
    whose every value is the exact zero: the length-(k - 1) blocks of the
    successors of a, with the name of a and a space put after each newline;
    a length keeps its blocks until the next one is built.  A label is its
    edge names joined by spaces, and names hold no whitespace, so labels
    sort as their names do, each name followed by a space where another
    name follows it: blocks are joined in that order, and the rows come out
    in label order by construction.  Only the support paths are evaluated,
    and each one's row replaces its zero row, found by its label, so a zero
    row costs no Python code.
    """
    graph = kf.graph
    raw = [graph.edge_label(e) for e in graph.oriented_edges]
    names = [escape(name) for name in raw]
    # the edges and each edge's successors, sorted for a name that ends the
    # label (orders[0]) and for one that another name follows (orders[1])
    orders = [(sorted(graph.oriented_edges, key=key),
               [sorted(graph.extensions_right((e,)), key=key) for e in graph.oriented_edges])
              for key in (raw.__getitem__, lambda e: raw[e] + " ")]
    zero = text(ia.zero())
    # every sweep runs (and can fail) before the first row is written
    supports = [kf.support(k) for k in range(1, max_length + 1)]

    def levels():
        blocks = [f"\n{name}\t{zero}" for name in names]
        for k, support in enumerate(supports, 1):
            if k > 1:
                blocks = ["".join([blocks[d] for d in after]).replace("\n", f"\n{names[e]} ")
                          for e, after in enumerate(orders[k > 2][1])]
            rows = "".join([blocks[e] for e in orders[k > 1][0]])
            out, start = [], 0
            for _, p in sorted((graph.path_label(p), p) for p in support):
                row = "\n" + " ".join([names[e] for e in p]) + "\t"
                at = rows.index(row, start)
                out += (rows[start:at], row, text(kf._walked(p)))
                start = at + len(row) + len(zero)
            out.append(rows[start:])
            yield "".join(out)
    return levels()


# JSON of a row's tab, and of the newline that starts a row (it closes the
# row before it, so the first row skips its first ``len('"\n    },')``)
_JSON_TAB = '",\n      "value": "'
_JSON_NEWLINE = '"\n    },\n    {\n      "path": "'


def _write_table(levels, json_form):
    """Write the rows of each level as it comes (see ``_table_levels``): TSV
    lines, or the text ``json.dumps({"schema": 1, "values": rows}, indent=2,
    sort_keys=True)`` prints for all the rows, byte for byte, made from the
    rows by two ``str.replace`` calls (labels and values come escaped)."""
    write = sys.stdout.write
    if json_form:
        write('{\n  "schema": 1,\n  "values": [')
        skip, ends = 8, ("]\n}\n", '"\n    }\n  ]\n}\n')
    else:
        skip, ends = 1, ("", "\n")
    for rows in levels:
        if rows:
            write((rows.replace("\n", _JSON_NEWLINE).replace("\t", _JSON_TAB)
                   if json_form else rows)[skip:])
            skip = 0
    write(ends[not skip])


def _require_length(flag: str, value: int, least: int) -> None:
    if value < least:
        raise TTMError(f"{flag} must be at least {least} (got {value})")


def _require_table_rows(graph, max_length: int) -> None:
    """TTMError when the reduced paths up to ``max_length`` number more than
    ``MAX_TABLE_ROWS``: the paths of each length are counted by their last
    edge, by integer recursion over its successors.  A tower's graph has no
    vertex of valence below 3, so the count at least doubles with each
    length and passes the bound within 23 lengths."""
    successors = [graph.extensions_right((e,)) for e in graph.oriented_edges]
    counts = [1] * len(successors)
    rows = 0
    for length in range(1, max_length + 1):
        rows += sum(counts)
        if rows > MAX_TABLE_ROWS:
            raise TTMError(f"--table-up-to {max_length}: the reduced paths up to "
                           f"length {length} number {rows}, more than the "
                           f"{MAX_TABLE_ROWS} rows that measure writes")
        after = [0] * len(counts)
        for e, count in enumerate(counts):
            for d in successors[e]:
                after[d] += count
        counts = after


def cmd_measure(args) -> int:
    if args.table_up_to is not None and args.paths is not None:
        raise TTMError("give --paths or --table-up-to, not both")
    if args.table_up_to is not None:
        _require_length("--table-up-to", args.table_up_to, 1)
    elif not args.paths:
        raise TTMError("measure needs --paths or --table-up-to")
    elif not args.paths.replace(",", "").strip():
        raise TTMError(f"--paths names no path (got {args.paths!r})")
    doc = load(args.file)
    f = doc.map(args.map)
    kf = eigenvector_measure(StationaryTower(f), *pick_vector(f, args.vector))
    # a text as json.dumps writes it inside a string, for the JSON form
    escape = (lambda s: json.dumps(s)[1:-1]) if args.format == "json" else str
    text = _text_of(args.exact, escape)
    if args.table_up_to is not None:
        _require_table_rows(f.domain, args.table_up_to)
        levels = _table_levels(kf, args.table_up_to, text, escape)
    else:
        graph = f.domain
        paths = [parse_path(graph, chunk)
                 for chunk in args.paths.split(",") if chunk.strip()]
        table = format_table_tsv([escape(graph.path_label(p)) for p in paths],
                                 [(i, text(kf.eval(p))) for i, p in enumerate(paths)])
        levels = ["\n" + table[:-1]]
    _write_table(levels, args.format == "json")
    return 0


def cmd_verify(args) -> int:
    _require_length("--max-len", args.max_len, 1)
    _require_length("--oracle-t", args.oracle_t, 0)
    if not 0 <= args.tol < float("inf"):
        raise TTMError(f"--tol must be a finite non-negative number (got {args.tol})")
    doc = load(args.file)
    f = doc.map(args.map)
    tol = args.tol
    # interval comparison against the tolerance is tri-state; an inconclusive
    # suite (too-wide intervals, not a provable violation) reruns all five at
    # twice, then four times the working precision before giving a verdict;
    # each run's precision is scoped to that run
    bits = ia.precision_bits()
    for bits in (bits, 2 * bits, 4 * bits):
        with ia.working_precision(bits):
            lines, failures, inconclusive = _verify_once(f, args, tol)
        if not inconclusive:
            break
    print("\n".join(lines))
    if inconclusive:
        print(f"inconclusive at {bits} bits: " + ", ".join(inconclusive))
    return 0 if not failures and not inconclusive else EXIT_VERIFICATION


def _verify_once(f, args, tol):
    """The five suite lines, and the labels of the failed and of the
    inconclusive ones.  A line is FAIL when one of its checks failed,
    INCONCLUSIVE when one is open, and shows its largest violation."""
    kf = eigenvector_measure(StationaryTower(f), *pick_vector(f, args.vector))
    wt = kf.weights
    rep = verify_kolmogorov(kf, args.max_len, tol)
    rep.record("switch", (abs(r) for r in wt.switch_residuals().values()), tol)
    erep = verify_eigen_measure(f, kf, wt.lam, args.max_len, tol)
    # the oracle's violation is |eval - estimate| beyond the tail bound
    oracle = FrequencyOracle(f, wt.vector, wt.lam, args.oracle_t)
    orep, worst = verify_oracle(kf, oracle, min(args.max_len, 4), tol)
    lines, verdicts = [], {"FAIL": [], "INCONCLUSIVE": [], "pass": []}
    for label, suite, names, detail in (
            ("flip (reversal symmetry)", rep, {"flip"}, None),
            ("kirchhoff rules", rep, {"kirchhoff-left", "kirchhoff-right"}, None),
            ("switch conditions", rep, {"switch"}, None),
            ("eigen equation (pushforward = lambda * measure)", erep, {"eigen-equation"}, None),
            ("oracle agreement", orep, {"oracle"},
             f"max |eval - estimate| {worst:.3e} at t={args.oracle_t}")):
        status = ("FAIL" if names & {n for n, _ in suite.failures} else
                  "INCONCLUSIVE" if names & {n for n, _ in suite.inconclusive} else "pass")
        verdicts[status].append(label)
        detail = detail or f"max violation {max(suite.checks[n] for n in names):.3e}"
        lines.append(f"{label}: {status} ({detail})")
    return lines, verdicts["FAIL"], verdicts["INCONCLUSIVE"]


def cmd_ergodic(args) -> int:
    doc = load(args.file)
    sigma = doc.substitution(args.subst)
    enum = ergodic_measures(sigma)
    letters = [str(x) for x in sigma.alphabet]
    payload = {
        "schema": 1,
        "alphabet": letters,
        "measures": [_eigenpair_json(mu.eigenpair, letters, "frequencies", args.exact)
                     for mu in enum.measures],
        "skipped_eigenvalues": [ia.format_interval(p.interval()) for p in enum.skipped],
        "power_used": enum.block_form.power_used,
        "warnings": list(enum.warnings),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


# -- argument plumbing -----------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ttm",
        description="Train track maps, graph towers, and invariant measures.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check",
                       help="train track / expanding / pi1 / repetition report")
    p.add_argument("file")
    p.add_argument("--map", required=True)
    p.add_argument("--rep-cap", type=int, default=6,
                   help="largest window radius tried per level (default 6)")
    p.add_argument("--rep-levels", type=int, default=2,
                   help="report repetition bounds of tower levels 0..N (default 2)")

    p = sub.add_parser("spectrum", help="block eigenvalue data as JSON")
    p.add_argument("file")
    p.add_argument("--map", required=True)
    p.add_argument("--exact", action="store_true",
                   help="print outward interval endpoints")

    p = sub.add_parser("measure", help="cylinder values of the measure")
    p.add_argument("file")
    p.add_argument("--map", required=True)
    p.add_argument("--vector", default="auto",
                   help="'auto' or comma-separated rationals")
    p.add_argument("--paths", help="comma-separated edge-token paths")
    p.add_argument("--table-up-to", type=int, default=None,
                   help="emit all reduced paths up to this length")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.add_argument("--exact", action="store_true",
                   help="print exact interval endpoints as fractions")

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("file")
    p.add_argument("--map", required=True)
    p.add_argument("--vector", default="auto")
    p.add_argument("--max-len", type=int, default=5)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--oracle-t", type=int, default=20)

    p = sub.add_parser("ergodic", help="measures of a substitution subshift")
    p.add_argument("file")
    p.add_argument("--subst", required=True)
    p.add_argument("--exact", action="store_true")
    return ap


# built on the first call and shared by every later one
_parser = functools.cache(make_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # refuse a bad setting; a valid one is applied only at import, so a
        # call runs at the precision in force and a later setting is only checked
        ia.precision_from_env()
        # looked up at each call, so a replaced ``cmd_<name>`` takes effect
        code = globals()["cmd_" + args.command](args)
        # a reader that closed the pipe early shows here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has all it wanted (``ttm ... | head``); what is still
        # buffered goes to the null device, so the flush at exit cannot
        # raise again, as the SIGPIPE note of the ``signal`` docs does
        if sys.stdout is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TTMError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
