"""Workload definitions, seeded input generators and the correctness gate.

Nothing here imports ``ttm``: inputs are written as text and every expected
answer is computed independently (plain floats, closed forms), so the gate
never trusts the program it judges.

A job is a dict ``{"id", "argv", "rc", "checks", "ref"}``: the CLI argument
list (``@name`` stands for an input file), the expected exit code, the names
of independent checks with their parameters, and whether the stdout hash is
pinned by ``reference.json`` (committed inputs) or by the job's first pass
(seeded inputs, whose bytes change with the seed).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
MAPS = "bench/inputs/maps.tt"
REFERENCE = HERE / "reference.json"

# Two workloads, each the union of two job lists.  ``verify-table`` runs the
# cylinder evaluator (time to a verdict, then output-heavy tables);
# ``ergodic-check`` bypasses it (spectra, substitutions, maps, repetition
# windows), so an evaluator change should leave it unchanged.  On the 2-core
# host, runs of a single list (~25 s) spread by 0.23-0.30 (IQR over median,
# ten seeds); twice the work per run is what the time budget allows.
WORKLOADS = ("verify-table", "ergodic-check")

PHI = (1 + 5 ** 0.5) / 2
TRIBONACCI = 1.8392867552141612   # real root of x^3 - x^2 - x - 1


def _job(jid, argv, rc=0, checks=(), ref=True):
    return {"id": jid, "argv": list(argv), "rc": rc,
            "checks": [list(c) for c in checks], "ref": ref}


# -- committed-input jobs ----------------------------------------------------------

def verify_jobs(smoke=False):
    if smoke:
        return [_job("verify-f-L3", ["verify", "@maps", "--map", "f", "--max-len", "3"],
                     checks=[("five_passes",)], ref=False)]
    out = []
    for name, extra in (("f", []), ("tm", []), ("t", []),
                        ("red", ["--max-len", "4"]), ("q", ["--max-len", "4"])):
        jid = "verify-" + name + ("-L4" if extra else "")
        out.append(_job(jid, ["verify", "@maps", "--map", name] + extra,
                        checks=[("five_passes",)]))
    return out


def table_jobs(smoke=False):
    fib = ("fibonacci_cylinders",)
    if smoke:
        return [_job("table-f-L3", ["measure", "@maps", "--map", "f", "--table-up-to", "3"],
                     checks=[fib], ref=False)]
    return [
        _job("table-f-L9", ["measure", "@maps", "--map", "f", "--table-up-to", "9"],
             checks=[fib]),
        _job("table-t-L6", ["measure", "@maps", "--map", "t", "--table-up-to", "6"]),
        _job("table-q-L5", ["measure", "@maps", "--map", "q", "--table-up-to", "5"]),
        _job("table-f-L7-exact", ["measure", "@maps", "--map", "f", "--table-up-to", "7",
                                  "--exact"], checks=[("fibonacci_cylinders_exact",)]),
        _job("table-t-L5-json", ["measure", "@maps", "--map", "t", "--table-up-to", "5",
                                 "--format", "json"]),
    ]


def check_jobs(maps_count, smoke=False):
    deep = ["--rep-levels", "3", "--rep-cap", "8"]
    if smoke:
        names = ("f", "ntt")
        jobs = [_job(f"check-{n}", ["check", "@maps", "--map", n, "--rep-levels", "1",
                                    "--rep-cap", "2"], ref=False,
                     checks=[("train_track", n != "ntt")]) for n in names]
    else:
        jobs = [_job(f"check-{n}", ["check", "@maps", "--map", n] + deep,
                     checks=[("train_track", True)])
                for n in ("f", "tm", "t", "red", "q")]
        jobs.append(_job("check-q2-cap3", ["check", "@maps", "--map", "q2", "--rep-levels",
                                           "2", "--rep-cap", "3"],
                         checks=[("train_track", True)]))
        jobs.append(_job("check-ntt", ["check", "@maps", "--map", "ntt"] + deep,
                         checks=[("train_track", False)]))
    for k in range(maps_count):
        jobs.append(_job(f"check-rand{k}", ["check", "@rmaps", "--map", f"m{k}",
                                            "--rep-levels", "1", "--rep-cap", "3"],
                         checks=[("check_report",)], ref=False))
    return jobs


def ergodic_jobs(substs, smoke=False):
    """``substs`` maps a generated substitution's name to its spectral radius."""
    jobs = []
    for name, rho in substs.items():
        jobs.append(_job(f"ergodic-{name}", ["ergodic", "@subs", "--subst", name],
                         checks=[("radius_ergodic", rho)], ref=False))
        jobs.append(_job(f"spectrum-{name}", ["spectrum", "@subs", "--map", name],
                         checks=[("radius_spectrum", rho)], ref=False))
    if smoke:
        return jobs
    jobs.append(_job("ergodic-red", ["ergodic", "@maps", "--subst", "red"],
                     checks=[("measure_count", 2)]))
    for name, lam in (("f", PHI), ("t", TRIBONACCI), ("tm", 2.0)):
        jobs.append(_job(f"spectrum-{name}", ["spectrum", "@maps", "--map", name],
                         checks=[("radius_spectrum", lam)]))
    return jobs


# -- seeded generators ---------------------------------------------------------------

def _letters(n):
    return [f"x{i}" for i in range(n)]


def _strongly_connected(n, edges):
    """edges[j] = set of i with letter i in the image of letter j."""
    def reach(adj):
        seen, stack = {0}, [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n
    back = [set() for _ in range(n)]
    for j in range(n):
        for i in edges[j]:
            back[i].add(j)
    return reach(edges) and reach(back)


def _random_block(rng, size):
    """Images (as index lists within the block) of an irreducible block whose
    images all have length 2 or 3, so the block expands."""
    while True:
        images = [[rng.randrange(size) for _ in range(rng.randint(2, 3))]
                  for _ in range(size)]
        if _strongly_connected(size, [set(w) for w in images]):
            return images


def spectral_radius(matrix, iterations=4000):
    """Float spectral radius of an irreducible non-negative matrix, by power
    iteration on ``M + I`` (primitive, so the iteration converges)."""
    n = len(matrix)
    v = [1.0] * n
    for _ in range(iterations):
        w = [v[i] + sum(matrix[i][j] * v[j] for j in range(n)) for i in range(n)]
        norm = max(w)
        w = [x / norm for x in w]
        if max(abs(a - b) for a, b in zip(v, w)) <= 1e-14:
            break
        v = w
    return norm - 1.0


def random_substitution(rng, sizes):
    """A substitution with one diagonal block per entry of ``sizes``; every
    block but the first also maps into the block before it, so the incidence
    matrix is block triangular.  Returns ``(images, radius)`` with images as
    index lists over the whole alphabet."""
    while True:
        images, radii, offset = [], [], 0
        for b, size in enumerate(sizes):
            block = _random_block(rng, size)
            matrix = [[0] * size for _ in range(size)]
            for j, w in enumerate(block):
                for i in w:
                    matrix[i][j] += 1
            radii.append(spectral_radius(matrix))
            for w in block:
                image = [offset + i for i in w]
                if b > 0 and rng.random() < 0.5:
                    image.insert(rng.randrange(len(image) + 1),
                                 offset - 1 - rng.randrange(sizes[b - 1]))
                images.append(image)
            offset += size
        # distinct block radii keep the dominant eigenvector unique
        if all(abs(a - b) > 1e-6 * max(a, b) for i, a in enumerate(radii)
               for b in radii[i + 1:]):
            return images, max(radii)


def substitution_text(substs):
    """Input document holding each substitution twice: as ``subst`` and as
    the rose map with the same incidence matrix (for ``spectrum``)."""
    parts = []
    for name, images in substs.items():
        letters = _letters(len(images))
        rules = " ; ".join(f"{letters[j]} -> " + " ".join(letters[i] for i in w)
                           for j, w in enumerate(images))
        parts.append(f"subst {name} over {' '.join(letters)} {{ {rules} }}")
        edges = " ".join(f"edge {x}: * -> * ;" for x in letters)
        parts.append(f"graph R_{name} {{ vertices: * ; {edges} }}")
        parts.append(f"map {name}: R_{name} -> R_{name} {{ {rules} ; }}")
    return "\n".join(parts) + "\n"


def relabel(images, rng):
    """The same substitution with its alphabet permuted: letter j becomes
    letter perm[j], so language, spectrum and cost are unchanged."""
    perm = list(range(len(images)))
    rng.shuffle(perm)
    out = [None] * len(images)
    for j, w in enumerate(images):
        out[perm[j]] = [perm[i] for i in w]
    return out


# Fresh random draws per seed moved the ergodic pass time from 7.7 s to 13.4 s
# over seeds 1-10 (language and Sturm work depend strongly on the draw), a
# spread wider than any bound.  So the substitutions are drawn once from this
# base seed and each workload seed relabels them: every seed feeds the program
# a different text describing the same amount of work.
BASE_SEED = 1


def generate_substitutions(seed, smoke=False):
    """Seeded substitutions: irreducible on 12 and 16 letters, and block
    triangular on 16 letters (3 blocks) and 20 letters (4 blocks)."""
    base = random.Random(f"ergodic-{BASE_SEED}")
    rng = random.Random(f"ergodic-relabel-{seed}")
    shapes = ({"i4": [4], "b6": [3, 3]} if smoke else
              {"i12": [12], "i16": [16], "b16": [6, 5, 5], "b20": [5, 5, 5, 5]})
    images, radii = {}, {}
    for name, sizes in shapes.items():
        drawn, radii[name] = random_substitution(base, sizes)
        images[name] = relabel(drawn, rng)
    return substitution_text(images), radii


def _random_graph(rng):
    """Connected multi-vertex graph, every vertex of valence >= 3 (towers
    need a long-edge graph)."""
    while True:
        nv = rng.randint(2, 4)
        ne = rng.randint((3 * nv + 1) // 2, 7)
        ends = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(ne)]
        valence = [0] * nv
        adj = [set() for _ in range(nv)]
        for a, b in ends:
            valence[a] += 1
            valence[b] += 1
            adj[a].add(b)
            adj[b].add(a)
        seen, stack = {0}, [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if min(valence) >= 3 and len(seen) == nv:
            return nv, ends


def _reduced_paths(ends, start, max_len):
    """Reduced oriented-edge paths (2k, 2k+1 = edge k and its reverse)."""
    def head(d):
        a, b = ends[d >> 1]
        return b if d % 2 == 0 else a

    def tail(d):
        a, b = ends[d >> 1]
        return a if d % 2 == 0 else b

    dirs = range(2 * len(ends))
    frontier = [(d,) for d in dirs if tail(d) == start]
    out = list(frontier)
    for _ in range(max_len - 1):
        frontier = [p + (d,) for p in frontier for d in dirs
                    if tail(d) == head(p[-1]) and d != p[-1] ^ 1]
        out.extend(frontier)
    return [(p, head(p[-1])) for p in out]


def random_maps_text(seed, count):
    """Seeded self-maps of multi-vertex graphs with reduced non-trivial
    edge images of length at most 4."""
    rng = random.Random(f"check-{seed}")
    parts = []
    k = 0
    while k < count:
        nv, ends = _random_graph(rng)
        vimg = [rng.randrange(nv) for _ in range(nv)]
        images = []
        for a, b in ends:
            cands = [p for p, end in _reduced_paths(ends, vimg[a], 4) if end == vimg[b]]
            if not cands:
                break
            images.append(rng.choice(cands))
        if len(images) != len(ends):
            continue
        label = ["~" * (d % 2) + f"e{d >> 1}" for d in range(2 * len(ends))]
        verts = " ".join(f"v{i}" for i in range(nv))
        edges = " ".join(f"edge e{i}: v{a} -> v{b} ;" for i, (a, b) in enumerate(ends))
        vrules = " ".join(f"vertex v{i} -> v{w} ;" for i, w in enumerate(vimg))
        erules = " ".join(f"e{i} -> " + " ".join(label[d] for d in p) + " ;"
                          for i, p in enumerate(images))
        parts.append(f"graph G{k} {{ vertices: {verts} ; {edges} }}")
        parts.append(f"map m{k}: G{k} -> G{k} {{ {vrules} {erules} }}")
        k += 1
    return "\n".join(parts) + "\n"


# -- the correctness gate ------------------------------------------------------------

_NUMBER = re.compile(r"^(-?[0-9.]+(?:e[-+]?[0-9]+)?)(?:±([0-9.]+(?:e[-+]?[0-9]+)?))?$")


def printed_contains(text, x, digits=12):
    """Does the printed certified value ``text`` (midpoint to ``digits``
    significant digits, optional ``±width``) enclose the float ``x``?"""
    m = _NUMBER.match(text.strip())
    if not m:
        return False
    mid = float(m.group(1))
    width = float(m.group(2)) if m.group(2) else 0.0
    slack = 10.0 ** (1 - digits) * max(1.0, abs(mid)) + 1e-15
    return abs(mid - x) <= width + slack


def _tsv_rows(out):
    return dict(line.split("\t", 1) for line in out.splitlines() if "\t" in line)


def _check_five_passes(out):
    lines = out.splitlines()
    return len(lines) == 5 and all(": pass (" in ln for ln in lines)


def _check_fibonacci(out):
    rows = _tsv_rows(out)
    want = {"a": PHI, "b": 1.0, "a a": 1 / PHI, "b b": 0.0}
    return all(p in rows and printed_contains(rows[p], x) for p, x in want.items())


def _check_fibonacci_exact(out):
    rows = _tsv_rows(out)
    want = {"a": PHI, "b": 1.0, "a a": 1 / PHI, "b b": 0.0}
    for p, x in want.items():
        m = re.match(r"^\[(\S+), (\S+)\]$", rows.get(p, ""))
        if not m:
            return False
        lo, hi = (_fraction_float(g) for g in m.groups())
        if not (lo - 1e-15 <= x <= hi + 1e-15):
            return False
    return True


def _fraction_float(text):
    num, _, den = text.partition("/")
    return int(num) / int(den or 1)


def _check_radius_spectrum(out, rho):
    radii = [b["spectral_radius"] for b in json.loads(out)["blocks"]]
    top = max(radii, key=lambda r: float(_NUMBER.match(r).group(1)))
    return printed_contains(top, rho)


def _check_radius_ergodic(out, rho):
    values = [m["eigenvalue"] for m in json.loads(out)["measures"]]
    return bool(values) and any(printed_contains(v, rho) for v in values)


def _check_measure_count(out, n):
    return len(json.loads(out)["measures"]) == n


def _check_train_track(out, expected):
    first = out.splitlines()[0] if out else ""
    return first.startswith("train-track: yes" if expected else "train-track: no")


def _check_report(out):
    lines = out.splitlines()
    keys = [ln.split(":", 1)[0] for ln in lines]
    return keys[:3] == ["train-track", "expanding", "homotopy-equivalence"]


CHECKS = {
    "five_passes": _check_five_passes,
    "fibonacci_cylinders": _check_fibonacci,
    "fibonacci_cylinders_exact": _check_fibonacci_exact,
    "radius_spectrum": _check_radius_spectrum,
    "radius_ergodic": _check_radius_ergodic,
    "measure_count": _check_measure_count,
    "train_track": _check_train_track,
    "check_report": _check_report,
}


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def judge(job, rc, out, reference):
    """Reasons the job failed (empty when it passed).

    ``reference`` is the expected stdout SHA-256, or None when there is none
    to compare yet (the first pass of a seeded job).
    """
    reasons = []
    if rc != job["rc"]:
        reasons.append(f"exit code {rc}, expected {job['rc']}")
    if reference is not None and digest(out) != reference:
        reasons.append("stdout hash differs from the reference")
    for name, *params in job["checks"]:
        try:
            ok = CHECKS[name](out, *params)
        except (ValueError, KeyError, IndexError, AttributeError, TypeError):
            ok = False
        if not ok:
            reasons.append(f"independent check {name} failed")
    return reasons


def load_reference():
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


# -- assembly ------------------------------------------------------------------------

RANDOM_MAPS = 30


def build(workload, seed, smoke=False):
    """Returns ``(files, jobs)``: generated input texts by ``@name``, and the
    job list."""
    if workload == "verify-table":
        return {}, verify_jobs(smoke) + table_jobs(smoke)
    if workload == "ergodic-check":
        count = 2 if smoke else RANDOM_MAPS
        subs, radii = generate_substitutions(seed, smoke)
        files = {"subs": subs, "rmaps": random_maps_text(seed, count)}
        return files, ergodic_jobs(radii, smoke) + check_jobs(count, smoke)
    raise ValueError(f"unknown workload {workload!r}")
