"""Runtime spans around the public functions of each ``ttm`` module.

The wrappers are installed from the benchmark only: every module namespace
that holds a traced function is rebound (``cli`` imports
``verify_kolmogorov`` by name, for instance), and methods are patched on
their class.  ``restore`` puts every original back.

A span is (name, start, end, parent span, job id); spans live in flat arrays
until the run ends.  The layer of a span is the module its function lives in.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (module, attribute path) of every function timed with a span.
SPANNED = (
    ("textio", "parse"), ("textio", "format_table_tsv"),
    ("intervals", "format_interval"),
    ("cli", "main"), ("cli", "pick_vector"),
    ("graphs", "Graph.reduced_paths"),
    ("maps", "is_train_track"), ("maps", "is_homotopy_equivalence"),
    ("maps", "LegalPullbacks.is_infinitely_legal"),
    ("polys", "char_poly_and_adjugate"), ("polys", "CertifiedRoot.refine"),
    ("spectra", "block_form"), ("spectra", "distinguished_eigenvectors"),
    ("towers", "weight_tower_from_vector"), ("towers", "repetition_bound"),
    ("measures", "KolmogorovFunction.eval_at_level"),
    ("measures", "verify_kolmogorov"), ("measures", "verify_eigen_measure"),
    ("measures", "frequency_oracle"),
    ("substitutions", "ergodic_measures"), ("substitutions", "Substitution.language"),
)

# Functions whose calls are only counted: they run up to millions of times a
# pass (``StationaryTower.word`` 1.7M on ``table``), where a span each would
# double the run time and the span file.  Their time lands in the caller's span.
COUNTED = (
    ("polys", "count_roots"), ("spectra", "spectral_radius_root"),
    ("towers", "StationaryTower.word"), ("towers", "StationaryTower.level_for_length"),
    ("towers", "StationaryTower.windows"),
    ("measures", "KolmogorovFunction.eval"), ("measures", "image_measure"),
)

LAYERS = ("textio", "intervals", "cli", "graphs", "maps", "polys", "spectra",
          "towers", "measures", "substitutions")


class Tracer:
    def __init__(self):
        self.names = []                  # span name id -> "module.path"
        self.name_id = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.outer = array("b")          # 1 unless nested in a span of the same name
        self.stack = [-1]
        self.active = {}                 # name id -> open spans of that name
        self.current_job = -1
        self.observed = {}               # observer name -> value
        self.counts = {}                 # counted function -> calls
        self._patches = []               # (owner, attribute, original)

    # -- installing and removing ------------------------------------------------------

    def install(self, package="ttm"):
        ia = sys.modules[f"{package}.intervals"]
        observers = {
            "intervals.format_interval":
                lambda a, r: self._max("intervals.format_interval.max_width", ia.width(a[0])),
            "towers.StationaryTower.word":
                lambda a, r: self._max("towers.word.max_len", len(r)),
            "towers.StationaryTower.level_for_length":
                lambda a, r: self._max("towers.level_for_length.max", r),
            "measures.KolmogorovFunction.eval_at_level":
                lambda a, r: self._count("measures.eval_at_level.nonzero",
                                         ia.sup_abs(r) > 0),
        }
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for spanned, table in ((True, SPANNED), (False, COUNTED)):
            for modname, path in table:
                name = f"{modname}.{path}"
                wrap = self._wrap if spanned else self._wrap_count
                module = sys.modules[f"{package}.{modname}"]
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    self._patch(owner, attr,
                                wrap(name, owner.__dict__[attr], observers.get(name)))
                    continue
                original = getattr(module, attr)
                wrapper = wrap(name, original, observers.get(name))
                for mod in modules:
                    if mod.__dict__.get(attr) is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, observe):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack, active = self.stack, self.active
        span_name, start, end = self.span_name, self.start, self.end
        parent, job, outer = self.parent, self.job, self.outer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_name)
            depth = active.get(nid, 0)
            active[nid] = depth + 1
            span_name.append(nid)
            parent.append(stack[-1])
            job.append(self.current_job)
            outer.append(depth == 0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                active[nid] = depth
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped_by_bench__ = True
        return wrapper

    def _wrap_count(self, name, fn, observe):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped_by_bench__ = True
        return wrapper

    def _max(self, key, value):
        if value > self.observed.get(key, 0):
            self.observed[key] = value

    def _count(self, key, hit):
        self.observed[key] = self.observed.get(key, 0) + int(hit)

    # -- reading the spans ---------------------------------------------------------

    def mark(self):
        """Position to pass to ``summarise`` for the spans recorded after it;
        also resets the observers and counters."""
        self.observed = {}
        self.counts.clear()
        return len(self.span_name)

    def summarise(self, first, wall_s):
        """Per-function and per-layer numbers for spans ``first..`` recorded
        during ``wall_s`` seconds of jobs."""
        n = len(self.span_name)
        child = [0.0] * (n - first)
        for i in range(first, n):
            p = self.parent[i]
            if p >= first:
                child[p - first] += self.end[i] - self.start[i]
        calls, busy, self_s = dict(self.counts), {}, {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i in range(first, n):
            name = self.names[self.span_name[i]]
            dur = self.end[i] - self.start[i]
            own = dur - child[i - first]
            calls[name] = calls.get(name, 0) + 1
            if self.outer[i]:
                busy[name] = busy.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + own
            layer_self[name.split(".", 1)[0]] += own
        return {"calls": calls, "busy_s": busy, "self_s": self_s,
                "layer_self_s": layer_self, "spans": n - first, "wall_s": wall_s,
                "observed": dict(self.observed)}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tname\tstart\tend\tparent\tjob\n")
            for i in range(len(self.span_name)):
                handle.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.start[i]:.9f}\t"
                             f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.job[i]}\n")


def leftover_wrappers(package="ttm"):
    """Names of benchmark wrappers still bound anywhere in the package."""
    out = []
    for key, module in list(sys.modules.items()):
        if module is None or not (key == package or key.startswith(package + ".")):
            continue
        for attr, value in vars(module).items():
            owners = [(attr, value)]
            if isinstance(value, type):
                owners += [(f"{attr}.{a}", v) for a, v in vars(value).items()]
            out.extend(f"{key}.{name}" for name, v in owners
                       if getattr(v, "__wrapped_by_bench__", False))
    return out


def layer_metrics(s, untraced_wall, escalations):
    """The per-layer metrics of the benchmark from the summary ``s`` of one
    traced pass."""
    c, b, o = s["calls"], s["busy_s"], s["observed"]

    def calls(name):
        return c.get(name, 0)

    def busy(name):
        return b.get(name, 0.0)

    evals = calls("measures.KolmogorovFunction.eval")
    at_level = calls("measures.KolmogorovFunction.eval_at_level")
    layer = s["layer_self_s"]
    out = {
        "textio.parse.busy_s": busy("textio.parse"),
        "textio.format_table_tsv.busy_s": busy("textio.format_table_tsv"),
        "intervals.format_interval.calls": calls("intervals.format_interval"),
        "intervals.format_interval.busy_s": busy("intervals.format_interval"),
        "intervals.format_interval.max_width":
            o.get("intervals.format_interval.max_width", 0.0),
        "cli.main.self_s": s["self_s"].get("cli.main", 0.0),
        "cli.pick_vector.busy_s": busy("cli.pick_vector"),
        "graphs.Graph.reduced_paths.calls": calls("graphs.Graph.reduced_paths"),
        "graphs.Graph.reduced_paths.busy_s": busy("graphs.Graph.reduced_paths"),
        "maps.is_train_track.busy_s": busy("maps.is_train_track"),
        "maps.is_homotopy_equivalence.busy_s": busy("maps.is_homotopy_equivalence"),
        "maps.LegalPullbacks.is_infinitely_legal.calls":
            calls("maps.LegalPullbacks.is_infinitely_legal"),
        "maps.LegalPullbacks.is_infinitely_legal.busy_s":
            busy("maps.LegalPullbacks.is_infinitely_legal"),
        "polys.char_poly_and_adjugate.calls": calls("polys.char_poly_and_adjugate"),
        "polys.char_poly_and_adjugate.busy_s": busy("polys.char_poly_and_adjugate"),
        "polys.CertifiedRoot.refine.calls": calls("polys.CertifiedRoot.refine"),
        "polys.CertifiedRoot.refine.busy_s": busy("polys.CertifiedRoot.refine"),
        "polys.count_roots.calls": calls("polys.count_roots"),
        "spectra.block_form.busy_s": busy("spectra.block_form"),
        "spectra.distinguished_eigenvectors.busy_s":
            busy("spectra.distinguished_eigenvectors"),
        "spectra.spectral_radius_root.calls": calls("spectra.spectral_radius_root"),
        "towers.StationaryTower.word.calls": calls("towers.StationaryTower.word"),
        "towers.word.max_len": o.get("towers.word.max_len", 0),
        "towers.level_for_length.max": o.get("towers.level_for_length.max", 0),
        "towers.weight_tower_from_vector.busy_s": busy("towers.weight_tower_from_vector"),
        "towers.repetition_bound.busy_s": busy("towers.repetition_bound"),
        "towers.StationaryTower.windows.calls": calls("towers.StationaryTower.windows"),
        "measures.KolmogorovFunction.eval.calls": evals,
        "measures.eval.memo_hit_ratio": 1.0 - at_level / evals if evals else 0.0,
        "measures.eval_at_level.calls": at_level,
        "measures.eval_at_level.busy_s": busy("measures.KolmogorovFunction.eval_at_level"),
        "measures.eval_at_level.nonzero_ratio":
            o.get("measures.eval_at_level.nonzero", 0) / at_level if at_level else 0.0,
        "measures.verify_kolmogorov.busy_s": busy("measures.verify_kolmogorov"),
        "measures.verify_eigen_measure.busy_s": busy("measures.verify_eigen_measure"),
        "measures.image_measure.calls": calls("measures.image_measure"),
        "measures.frequency_oracle.calls": calls("measures.frequency_oracle"),
        "measures.frequency_oracle.busy_s": busy("measures.frequency_oracle"),
        "substitutions.ergodic_measures.busy_s": busy("substitutions.ergodic_measures"),
        "substitutions.Substitution.language.busy_s":
            busy("substitutions.Substitution.language"),
        "trace.spans": s["spans"],
        "trace.wall_s": s["wall_s"],
        "trace.attributed_share":
            sum(v for k, v in layer.items() if k != "cli") / s["wall_s"],
    }
    for name in LAYERS:
        out[f"{name}.self_s"] = layer[name]
    out["intervals.precision_escalations"] = escalations
    out["trace.overhead_ratio"] = s["wall_s"] / untraced_wall
    return out
