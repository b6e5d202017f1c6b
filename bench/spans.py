"""Span tracing of the quasieig layers from outside the library.

``Tracer.install`` wraps every public function defined in each layer
module and rebinds it wherever a module imported it by name (``quasi``
and ``cones`` both hold ``solve_max_eps``; ``analysis`` and ``cli`` hold
``quasi_pair``), so no call bypasses the wrapper.  Each span records its
name, start, end, parent span and the top-level call it belongs to; the
spans stay in memory until the run ends.  A call that recurses into its
own wrapper (``emit_json``) opens only the outermost span, so the
tracer's own cost does not pile up inside it.  ``layer_metrics`` turns
the spans into the per-layer metrics of ``BENCHMARK.json``.
"""

import inspect
import json
import sys
import time

import numpy as np

import quasieig

LAYERS = ("matcore", "cones", "lp", "quasi", "analysis", "cli")
ROOT = "call"


def _tableau_bytes(args, kwargs):
    """Computed size of the simplex tableau, (m+1)(k+m+3) doubles."""
    g = args[0] if args else kwargs["problem"]
    m, k = np.atleast_2d(getattr(g, "g", g)).shape
    return (m + 1) * (k + m + 3) * 8


def _grid_points(args, kwargs):
    n = np.shape(args[0])[0]
    k = args[2] if len(args) > 2 else kwargs["grid_k"]
    return k + 1 if n == 2 else (k + 1) * (k + 2) // 2


def _solve_key(side):
    """The (side, matrix, cone) instance an upper/lower solve works on."""

    def key(args, kwargs):
        a = args[0] if args else kwargs["a"]
        cone = args[1] if len(args) > 1 else kwargs["cone"]
        rot = cone.rotation
        return side, np.asarray(a, dtype=float).tobytes(), None if rot is None else rot.tobytes()

    return key


# Per-span attributes the metrics need, computed from the call's
# arguments after the run, so their cost falls in no span.
_ATTRIBUTES = {
    "lp.solve_max_eps": _tableau_bytes,
    "quasi.brute_minimax": _grid_points,
    "quasi.upper_quasi_eigenvalue": _solve_key("upper"),
    "quasi.lower_quasi_eigenvalue": _solve_key("lower"),
}


class Tracer:
    """Records spans as ``[name, start, end, parent index, call id, arguments]``;
    the arguments are kept only for the names in ``_ATTRIBUTES``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._call_id = -1
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep_args = name in _ATTRIBUTES

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._call_id,
                    (args, kwargs) if keep_args else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def root(self, fn):
        """``fn`` as the top-level call: each call opens a root span under
        a new call id."""
        traced = self._wrap(ROOT, fn)

        def call(*args):
            self._call_id += 1
            return traced(*args)

        return call

    def install(self):
        modules = {layer: sys.modules[f"quasieig.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in [quasieig, *modules.values()]:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def dump(self, path, header):
        """Write the header and every span as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, call_id, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, call_id]) + "\n")


COUNTED = ("matcore.symmetric_part_eigs", "matcore.operator_norm", "matcore.eig_oracle",
           "matcore.classify", "cones.contains", "cones.span_meets_interior")
ANALYSIS_CHECKERS = ("bounds_check", "perron_check", "max_re_check", "isc_check",
                     "invariance_check", "theorem4_classify", "perturbation_bound_check")


def layer_metrics(spans):
    """Per-layer metrics of the traced calls.

    ``calls`` metrics count a layer's outermost spans per top-level call;
    ``self_share`` is a layer's self time (span minus its direct
    children) over the summed duration of the top-level calls; ``ms_p50``
    is the median outermost span.  A layer the workload never reaches
    reads 0.
    """
    names = [s[0] for s in spans]
    attrs = [None if s[5] is None else _ATTRIBUTES[s[0]](*s[5]) for s in spans]
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    self_time, outer = {}, {}
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child[i]
        if parent < 0 or names[parent] != name:
            outer.setdefault(name, []).append(i)
    roots = outer.get(ROOT, [])
    ncalls = len(roots)
    total = sum(spans[i][2] - spans[i][1] for i in roots)

    def calls(name):
        return len(outer.get(name, ())) / ncalls

    def share(name):
        return self_time.get(name, 0.0) / total

    def ms_p50(name):
        durs = [spans[i][2] - spans[i][1] for i in outer.get(name, ())]
        return float(np.median(durs)) * 1e3 if durs else 0.0

    def has_ancestor(i, wanted):
        i = spans[i][3]
        while i >= 0:
            if names[i] in wanted:
                return True
            i = spans[i][3]
        return False

    lp = outer.get("lp.solve_max_eps", [])
    solves = outer.get("quasi.upper_quasi_eigenvalue", []) + outer.get("quasi.lower_quasi_eigenvalue", [])
    sides = {"quasi.upper_quasi_eigenvalue", "quasi.lower_quasi_eigenvalue"}
    distinct = {(spans[i][4], attrs[i]) for i in solves}
    grid = outer.get("quasi.brute_minimax", [])
    grid_s = sum(spans[i][2] - spans[i][1] for i in grid)

    out = {
        "lp.solve_max_eps.calls": calls("lp.solve_max_eps"),
        "lp.solve_max_eps.ms_p50": ms_p50("lp.solve_max_eps"),
        "lp.solve_max_eps.self_share": share("lp.solve_max_eps"),
        "lp.solve_max_eps.tableau_bytes": float(np.median([attrs[i] for i in lp])) if lp else 0.0,
        "lp.solve_max_eps.calls_from_cones":
            sum(names[spans[i][3]].startswith("cones.") for i in lp) / ncalls,
        "quasi.lp_calls_per_value":
            sum(has_ancestor(i, sides) for i in lp) / len(solves) if solves else 0.0,
        "quasi.upper_quasi_eigenvalue.self_share": share("quasi.upper_quasi_eigenvalue"),
        "quasi.lower_quasi_eigenvalue.self_share": share("quasi.lower_quasi_eigenvalue"),
        "quasi.quasi_pair.self_share": share("quasi.quasi_pair"),
        "quasi.brute_minimax.ms_p50": ms_p50("quasi.brute_minimax"),
        "quasi.brute_minimax.points_per_s":
            sum(attrs[i] for i in grid) / grid_s if grid else 0.0,
    }
    for fn in COUNTED:
        out[f"{fn}.calls"] = calls(fn)
        out[f"{fn}.self_share"] = share(fn)
    for fn in ANALYSIS_CHECKERS:
        out[f"analysis.{fn}.self_share"] = share(f"analysis.{fn}")
    out["analysis.one_sided_solves"] = len(solves) / ncalls
    out["analysis.distinct_solve_frac"] = len(distinct) / len(solves) if solves else 0.0
    out["cli.run.self_share"] = share("cli.run")
    out["cli.emit_json.ms_p50"] = ms_p50("cli.emit_json")
    return out
