"""Per-layer profile of a pass, recorded from outside the package.

Each traced function is replaced by a wrapper in every gradmult module
namespace that binds it (minimal_basis is imported by name into degseq,
multiplicity, reductions, mixed_rees and reports; buchberger into
mixed_rees), so calls are seen whichever module makes them.  A wrapper
records calls and self time (its own duration minus that of traced
callees).  The wrapper's own bookkeeping is charged to no one's self
time.

scalars, monomials and polynomials are not wrapped: one heavy pass makes
about 2.7 M mono_divides calls, so a wrapper would measure itself.  Their
cost shows in the self time of the nearest wrapped caller.
"""

import sys
import time

# module -> functions traced in it, as "name" or "Class.method"
TRACED = {
    "groebner": (
        "buchberger", "s_polynomial", "normal_form",
        "PolyIdeal.intersect", "PolyIdeal.colon", "PolyIdeal.saturate",
        "PolyIdeal.eliminate", "PolyIdeal.k_dimension", "PolyIdeal.krull_dimension",
    ),
    "hilbert": ("hilbert_data",),
    "algebra": ("minimal_basis",),
    "degseq": ("initial_ideal",),
    "multiplicity": (
        "samuel_oracle", "samuel_fastpath_general", "colength", "quotient_multiplicity",
    ),
    "reductions": (
        "is_reduction", "analytic_spread", "find_minimal_reduction", "build_fc_sequence",
    ),
    "mixed_rees": (
        "rees_presentation", "rees_multiplicity_oracle", "rees_multiplicity_fastpath",
        "bhattacharya_oracle", "mixed_fastpath", "invariance_check",
    ),
    "script": ("parse_script",),
    "reports": ("run_command", "canonical_json"),
}

# Functions whose time is reported but whose call count is not: their count
# is fixed by the workload's input list, not by the kernel.
SELF_ONLY = {"script.parse_script", "reports.run_command", "reports.canonical_json"}

BUCHBERGER = "groebner.buchberger"
NORMAL_FORM = "groebner.normal_form"
_BUCHBERGER_EXTRA = (
    ("distinct_inputs", "count"), ("repeat_ratio", "ratio"), ("repeat_s", "s"),
    ("basis_len_max", "count"), ("zero_reduction_ratio", "ratio"),
)
OVERHEAD = "trace.overhead_ratio"

# Entry points each workload must reach in a traced pass; a miss means a
# wrapper was not installed where the calls are made.
ENTRY_POINTS = {
    "suite": ("script.parse_script", "reports.run_command", "reports.canonical_json",
              "groebner.buchberger"),
    "heavy": ("script.parse_script", "reports.run_command", "reports.canonical_json",
              "groebner.buchberger"),
    "random-qq": ("degseq.initial_ideal", "multiplicity.samuel_oracle",
                  "multiplicity.colength", "groebner.buchberger"),
}

# Traced functions that no workload reaches, and why.  Every other traced
# function must run on some workload (checked by sweep.py --trace).
UNREACHED = {
    "groebner.PolyIdeal.eliminate":
        "no caller inside gradmult; rees_presentation runs its own elimination "
        "order through buchberger",
    "multiplicity.quotient_multiplicity":
        "reached only by transfer kind=graded-mult and mixed_quotient, which no "
        "fixture or heavy script runs",
}


def traced_names():
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in traced_names():
        if name not in SELF_ONLY:
            out.append((name + ".calls", "count"))
        out.append((name + ".self_s", "s"))
        if name == BUCHBERGER:
            out += [(f"{name}.{stat}", unit) for stat, unit in _BUCHBERGER_EXTRA]
    out.append((OVERHEAD, "ratio"))
    return out


def _resolve(module, qualname):
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class _Stat:
    __slots__ = ("calls", "self_time")

    def __init__(self):
        self.calls = 0
        self.self_time = 0.0


class Tracer:
    """Wraps the TRACED functions of the imported gradmult modules."""

    def __init__(self):
        self.stats = {name: _Stat() for name in traced_names()}
        self._child = []  # per open span: time spent in traced callees
        self._bb_depth = 0
        self.bb_inputs = set()
        self.bb_repeat_s = 0.0
        self.bb_len_max = 0
        self.nf_in_bb = 0
        self.nf_zero_in_bb = 0

    def install(self):
        namespaces = [m for n, m in sys.modules.items()
                      if n == "gradmult" or n.startswith("gradmult.")]
        for mod, fns in TRACED.items():
            module = sys.modules["gradmult." + mod]
            for qualname in fns:
                owner, attr = _resolve(module, qualname)
                original = getattr(owner, attr)
                wrapper = self._wrap(f"{mod}.{qualname}", original)
                if owner is module:
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is original:
                                setattr(ns, key, wrapper)
                else:
                    setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        stat = self.stats[name]

        def wrapper(*args, **kwargs):
            outer = time.perf_counter()
            if name == BUCHBERGER:
                return self._buchberger(fn, stat, outer, args, kwargs)
            result, _ = self._span(stat, outer, fn, args, kwargs)
            if name == NORMAL_FORM and self._bb_depth:
                self.nf_in_bb += 1
                self.nf_zero_in_bb += not result.coeffs
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _span(self, stat, outer, fn, args, kwargs):
        """(result, duration) of one call.  The caller's span is charged from
        `outer`, so the wrapper's own work lands in no one's self time."""
        self._child.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stat.calls += 1
            stat.self_time += end - start - self._child.pop()
            if self._child:
                self._child[-1] += time.perf_counter() - outer
        return result, end - start

    def _buchberger(self, fn, stat, outer, args, kwargs):
        gens = tuple(args[0])
        key = frozenset(g.monic() for g in gens if g.coeffs)
        repeat = key in self.bb_inputs
        self.bb_inputs.add(key)
        self._bb_depth += 1
        try:
            basis, duration = self._span(stat, outer, fn, (gens, *args[1:]), kwargs)
        finally:
            self._bb_depth -= 1
        if repeat:
            self.bb_repeat_s += duration
        self.bb_len_max = max(self.bb_len_max, len(basis))
        return basis

    def report(self):
        """Exact counts and measured times of the pass, as plain JSON."""
        counts, times = {}, {}
        for name, st in self.stats.items():
            counts[name + ".calls"] = st.calls
            times[name + ".self_s"] = st.self_time
        bb_calls = self.stats[BUCHBERGER].calls
        counts[BUCHBERGER + ".distinct_inputs"] = len(self.bb_inputs)
        counts[BUCHBERGER + ".basis_len_max"] = self.bb_len_max
        counts["groebner.normal_form.calls_in_buchberger"] = self.nf_in_bb
        counts["groebner.normal_form.zero_in_buchberger"] = self.nf_zero_in_bb
        times[BUCHBERGER + ".repeat_s"] = self.bb_repeat_s
        ratios = {
            BUCHBERGER + ".repeat_ratio":
                1 - len(self.bb_inputs) / bb_calls if bb_calls else 0.0,
            BUCHBERGER + ".zero_reduction_ratio":
                self.nf_zero_in_bb / self.nf_in_bb if self.nf_in_bb else 0.0,
        }
        return {"counts": counts, "times": times, "ratios": ratios}
