"""Per-layer tracing of one `aat` process, installed from outside the program.

`Tracer.install()` replaces each function named in `TARGETS` by a wrapper that
times the call, in the defining module and in every `aat` module or
module-level dict that holds a reference to it.  A target the installed
version no longer has is skipped and listed in `skipped`, so the benchmark
keeps working across refactors.  Aggregates (calls, inclusive and self time)
are kept per metric; full spans are kept only for the few calls that
delimit derive steps.
"""

from __future__ import annotations

import importlib
import sys
import time

# metric prefix -> (module, attribute path); several paths may share a prefix
TARGETS = (
    ("rings.mul", "aat.rings", "MPoly.__mul__"),
    ("rings.mul", "aat.rings", "MPoly.__rmul__"),
    ("euclid.gcd", "aat.euclid", "gcd"),
    ("euclid.prem", "aat.euclid", "prem"),
    ("euclid.resultant", "aat.euclid", "resultant"),
    ("euclid.factor_candidates", "aat.euclid", "factor_candidates"),
    ("problem.load_problem", "aat.problem", "load_problem"),
    ("generate.build_auto_aat", "aat.generate", "build_auto_aat"),
    ("generate.weierstrass_addition_poly", "aat.generate", "weierstrass_addition_poly"),
    ("elimination.derive_first_order", "aat.elimination", "derive_first_order"),
    ("elimination.cross_difference", "aat.elimination", "cross_difference"),
    ("elimination.gcd_and_eliminant", "aat.elimination", "gcd_and_eliminant"),
    ("elimination.specialize_v", "aat.elimination", "specialize_v"),
    ("elimination.isolate", "aat.elimination", "_isolate"),
    ("weierstrass.lattice_init", "aat.weierstrass", "Lattice.__init__"),
    ("weierstrass.eval_all", "aat.weierstrass", "Lattice.eval_all"),
    ("periods.detect_period", "aat.periods", "detect_period"),
    ("sampling.residual_check", "aat.sampling", "residual_check"),
    ("addition.point_add", "aat.addition", "point_add"),
    ("addition.resolve_addition", "aat.addition", "resolve_addition"),
    ("variety.find_primitive_element", "aat.variety", "find_primitive_element"),
    ("derivatives.taylor_match_check", "aat.derivatives", "taylor_match_check"),
    ("reporting.emit_report", "aat.reporting", "emit_report"),
    ("pipeline.derive", "aat.pipeline", "stage_derive"),
    ("pipeline.variety", "aat.pipeline", "stage_variety"),
    ("pipeline.resolve", "aat.pipeline", "stage_resolve"),
    ("pipeline.verify", "aat.pipeline", "stage_verify"),
    ("pipeline.period", "aat.pipeline", "stage_period"),
)

# calls whose spans delimit the (k, p) steps of derive_first_order
_SPANNED = {"elimination.derive_first_order", "elimination.cross_difference", "elimination.isolate"}
# (k, p) positions in the argument lists of the spanned step calls
_KP_ARGS = {"elimination.cross_difference": (1, 2), "elimination.isolate": (3, 4)}
_MAX_TERMS = {"euclid.gcd", "euclid.prem", "euclid.resultant"}


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: dict = {}  # prefix -> [calls, inclusive s, self s]
        self.counts: dict = {"rings.mul.term_products": 0, "euclid.gcd.trivial": 0, "euclid.max_terms": 0}
        self.spans: list = []  # (prefix, (k, p) or None, start, end)
        self.skipped: list = []
        self._child = []  # child-time accumulators of the open calls
        self._depth: dict = {}  # prefix -> open calls, so recursion counts inclusive time once

    def install(self) -> None:
        for prefix, module_name, path in self.targets:
            try:
                module = importlib.import_module(module_name)
                owner, attr = module, path
                if "." in path:
                    cls_name, attr = path.split(".", 1)
                    owner = getattr(module, cls_name)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.skipped.append(f"{module_name}.{path}")
                continue
            self.stats.setdefault(prefix, [0, 0.0, 0.0])
            wrapper = self._wrap(prefix, original)
            setattr(owner, attr, wrapper)
            if not isinstance(owner, type):
                self._rebind(original, wrapper)

    @staticmethod
    def _rebind(original, wrapper) -> None:
        """Point every `aat` module-level reference (or dict entry) at the wrapper."""
        for name, module in list(sys.modules.items()):
            if not (name == "aat" or name.startswith("aat.")) or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper

    def _wrap(self, prefix, fn):
        stat = self.stats[prefix]
        counts = self.counts
        child = self._child
        depth = self._depth
        depth[prefix] = 0
        spanned = prefix in _SPANNED
        kp_args = _KP_ARGS.get(prefix)
        is_mul = prefix == "rings.mul"
        is_gcd = prefix == "euclid.gcd"
        sizes = prefix in _MAX_TERMS
        clock = time.perf_counter

        def traced(*args, **kwargs):
            depth[prefix] += 1
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child.pop()
                if child:
                    child[-1] += dt
                depth[prefix] -= 1
                stat[0] += 1
                stat[2] += dt - inner
                if depth[prefix] == 0:
                    stat[1] += dt
            if is_mul:
                other = args[1]
                width = len(other.terms) if hasattr(other, "terms") else 1
                counts["rings.mul.term_products"] += len(args[0].terms) * width
            if sizes:
                size = len(result.terms)
                if size > counts["euclid.max_terms"]:
                    counts["euclid.max_terms"] = size
                if is_gcd and result.is_constant():
                    counts["euclid.gcd.trivial"] += 1
            if spanned:
                kp = None
                if kp_args and len(args) > max(kp_args):
                    kp = (args[kp_args[0]], args[kp_args[1]])
                self.spans.append((prefix, kp, t0, t0 + dt))
            return result

        traced.__wrapped__ = fn
        return traced

    def derive_steps(self) -> list:
        """Seconds per (k, p) step of each derive_first_order call.

        A step runs from its cross_difference call to the next step's (or
        the column's first isolation), plus its own isolation call.
        """
        out = []
        spans = sorted(self.spans, key=lambda s: s[2])
        for prefix, _, start, end in spans:
            if prefix != "elimination.derive_first_order":
                continue
            inside = [s for s in spans if start <= s[2] and s[3] <= end and s[1] is not None]
            steps: dict = {}
            for i, (name, kp, s0, s1) in enumerate(inside):
                key = f"{kp[0]}_{kp[1]}"
                if name == "elimination.isolate":
                    steps[key] = steps.get(key, 0.0) + (s1 - s0)
                    continue
                stop = inside[i + 1][2] if i + 1 < len(inside) else end
                steps[key] = steps.get(key, 0.0) + (stop - s0)
            out.append(steps)
        return out

    def to_json(self) -> dict:
        return {
            "stats": self.stats,
            "counts": self.counts,
            "derive_steps": self.derive_steps(),
            "skipped": self.skipped,
        }
