"""Outside-in tracer: per-layer spans and counters without touching src/.

The program imports names by value (``circle.spectrum``, ``cli.PrimeTables``
and a ``check_budget`` binding in each module), so ``install`` rebinds every
``missingdigit.*`` module attribute that *is* an original function and
patches the ``PrimeTables`` methods on the class.  Per-element functions
(``contains``, ``classify_arc``, ``quadratic_class``, ``factor``,
``eval_hat``, ``well_factor``) get call counters only; everything else gets a
span.  A span's self time is its duration minus the time its child spans
cover.  Budget steps claimed through a module's ``check_budget`` are charged
to that layer, together with the wall time of the spans that claimed them.

The tracer lives in the worker process for one op list; ``uninstall``
restores every binding.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

SPANS = {
    ("cli", "main"): "cli",
    ("digitset", "contains_array"): "digitset.contains_array",
    ("digitset", "members"): "digitset.enumerate",
    ("digitset", "rank"): "digitset.enumerate",
    ("digitset", "unrank"): "digitset.enumerate",
    ("fourier", "spectrum"): "fourier.spectrum",
    ("fourier", "inversion_indicator"): "fourier.inversion",
    ("fourier", "hybrid_sum"): "fourier.hybrid_sum",
    ("fourier", "l1_and_cb"): "fourier.l1_and_cb",
    ("circle", "arc_codes"): "circle.arc_codes",
    ("circle", "arc_split"): "circle.arc_split",
    ("circle", "weighted_discrepancy"): "circle.weighted_discrepancy",
    ("circle", "discrepancy_E"): "circle.discrepancy_E",
    ("circle", "buchstab_and_app"): "circle.buchstab_and_app",
    ("circle", "count_missing_digit_primes"): "circle.prime_count",
    ("expsums", "vaughan_decompose"): "expsums.vaughan_decompose",
    ("expsums", "lambda_hat"): "expsums.lambda_hat",
    ("expsums", "min_sum"): "expsums.min_sum",
    ("expsums", "bilinear_sum"): "expsums.bilinear_sum",
    ("expsums", "type_one_inner"): "expsums.type_one",
    ("expsums", "type_one_sum"): "expsums.type_one",
    ("expsums", "type_one_max"): "expsums.type_one",
    ("expsums", "mikawa_w"): "expsums.mikawa_w",
    ("sieveweights", "build_weights"): "sieveweights.build_weights",
    ("sieveweights", "sandwich_check"): "sieveweights.sandwich_check",
    ("sievenumerics", "euler_constants"): "sievenumerics.euler_constants",
    ("sievenumerics", "t_weight_sum"): "sievenumerics.t_weight_sum",
    ("sievenumerics", "I_sem"): "sievenumerics.integrals",
    ("sievenumerics", "I_lin"): "sievenumerics.integrals",
    ("sievenumerics", "lower_bound_margin"): "sievenumerics.integrals",
}
COUNTS = {
    ("digitset", "contains"): "digitset.contains",
    ("fourier", "eval_hat"): "fourier.eval_hat",
    ("circle", "classify_arc"): "circle.classify_arc",
    ("sieveweights", "well_factor"): "sieveweights.well_factor",
}
TABLE_SPANS = {
    "__init__": "primetables.build",
    "mobius_range": "primetables.ranges",
    "mangoldt_range": "primetables.ranges",
    "in_bcal_array": "primetables.ranges",
    "primes_upto": "primetables.ranges",
}
TABLE_PROPERTY_SPANS = {"primes": "primetables.ranges", "prime_powers": "primetables.ranges"}
TABLE_COUNTS = {"quadratic_class": "primetables.quadratic_class", "factor": "primetables.factor"}
BUDGET_LAYERS = ("digitset", "fourier", "circle", "expsums", "sieveweights", "sievenumerics")

# (metric name, unit, better); the traced run reports exactly these, plus the
# harness-level ones in run.py.
LAYER_METRICS = [
    ("cli.self_s", "s", "lower"),
    ("digitset.contains.calls", "count", "lower"),
    ("digitset.contains_array.calls", "count", "lower"),
    ("digitset.contains_array.elements", "count", "lower"),
    ("digitset.contains_array.self_s", "s", "lower"),
    ("digitset.enumerate.self_s", "s", "lower"),
    ("primetables.build.calls", "count", "lower"),
    ("primetables.build.entries", "count", "lower"),
    ("primetables.build.self_s", "s", "lower"),
    ("primetables.ranges.self_s", "s", "lower"),
    ("primetables.quadratic_class.calls", "count", "lower"),
    ("primetables.factor.calls", "count", "lower"),
    ("fourier.spectrum.calls", "count", "lower"),
    ("fourier.spectrum.repeat_share", "1", "higher"),
    ("fourier.spectrum.points", "count", "lower"),
    ("fourier.spectrum.self_s", "s", "lower"),
    ("fourier.inversion_indicator.calls", "count", "lower"),
    ("fourier.inversion.self_s", "s", "lower"),
    ("fourier.hybrid_sum.self_s", "s", "lower"),
    ("fourier.l1_and_cb.self_s", "s", "lower"),
    ("fourier.eval_hat.calls", "count", "lower"),
    ("circle.arc_codes.calls", "count", "lower"),
    ("circle.arc_codes.repeat_share", "1", "higher"),
    ("circle.arc_codes.self_s", "s", "lower"),
    ("circle.classify_arc.calls", "count", "lower"),
    ("circle.arc_split.self_s", "s", "lower"),
    ("circle.weighted_discrepancy.self_s", "s", "lower"),
    ("circle.discrepancy_E.calls", "count", "lower"),
    ("circle.discrepancy_E.self_s", "s", "lower"),
    ("circle.buchstab_and_app.self_s", "s", "lower"),
    ("circle.prime_count.self_s", "s", "lower"),
    ("expsums.vaughan_decompose.calls", "count", "lower"),
    ("expsums.vaughan_decompose.self_s", "s", "lower"),
    ("expsums.lambda_hat.self_s", "s", "lower"),
    ("expsums.min_sum.self_s", "s", "lower"),
    ("expsums.bilinear_sum.self_s", "s", "lower"),
    ("expsums.type_one.self_s", "s", "lower"),
    ("expsums.mikawa_w.self_s", "s", "lower"),
    ("sieveweights.build_weights.calls", "count", "lower"),
    ("sieveweights.build_weights.self_s", "s", "lower"),
    ("sieveweights.support_size", "count", "lower"),
    ("sieveweights.sandwich_check.self_s", "s", "lower"),
    ("sieveweights.well_factor.calls", "count", "lower"),
    ("sievenumerics.euler_constants.self_s", "s", "lower"),
    ("sievenumerics.t_weight_sum.self_s", "s", "lower"),
    ("sievenumerics.integrals.self_s", "s", "lower"),
    ("budget.steps_claimed", "steps", "lower"),
] + [(f"budget.{layer}.steps_per_s", "1/s", "higher") for layer in BUDGET_LAYERS]


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "missingdigit" or name.startswith("missingdigit."))]


class Tracer:
    def __init__(self):
        # one-element lists, so a wrapper bumps its own cell without a dict
        # lookup: per-element counters sit on loops of ~1e6 calls
        self.calls: dict[str, list[int]] = defaultdict(lambda: [0])
        self.self_s: dict[str, list[float]] = defaultdict(lambda: [0.0])
        self.sizes: dict[str, float] = defaultdict(float)
        self.repeats: Counter = Counter()
        self.seen: dict[str, set] = defaultdict(set)
        self.budget_steps: dict[str, float] = defaultdict(float)
        self.budget_time: dict[str, float] = defaultdict(float)
        # one frame per open span: [child time, layers claimed, {layer: time
        # already charged inside this span}]
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    # -- hooks on arguments and results -----------------------------------------

    def _key(self, name: str, key) -> None:
        if key in self.seen[name]:
            self.repeats[name] += 1
        else:
            self.seen[name].add(key)

    def _spectrum(self, ds, k):
        self._key("fourier.spectrum", (ds.base, ds.excluded, ds.residue, k))
        self.sizes["fourier.spectrum.points"] += ds.base**k

    def _arc_codes(self, X, C):
        self._key("circle.arc_codes", (X, C))

    def _contains_array(self, ds, values):
        self.sizes["digitset.contains_array.elements"] += getattr(values, "size", len(values))

    def _table_build(self, table, limit):
        self.sizes["primetables.build.entries"] += int(limit) + 1

    def _build_weights(self, result):
        self.sizes["sieveweights.support_size"] += len(result.values)

    # -- wrappers ------------------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        stack, clock = self._stack, time.perf_counter
        calls, self_s = self.calls[name], self.self_s[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[0] += 1
            if before is not None:
                before(*args, **kwargs)
            frame = [0.0, None, None]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[0] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if frame[1] is not None or frame[2] is not None:
                    self._charge_budget(frame, dt)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _budget(self, layer, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(steps, what):
            self.budget_steps[layer] += steps
            if stack:
                frame = stack[-1]
                if frame[1] is None:
                    frame[1] = set()
                frame[1].add(layer)
            return fn(steps, what)

        return wrapper

    def _charge_budget(self, frame, dt):
        """Charge a claiming span's time to its layers once, nested spans included."""
        inner = frame[2] or {}
        charged = dict(inner)
        for layer in frame[1] or ():
            self.budget_time[layer] += dt - inner.get(layer, 0.0)
            charged[layer] = dt
        if self._stack:
            parent = self._stack[-1]
            if parent[2] is None:
                parent[2] = {}
            for layer, t in charged.items():
                parent[2][layer] = parent[2].get(layer, 0.0) + t

    # -- install / uninstall ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> "Tracer":
        import missingdigit.cli  # noqa: F401  (loads every submodule)
        from missingdigit import _budget, primetables

        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _package_modules()}
        before = {"fourier.spectrum": self._spectrum, "circle.arc_codes": self._arc_codes,
                  "digitset.contains_array": self._contains_array}
        for (mod, attr), name in SPANS.items():
            original = getattr(mods[mod], attr)
            after = self._build_weights if name == "sieveweights.build_weights" else None
            self._rebind(original, self._span(name, original, before.get(name), after))
        for (mod, attr), name in COUNTS.items():
            original = getattr(mods[mod], attr)
            self._rebind(original, self._counter(name, original))
        for layer in BUDGET_LAYERS:
            if mods[layer].check_budget is _budget.check_budget:
                self._set(mods[layer], "check_budget", self._budget(layer, _budget.check_budget))
        cls = primetables.PrimeTables
        for attr, name in TABLE_SPANS.items():
            hook = self._table_build if attr == "__init__" else None
            self._set(cls, attr, self._span(name, cls.__dict__[attr], hook))
        for attr, name in TABLE_PROPERTY_SPANS.items():
            self._set(cls, attr, property(self._span(name, cls.__dict__[attr].fget)))
        for attr, name in TABLE_COUNTS.items():
            self._set(cls, attr, self._counter(name, cls.__dict__[attr]))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------------------

    def _count(self, name: str) -> int:
        return self.calls[name][0] if name in self.calls else 0

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, _unit, _better in LAYER_METRICS:
            base, _, field = name.rpartition(".")
            if name.startswith("budget."):
                continue
            if field == "self_s":
                out[name] = self.self_s[base][0] if base in self.self_s else 0.0
            elif field == "calls":
                out[name] = self._count("fourier.inversion" if base == "fourier.inversion_indicator"
                                        else base)
            elif field == "repeat_share":
                n = self._count(base)
                out[name] = self.repeats.get(base, 0) / n if n else 0.0
            else:
                out[name] = self.sizes.get(name, 0)
        out["budget.steps_claimed"] = sum(self.budget_steps.values())
        for layer in BUDGET_LAYERS:
            t = self.budget_time.get(layer, 0.0)
            out[f"budget.{layer}.steps_per_s"] = self.budget_steps.get(layer, 0.0) / t if t else 0.0
        return out
