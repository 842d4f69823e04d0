"""Per-layer spans for the traced run, recorded from outside the library.

``Tracer.install()`` wraps the functions named in ``SPANNED`` in every
fracgame module namespace that binds them (the defining module and every
module that imported the name), so calls made through imported names are
seen too.  Each call becomes a span (op, name, parent, start, end) kept in
memory; a span's self time is its duration minus the time of its child
spans.  Private helpers are not wrapped, so their time lands in the public
caller's self time.  ``uninstall()`` restores every binding.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# layer -> public functions timed as spans
SPANNED = {
    "linfeas": ("feasible", "max_slack_point", "minimize", "vertices"),
    "stability": (
        "stable_sets", "patched_core", "core_region", "core_contains",
        "fission_resistant", "fusion_resistant",
    ),
    "centripetality": ("verify_theorem1", "verify_corollary", "leq_cp"),
    "games": ("sample_boundary", "solution_feasible", "boundary_contains", "subgame"),
    "risk": ("mixture_reward", "build_cvar_game", "verify_prop2", "empirical_curve", "beta_density"),
    "cli": ("run",),
}
# generator functions: calls counted at creation, each next() timed as a span
GENERATORS = {"partitions": ("enumerate_partitions",)}
# called once per quadrature node: counted only, a span each would swamp the run
COUNTED = {"risk": ("cvar",)}
# report encoding, timed under one name
ENCODERS = ("stability", "StabilityReport", ("to_dict", "csv_rows"), "stability.report_encode")

LP_FUNCS = ("linfeas.feasible", "linfeas.max_slack_point", "linfeas.minimize")
CORE_METHODS = ("lp", "boundary", "strong-subset", "exact-search", "sampled", "singleton")


def _den_bits(system) -> int:
    nums = list(system.lower)
    for h in system.halfspaces:
        nums.append(h.coef)
        nums.append(h.rhs)
    return max(x.denominator.bit_length() for x in nums)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[list] = []  # [span id, child seconds]
        self._saved: list[tuple] = []
        self._lp_systems: set = set()
        self._regions: set = set()
        self._mixtures: set = set()
        self.den_bits_max = 0
        self.rows_max = 0

    # -- spans ---------------------------------------------------------------

    def _timed(self, name, fn, args, kwargs, observe=None):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        frame = [sid, 0.0]
        stack.append(frame)
        ok = False
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans[sid] = (self.op, name, parent, t0, t1)
            self.self_s[name] += t1 - t0 - frame[1]
            if ok and observe is not None:
                observe(args, kwargs, result)
            if stack:
                # bookkeeping after the call stays out of the caller's self time
                stack[-1][1] += time.perf_counter() - t0
        return result

    def _span_wrapper(self, name, fn, observe=None):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return self._timed(name, fn, args, kwargs, observe)

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            it = fn(*args, **kwargs)

            def timed_items():
                while True:
                    try:
                        item = tracer._timed(name, next, (it,), {})
                    except StopIteration:
                        return
                    tracer.counts[name + ".yielded"] += 1
                    yield item

            return timed_items()

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- observers: counts measured where the work happens -------------------

    def _observe_lp(self, args, kwargs, result):
        system = args[0] if args else kwargs["system"]
        self.rows_max = max(self.rows_max, len(system.halfspaces))
        if system not in self._lp_systems:
            self._lp_systems.add(system)
            self.den_bits_max = max(self.den_bits_max, _den_bits(system))

    def _observe_core_region(self, args, kwargs, result):
        game = args[0] if args else kwargs["game"]
        kind = args[1] if len(args) > 1 else kwargs.get("kind", "strong")
        flags = tuple(sorted((k, v) for k, v in kwargs.items() if k != "rng"))
        self._regions.add((game.values, game.mode, game.tol, kind, flags))
        method = result.method.split("(")[0]
        self.counts["stability.core_region.method." + method] += 1
        if result.status == "unknown":
            self.counts["stability.core_region.unknown"] += 1

    def _observe_mixture(self, args, kwargs, result):
        self._mixtures.add(args + tuple(kwargs.values()))

    # -- installation --------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "fracgame" or modname.startswith("fracgame.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        mods = {name: sys.modules["fracgame." + name] for name in (*SPANNED, *GENERATORS)}
        observers = {
            "linfeas.feasible": self._observe_lp,
            "linfeas.max_slack_point": self._observe_lp,
            "linfeas.minimize": self._observe_lp,
            "stability.core_region": self._observe_core_region,
            "risk.mixture_reward": self._observe_mixture,
        }
        for layer, names in SPANNED.items():
            for fname in names:
                name = f"{layer}.{fname}"
                fn = getattr(mods[layer], fname)
                self._rebind(fn, self._span_wrapper(name, fn, observers.get(name)))
        for layer, names in GENERATORS.items():
            for fname in names:
                fn = getattr(mods[layer], fname)
                self._rebind(fn, self._generator_wrapper(f"{layer}.{fname}", fn))
        for layer, names in COUNTED.items():
            for fname in names:
                fn = getattr(mods[layer], fname)
                self._rebind(fn, self._count_wrapper(f"{layer}.{fname}", fn))
        layer, cls_name, methods, name = ENCODERS
        cls = getattr(mods[layer], cls_name)
        for meth in methods:
            fn = cls.__dict__[meth]
            self._saved.append((cls, meth, fn))
            setattr(cls, meth, self._span_wrapper(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics named as in BENCHMARK.json (overhead aside)."""
        out: dict[str, float] = {}
        timed = [f"{layer}.{f}" for layer, names in SPANNED.items() for f in names]
        timed += [f"{layer}.{f}" for layer, names in GENERATORS.items() for f in names]
        for name in timed:
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
        out["partitions.enumerate_partitions.yielded"] = self.counts[
            "partitions.enumerate_partitions.yielded"
        ]
        out["stability.report_encode.self_s"] = self.self_s[ENCODERS[3]]
        out["risk.cvar.calls"] = self.calls["risk.cvar"]
        lp_calls = sum(self.calls[n] for n in LP_FUNCS)
        out["linfeas.distinct_ratio"] = len(self._lp_systems) / lp_calls if lp_calls else 1.0
        out["linfeas.den_bits_max"] = self.den_bits_max
        out["linfeas.rows_max"] = self.rows_max
        regions = self.calls["stability.core_region"]
        out["stability.core_region.distinct_ratio"] = len(self._regions) / regions if regions else 1.0
        for method in CORE_METHODS:
            out["stability.core_region.method." + method] = self.counts[
                "stability.core_region.method." + method
            ]
        out["stability.core_region.unknown"] = self.counts["stability.core_region.unknown"]
        mixtures = self.calls["risk.mixture_reward"]
        out["risk.mixture_reward.distinct_ratio"] = len(self._mixtures) / mixtures if mixtures else 1.0
        return out

    def layer_self_s(self) -> dict[str, float]:
        """Summed self time per layer (module)."""
        out: dict[str, float] = defaultdict(float)
        for name, secs in self.self_s.items():
            out[name.split(".")[0]] += secs
        return dict(out)
