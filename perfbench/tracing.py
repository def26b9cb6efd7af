"""Per-layer spans and counts, recorded from outside the program.

The tracer rebinds acklab's public functions to timing wrappers. A function
is replaced at every acklab module attribute bound to it, so a call through
a name imported elsewhere (``algorithms`` imports ``longest_critical_suffix``
by name, ``harness`` and ``cli`` import ``dp_optimal``) is traced too. A
layer whose function a later change deletes or renames reports zero calls.

A layer's self time is its span minus the spans of the layers it calls. A
call made from inside a span of the same layer (``dp_optimal`` calling
``dp_table``) belongs to the outer span and is not counted again.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (layer, module, public function); the counted work of each layer is in _work.
FUNCTIONS = (
    ("offline.critical_suffix", "acklab.offline", "longest_critical_suffix"),
    ("offline.dp", "acklab.offline", "dp_optimal"),
    ("offline.dp", "acklab.offline", "dp_table"),
    ("offline.brute", "acklab.offline", "brute_force_optimal"),
    ("engine.threshold", "acklab.engine", "solve_threshold_time"),
    ("engine.lookahead", "acklab.engine", "next_threshold"),
    ("engine.simulate", "acklab.engine", "simulate"),
    ("cost.f_vector", "acklab.cost", "f_vector"),
    ("cost.batch_fn", "acklab.cost", "batch_delay_fn"),
    ("model.evaluate", "acklab.model", "evaluate_schedule"),
    ("harness.run_bench", "acklab.harness", "run_bench"),
    ("adversary.permit_cover", "acklab.adversary", "permit_cover_optimal"),
    ("adversary", "acklab.adversary", "run_concave_adversary"),
    ("adversary", "acklab.adversary", "run_pp_adversary"),
    ("adversary", "acklab.adversary", "gen_greedy_tau_hard"),
    ("cli", "acklab.cli", "main"),
)
# Every policy's observe_arrival, found on the subclasses of this base class.
OBSERVE = ("algorithms.observe", "acklab.algorithms", "acklab.engine", "OnlineAlgorithm")
OPTIMA = ("offline.dp", "offline.brute")


def _len_first(args, kwargs, name):
    seq = args[0] if args else kwargs.get(name, ())
    return len(seq)


def _work(layer: str, args, kwargs) -> tuple[str, int] | None:
    """The counted work of one call, or None for layers that only time."""
    if layer == "offline.critical_suffix":
        return "packets", _len_first(args, kwargs, "arrivals")
    if layer == "offline.dp":
        n = _len_first(args, kwargs, "arrivals")
        return "cells", n * (n + 1) // 2
    if layer == "offline.brute":
        n = _len_first(args, kwargs, "arrivals")
        return "partitions", (1 << (n - 1)) if 1 <= n <= 22 else 0
    if layer == "cost.f_vector":
        delays = args[1] if len(args) > 1 else kwargs.get("delays", ())
        return "entries", len(delays)
    return None


class Tracer:
    """Installs the wrappers on demand and accumulates spans and counts."""

    def __init__(self):
        self._bindings: list[tuple[object, str, object, object]] = []
        self._stack: list[list] = []  # [layer, time spent in child spans]
        self.reset()
        for layer, module, name in FUNCTIONS:
            original = getattr(importlib.import_module(module), name, None)
            if callable(original):
                self._bind_everywhere(original, self._wrap(layer, original))
        self._bind_observe()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.optima_in_bench = 0

    # -- installation --------------------------------------------------------

    def _bind_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "acklab" or mod_name.startswith("acklab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._bindings.append((mod, attr, original, wrapper))

    def _bind_observe(self) -> None:
        layer, mod_name, base_mod, base_name = OBSERVE
        base = getattr(importlib.import_module(base_mod), base_name, None)
        if base is None:
            return
        for value in list(vars(importlib.import_module(mod_name)).values()):
            if isinstance(value, type) and issubclass(value, base) and value is not base:
                original = value.__dict__.get("observe_arrival")
                if callable(original):
                    self._bindings.append(
                        (value, "observe_arrival", original, self._wrap(layer, original))
                    )

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    # -- spans ---------------------------------------------------------------

    def _span(self, layer: str, fn, args, kwargs):
        stack = self._stack
        frame = [layer, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            self.self_s[layer] += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed

    def _wrap(self, layer: str, fn):
        tracer = self

        def counting(evaluator):
            def evaluate(t):
                tracer.counts["engine.threshold.evals"] += 1
                return evaluator(t)

            return evaluate

        def timed_closure(closure):
            def evaluate(t):
                return tracer._span(layer, closure, (t,), {})

            return evaluate

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            counts = tracer.counts
            counts[layer + ".calls"] += 1
            work = _work(layer, args, kwargs)
            if work is not None:
                counts[f"{layer}.{work[0]}"] += work[1]
            if layer in OPTIMA and any(f[0] == "harness.run_bench" for f in stack):
                tracer.optima_in_bench += 1
            if layer == "engine.threshold":
                if args:
                    args = (counting(args[0]),) + args[1:]
                else:
                    kwargs = dict(kwargs, evaluator=counting(kwargs["evaluator"]))
            result = tracer._span(layer, fn, args, kwargs)
            if layer == "cost.batch_fn" and callable(result):
                return timed_closure(result)
            return result

        return wrapper
