"""Spans around calls into bfree's layers, recorded from the benchmark side.

``Tracer.install`` replaces every public function of the package with a
wrapper, in every bfree module that holds a reference to it (the defining
module, the package namespace, and any module that imported the name, such
as ``bfree.measures.phi_window``).  Calls between modules therefore nest:
a sampler span contains the sieve spans it caused, which gives each layer
a self time.  Nothing inside ``src/`` is changed; ``uninstall`` restores
the original objects.

A layer is a module, except that ``bfree.measures`` is split into
cylinder, sampler and blocks because those parts serve different
workloads.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

LAYER_MODULES = ("core", "sieve", "admissibility", "entropy", "measures", "inclusion", "sturmian")

MEASURES_SPLIT = {
    "mirsky_cylinder": "measures.cylinder",
    "mixed_cylinder": "measures.cylinder",
    "sample_mirsky": "measures.sampler",
    "sample_product": "measures.sampler",
    "sample_generalized": "measures.sampler",
    "mask_batch": "measures.blocks",
    "squeeze": "measures.blocks",
    "embed": "measures.blocks",
    "empirical_block_distribution": "measures.blocks",
}

LAYERS = (
    "core",
    "sieve",
    "admissibility",
    "entropy",
    "measures.cylinder",
    "measures.sampler",
    "measures.blocks",
    "inclusion",
    "sturmian",
)

# Exception class names that are documented budget refusals.
BUDGET_ERRORS = frozenset(
    {"WindowTooLarge", "StateSpaceTooLarge", "TooManyZeros", "SearchBudgetExceeded", "BudgetExceeded"}
)


def _window_bits(lo, hi):
    return max(int(hi) - int(lo), 0)


def _sieve_work(moduli, per_modulus, lo, hi):
    n = _window_bits(lo, hi)
    return {"bits": n, "strikes": sum(s * math.ceil(n / b) for s, b in zip(per_modulus, moduli))}


def _count_eta(args, kwargs, result):
    bset, lo, hi = args[:3]
    return _sieve_work(bset.moduli, [1] * len(bset), lo, hi)


def _count_phi(args, kwargs, result):
    omega, lo, hi = args[:3]
    return _sieve_work(omega.bset.moduli, [1] * len(omega.bset), lo, hi)


def _count_phi_sa(args, kwargs, result):
    profile, _omega, lo, hi = args[:4]
    return _sieve_work(profile.bset.moduli, profile.s, lo, hi)


def _count_sample(args, kwargs, result):
    return {"samples": len(result.words), "sample_bits": sum(len(w) for w in result.words)}


def _count_windows(args, kwargs, result):
    return {"windows": len(args[0].words)}


def _count_oracle(args, kwargs, result):
    bset_a, bset_b = args[:2]
    return {"oracle_combos": math.prod(bset_a.moduli) * len(bset_b.moduli)}


# Work counts recorded at the boundary, computed from the call's inputs
# (and, for window lengths, its output).  Keyed by function name.
COUNTERS = {
    "block_complexity": lambda a, k, r: {"dp_steps": int(a[1])},
    "mirsky_cylinder": lambda a, k, r: {"terms": 1},
    "mixed_cylinder": lambda a, k, r: {"terms": 1 << len(a[1].zeros)},
    "word_level_includes": _count_oracle,
    "eta_window": _count_eta,
    "phi_window": _count_phi,
    "phi_sa_window": _count_phi_sa,
    "sample_mirsky": _count_sample,
    "sample_product": _count_sample,
    "sample_generalized": _count_sample,
    "empirical_block_distribution": _count_windows,
    "mask_batch": _count_windows,
    "squeeze": lambda a, k, r: {"windows": 1},
    "embed": lambda a, k, r: {"windows": 1},
    "sturmian_window": lambda a, k, r: {"bits": _window_bits(a[1], a[2])},
}


class _Span:
    __slots__ = ("layer", "start", "other_child")

    def __init__(self, layer, start):
        self.layer = layer
        self.start = start
        self.other_child = 0.0


class Tracer:
    """Holds the spans of one repetition; install, run the ops, uninstall."""

    def __init__(self):
        self.stack: list[_Span] = []
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(lambda: defaultdict(int))
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, layer):
        span = _Span(layer, time.perf_counter())
        self.stack.append(span)
        return span

    def _outermost(self, layer):
        return all(s.layer != layer for s in self.stack)

    def _exit(self, span, exc, *, new_call=True):
        duration = time.perf_counter() - span.start
        self.stack.pop()
        layer = span.layer
        if self._outermost(layer):
            self.calls[layer] += new_call
            self.busy[layer] += duration
            self.self_time[layer] += duration - span.other_child
            if exc is not None:
                name = type(exc).__name__
                if name in BUDGET_ERRORS:
                    self.counts[layer]["refused"] += 1
                elif name == "PrecisionExhausted":
                    self.counts[layer]["precision_exhausted"] += 1
        if self.stack:
            parent = self.stack[-1]
            parent.other_child += span.other_child if parent.layer == layer else duration

    def _wrap(self, layer, name, fn):
        counter = COUNTERS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):

            # One call per generator; each resumption is a span of its own.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[layer] += tracer._outermost(layer)
                it = fn(*args, **kwargs)
                while True:
                    span = tracer._enter(layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._exit(span, None, new_call=False)
                        return
                    except BaseException as exc:
                        tracer._exit(span, exc, new_call=False)
                        raise
                    tracer._exit(span, None, new_call=False)
                    tracer.counts[layer]["words_enumerated"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(span, exc)
                raise
            tracer._exit(span, None)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer.counts[layer][key] += value
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every public function of every layer module, wherever referenced."""
        originals = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"bfree.{short}"]
            for name, obj in vars(module).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    layer = MEASURES_SPLIT.get(name, short) if short == "measures" else short
                    originals[id(obj)] = (obj, self._wrap(layer, name, obj))
        holders = [m for n, m in sys.modules.items() if n == "bfree" or n.startswith("bfree.")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((holder, attr, value))
                    setattr(holder, attr, hit[1])

    def uninstall(self):
        for holder, attr, value in reversed(self._patched):
            setattr(holder, attr, value)
        self._patched.clear()

    def summary(self) -> dict:
        """Per-layer calls, busy and self seconds, and boundary counts."""
        return {
            layer: {
                "calls": self.calls[layer],
                "busy_s": self.busy[layer],
                "self_s": self.self_time[layer],
                **dict(self.counts[layer]),
            }
            for layer in LAYERS
        }
