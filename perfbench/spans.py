"""Per-layer tracing by wrapping the library's public functions.

A layer is a module of the package.  `Tracer.install` replaces every public
function defined in a layer module by a wrapper that records a span
(name, start, end, parent, op), both on the module itself and wherever
another module bound it with ``from ... import`` (module globals and
dict-valued globals such as the CLI handler table).  Calls between layers
are therefore captured too.  Spans stay in memory; the caller writes them
out once, at the end of the run.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "chains", "kernels", "duals", "intertwining", "spectra",
          "stationary_times", "coupling")

# Inclusive time per op is reported for these functions.
TIMED = (
    "kernels.stationary",
    "duals.verify_duality",
    "intertwining.spectrum_equivalence",
    "stationary_times.absorption_recurrence",
    "stationary_times.absorption_exact",
    "stationary_times.absorption_spectral",
    "coupling.product_kernel",
    "coupling.simulate",
    "coupling.exact_joint",
)


def _matrix_order(a) -> int:
    return int(np.shape(getattr(a, "matrix", a))[0])


def _trace_flops(c, args, kwargs, result):
    # n dense products of two n x n matrices each: 2 * 2 n^3 per power
    n = _matrix_order(args[0])
    m_max = kwargs.get("m_max", args[2] if len(args) > 2 else None)
    c["intertwining.spectrum_equivalence.flops"] += 4 * n**3 * (n if m_max is None else m_max)


def _recurrence(c, args, kwargs, result):
    c["stationary_times.absorption_recurrence.horizon"] += result.n_max


def _exact(c, args, kwargs, result):
    c["stationary_times.absorption_exact.steps"] += result.n_max


def _sharpness(c, args, kwargs, result):
    c["stationary_times.verify_sharpness.steps"] += result.table.shape[0] - 1


def _product_kernel(c, args, kwargs, result):
    # (xt, y, yt) tensors M and D plus the (x, xt, y, yt) pair matrix, float64
    n, nt = result.n, result.n_tilde
    c["coupling.product_kernel.bytes"] += 8 * (n * n * nt * nt + 2 * nt * nt * n)


def _simulate(c, args, kwargs, result):
    # one Philox generator per path; each step gathers a cumulative row of
    # the pair kernel for every path
    pairs = args[0].n * args[0].n_tilde
    c["coupling.simulate.generators"] += result.n_paths
    c["coupling.simulate.gather_bytes"] += 8 * result.n_steps * result.n_paths * pairs


# Work counts computed from call arguments and result shapes.
COMPUTED = (
    "intertwining.spectrum_equivalence.flops",
    "stationary_times.absorption_recurrence.horizon",
    "stationary_times.absorption_exact.steps",
    "stationary_times.verify_sharpness.steps",
    "coupling.product_kernel.bytes",
    "coupling.simulate.generators",
    "coupling.simulate.gather_bytes",
)
COUNTERS = {
    "intertwining.spectrum_equivalence": _trace_flops,
    "stationary_times.absorption_recurrence": _recurrence,
    "stationary_times.absorption_exact": _exact,
    "stationary_times.verify_sharpness": _sharpness,
    "coupling.product_kernel": _product_kernel,
    "coupling.simulate": _simulate,
}


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.spans: list[list] = []      # [name, start, end, parent, op, raised_here]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op: int | None = None
        self._ops = 0
        self._patches: list[tuple] = []
        self._raised: dict[int, BaseException] = {}

    # -------------------------------------------------------------- install
    def install(self) -> None:
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "dualchain" or name.startswith("dualchain."))]
        for layer in LAYERS:
            mod = importlib.import_module(f"dualchain.{layer}")
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{name}", fn)
                for m in mods:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patches.append((vars(m), key, fn))
                            setattr(m, key, wrapped)
                        elif isinstance(value, dict):
                            for dk, dv in list(value.items()):
                                if dv is fn:
                                    self._patches.append((value, dk, fn))
                                    value[dk] = wrapped

    def uninstall(self) -> None:
        for table, key, fn in reversed(self._patches):
            table[key] = fn
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self._op, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                rec[5] = self._first_raise(e)
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self.counters, args, kwargs, result)
            return result

        return wrapper

    def _first_raise(self, e: BaseException) -> bool:
        """True for the innermost traced call an exception passes through."""
        if id(e) in self._raised:
            return False
        self._raised[id(e)] = e
        return True

    # ------------------------------------------------------------------ ops
    @contextlib.contextmanager
    def op(self, label: str):
        """Root span of one benchmark op; library spans inside carry its id."""
        self._op = self._ops
        self._ops += 1
        rec = [f"op:{label}", perf_counter(), 0.0, None, self._op, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
            self._op = None

    # -------------------------------------------------------------- results
    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Calls, self time and failures per layer, and inclusive time of the
        TIMED functions, each divided by the number of ops traced."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0.0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.failed"] = 0.0
        for fn in TIMED:
            out[f"{fn}.s"] = 0.0
        for i, (name, start, end, parent, _, raised) in enumerate(self.spans):
            layer = name.split(".")[0]
            if layer not in LAYERS:
                continue
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += (end - start) - child[i]
            out[f"{layer}.failed"] += raised
            if name in TIMED and (parent is None or self.spans[parent][0] != name):
                out[f"{name}.s"] += end - start
        for key, value in self.counters.items():
            out[key] = value
        return {k: v / max(ops, 1) for k, v in out.items()}

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s - self.t0, "end": e - self.t0,
                 "parent": p, "op": o} for n, s, e, p, o, _ in self.spans]
