"""Per-layer tracing of the hsplab package from outside its source tree.

Every public function of each layer module is wrapped, and the wrapper is
bound in place of the original under every name that refers to it in any
``hsplab`` module: the modules bind names with ``from .x import y``, so
patching the defining module alone would miss most call sites.

Coarse functions record a span (name, start, end, parent span, instance id)
and their self time, which is the span's duration minus the time covered by
wrapped callees.  Hot functions record call and error counts only; their
time stays in the self time of their caller.  Spans stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "core",
    "linalg",
    "sim",
    "membership",
    "normalsub",
    "solvers",
    "verify",
    "specfile",
    "cli",
)

# Called tens to thousands of times per instance for a few microseconds of
# work each: a span would cost more than the work it measures.
HOT = frozenset(
    {
        "core.enum_bound",
        "linalg.identity_matrix",
        "sim.splitmix64",
        "sim.annihilates",
        "verify.subgroup_key",
    }
)

# Methods wrapped, as (layer, class, method, metric name, timed).  The group
# operations are leaves that call no wrapped function, so they are timed
# without a span: their time moves from the caller's self time to their own.
METHODS = (
    ("core", "BlackBoxGroup", "multiply", "core.multiply", True),
    ("core", "BlackBoxGroup", "invert", "core.invert", True),
    ("core", "HidingOracle", "eval", "core.oracle_eval", False),
    ("core", "HidingOracle", "peek", "core.oracle_peek", False),
    ("sim", "QuantumFunctionOracle", "eval", "sim.oracle_eval", False),
    ("sim", "QuantumFunctionOracle", "peek", "sim.harness_peek", False),
)


def layer_modules() -> dict:
    return {name: importlib.import_module(f"hsplab.{name}") for name in LAYERS}


def public_functions(module) -> list[tuple[str, object]]:
    return [
        (name, value)
        for name, value in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    ]


class Tracer:
    """Wraps the layer functions while installed; restores them on removal."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list = []
        self.instance = None
        self.names: set = set()  # every wrapped name, called or not
        self._timed: set = set()  # the names that record spans
        self._stack: list = []
        self._restore: list = []

    def _span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.errors[name] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                tracer.spans[frame[0]] = (name, start, end, parent, tracer.instance)

        return wrapper

    def _counter(self, name: str, fn):
        calls, errors = self.calls, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise

        return wrapper

    def _leaf(self, name: str, fn):
        calls, errors, self_s, stack = self.calls, self.errors, self.self_s, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                calls[name] += 1
                self_s[name] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for layer, module in layer_modules().items():
            for fname, fn in public_functions(module):
                name = f"{layer}.{fname}"
                if name in HOT:
                    wrapper = self._counter(name, fn)
                else:
                    wrapper = self._span(name, fn)
                    self._timed.add(name)
                wrapped[id(fn)] = (fn, wrapper)
                self.names.add(name)
        hsplab_modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "hsplab" or key.startswith("hsplab."))
        ]
        for module in hsplab_modules:
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        modules = layer_modules()
        for layer, cls_name, method, name, timed in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            if timed:
                setattr(cls, method, self._leaf(name, original))
                self._timed.add(name)
            else:
                setattr(cls, method, self._counter(name, original))
            self.names.add(name)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def functions(self) -> dict:
        """Per-function totals: calls, self time in ms (spans only), errors."""
        return {
            name: {
                "calls": self.calls[name],
                "self_ms": 1000.0 * self.self_s[name] if name in self._timed else None,
                "errors": self.errors[name],
            }
            for name in sorted(self.names)
        }

    def layer_self_ms(self) -> dict:
        """Self time summed per layer module, in ms."""
        totals = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            totals[name.split(".", 1)[0]] += 1000.0 * seconds
        return totals
