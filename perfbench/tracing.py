"""Layer spans recorded from outside the package.

Each traced function is replaced, for the duration of a traced pass, by a
wrapper that times the call.  The wrapper is bound in the defining module
and in every ``logtangent`` namespace that holds the same function object
(``from .x import name`` copies the binding, so replacing it in the
defining module alone would miss callers such as ``sequences`` calling
``groebner.module_gb_and_syzygies``).  Low-level modules (``fields``,
``poly``, ``modules``, ``linalg``) are called once per term: wrapping
them would measure the wrapper, so their time lands in the callers'
``self_ms``.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

# Traced span ("module.function", pipeline order) -> the per-op figures
# reported for it: inclusive ms, self ms, entries.
SPAN_METRICS = {
    "search.analyze_sample": ("ms", "self_ms"),
    "search.sample_pair": ("ms",),
    "fixtures.run_fixture": ("ms", "self_ms"),
    "invariants.invariants": ("ms", "self_ms"),
    "invariants.validate_constraints": ("ms",),
    "sequences.jacobian_analysis": ("ms", "self_ms", "calls"),
    "sequences.constant_kernel_dimension": ("ms",),
    "groebner.module_gb_and_syzygies": ("ms", "calls"),
    "groebner.groebner_basis": ("ms", "calls"),
    "groebner.normal_form": ("ms", "calls"),
    "groebner.syzygy_basis": ("ms", "calls"),
    "groebner.saturate_ideal": ("ms", "self_ms", "calls"),
    "groebner.ideal_colon": ("calls",),
    "groebner.ideal_intersection": ("calls",),
    "groebner.ideal_groebner": ("ms", "calls"),
    "groebner.annihilator_of_cokernel": ("ms", "calls"),
    "groebner.ideal_equals": ("ms",),
    "hilbert.hilbert_of_quotient": ("ms",),
    "hilbert.dimension_degree": ("ms",),
    "hilbert.hilbert_of_ideal_quotient": ("ms",),
    "resolution.resolve_submodule": ("ms", "self_ms"),
    "resolution.minimal_generators": ("ms", "self_ms", "calls"),
    "resolution.module_dual": ("ms",),
    "resolution.resolve_ideal": ("ms",),
    "bourbaki.bourbaki_data": ("ms", "self_ms"),
}
LAYERS = tuple(tuple(span.split(".")) for span in SPAN_METRICS)


def _read_jacobian(result, counts):
    counts["sequences.jacobian_analysis.kernel_gens"] += len(result.kernel.gens)
    counts["sequences.jacobian_analysis.image_gb_size"] += len(result.image_gb)


def _read_resolution(result, counts):
    counts["resolution.length"] += result.length
    counts["resolution.generators"] += sum(m.rank for m in result.modules)


# Exact counts read from return values, keyed by the span that returns them.
READERS = {
    "sequences.jacobian_analysis": _read_jacobian,
    "resolution.resolve_submodule": _read_resolution,
}

READ_COUNTS = (
    "sequences.jacobian_analysis.kernel_gens",
    "sequences.jacobian_analysis.image_gb_size",
    "resolution.length",
    "resolution.generators",
)


class Tracer:
    """Aggregated spans: per name, entries, inclusive and self time.

    ``ms`` counts only the outermost activation of a name, so a function
    reached again below itself is not counted twice; ``self_ms`` is each
    activation's duration minus the time its traced children took.  Times
    collect per op and join the totals through ``end_op``, scaled by the
    op's reference factor.
    """

    def __init__(self):
        names = list(SPAN_METRICS)
        self.calls = dict.fromkeys(names, 0)
        self.inclusive = dict.fromkeys(names, 0.0)
        self.self_time = dict.fromkeys(names, 0.0)
        self.counts = dict.fromkeys(READ_COUNTS, 0)
        self._op_inclusive = dict.fromkeys(names, 0.0)
        self._op_self = dict.fromkeys(names, 0.0)
        self._active = dict.fromkeys(names, 0)
        self._children: list[float] = []

    def wrap(self, name: str, fn):
        reader = READERS.get(name)

        def traced(*args, **kwargs):
            children = self._children
            children.append(0.0)
            self._active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._active[name] -= 1
                inner = children.pop()
                if children:
                    children[-1] += dt
                self.calls[name] += 1
                self._op_self[name] += dt - inner
                if not self._active[name]:
                    self._op_inclusive[name] += dt
            if reader is not None:
                reader(result, self.counts)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def end_op(self, factor: float):
        """Add the op's span times, scaled by factor, to the totals."""
        for name, t in self._op_inclusive.items():
            self.inclusive[name] += t * factor
            self._op_inclusive[name] = 0.0
        for name, t in self._op_self.items():
            self.self_time[name] += t * factor
            self._op_self[name] = 0.0

    def exact_counts(self) -> dict[str, int]:
        """Everything the trace counts rather than times, for repeat checks."""
        out = {f"{n}.calls": c for n, c in self.calls.items()}
        out.update(self.counts)
        return out


def _package_namespaces():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "logtangent" or name.startswith("logtangent.")
    ]


@contextmanager
def installed(tracer: Tracer):
    """Bind the tracer's wrappers everywhere the traced functions are bound."""
    for module, _ in LAYERS:
        importlib.import_module(f"logtangent.{module}")
    namespaces = _package_namespaces()
    undo = []
    try:
        for module, name in LAYERS:
            # import_module, not attribute access: the package attribute
            # ``logtangent.invariants`` is the function, not the module.
            original = getattr(importlib.import_module(f"logtangent.{module}"), name)
            wrapper = tracer.wrap(f"{module}.{name}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        undo.append((ns, attr, original))
        yield
    finally:
        for ns, attr, original in reversed(undo):
            setattr(ns, attr, original)
