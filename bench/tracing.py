"""In-memory spans around weylpath's layers.

From its first timed operation on, a traced pass wraps the functions
that hold each layer's work in a span of the layer's name
(``Tracer.instrument``); the pass makes exactly the calls an untraced
pass makes.  A span is ``[name, start, end, parent, op]``: ``parent``
is the index of the enclosing span (or ``None``) and ``op`` the index
of the operation (configuration, profile or document) it belongs to.
Spans are only kept in memory; the benchmark writes them out when it
ends.
"""

from __future__ import annotations

import sys
from time import perf_counter

# Layers in verify's call order, named after the module that owns them,
# with the functions of that module wrapped in the layer's span.  Where
# weylpath's searches call one another's cached workers directly (the
# witness search runs the order search, every search builds the target),
# the worker is wrapped, so that its work is booked to its own layer
# whichever call reaches it first.  A call nested in another layer's span
# counts only towards its own layer's self time.
LAYERS = {
    "rootsystem.build": [("rootsystem", "_build_cached")],
    "vanishing.target": [("vanishing", "_target_cached")],
    "vanishing.order": [("vanishing", "_dijkstra_cached"), ("vanishing", "_search_data")],
    "certificates.catalog": [("certificates", "catalog_certificate")],
    "certificates.path": [("certificates", "path_certificate")],
    "vanishing.check": [("vanishing", "check_certificate")],
    "vanishing.lattice": [("vanishing", "lattice_lower_bound")],
    "vanishing.coefficient": [("vanishing", "coefficient_lower_bound")],
    "certificates.parse": [("certificates", "certificate_from_dict")],
    "verify.assemble": [("verify", "verify"), ("verify", "verify_suite")],
    "verify.serialize": [("verify", "report_to_json"), ("verify", "suite_to_json")],
}

# Counts taken from a layer's results: layer -> (count, size of result).
RESULT_COUNTS = {
    "certificates.path": ("certificates.path.steps", lambda cert: len(cert.entries)),
    "verify.serialize": ("verify.serialize.bytes", lambda text: len(text.encode())),
}

# Every count a traced pass records.
COUNTS = (
    "certificates.path.steps",
    "certificates.parse.rejected",
    "vanishing.check.expected_not_valid",
    "vanishing.check.false_valid",
    "verify.serialize.bytes",
)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self):
        t = self.tracer
        parent = t._open[-1] if t._open else None
        self.index = len(t.spans)
        t.spans.append([self.name, perf_counter(), None, parent, t.op])
        t._open.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = perf_counter()
        t._open.pop()
        return False


class Tracer:
    """Records spans and counts; one per traced worker process."""

    def __init__(self, package: str):
        self.package = package
        self.spans: list = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.op = 0
        self._open: list = []

    def start(self) -> None:
        """Begin tracing at the first timed operation; set-up is not traced."""
        self.instrument(self.package)

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def instrument(self, package: str) -> None:
        """Wrap every function named in ``LAYERS`` in a span of its layer.

        Each function is replaced under every name that binds it in the
        package's modules, so that calls between modules go through the
        span too.  Call this after the caches have been collected: the
        wrappers do not expose ``cache_clear``.
        """
        modules = [m for name, m in sys.modules.items()
                   if name == package or name.startswith(package + ".")]
        for layer, functions in LAYERS.items():
            for module, name in functions:
                original = getattr(sys.modules[f"{package}.{module}"], name)
                wrapper = self._wrap(layer, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def _wrap(self, layer: str, fn):
        counted = RESULT_COUNTS.get(layer)

        def spanned(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            if counted is not None:
                self.count(counted[0], counted[1](result))
            return result

        spanned.__name__ = spanned.__qualname__ = fn.__name__
        return spanned

    def layer_totals(self) -> dict:
        """Per layer: number of spans and self time in seconds.

        Self time is a span's duration minus the time its direct child
        spans cover.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = {name: {"calls": 0, "self_s": 0.0} for name in LAYERS}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            totals[name]["calls"] += 1
            totals[name]["self_s"] += (end - start) - child
        return totals


class NullTracer:
    """Stand-in used by untraced runs: tracing never starts, counts are no-ops."""

    op = 0

    def start(self) -> None:
        pass

    def count(self, name: str, n: int = 1) -> None:
        pass
