"""One cold pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per sample and sends the job (the
workload name and its generated inputs) as JSON on standard input.
Arguments: the launch time on the monotonic clock, ``1`` to trace, and
``1`` to return the spans themselves.  The script prints one JSON
object: set-up and wall time, per-operation latencies, failures, peak
RSS, the mean time of a fixed calibration search run between
operations and after the pass and, when traced, per-layer totals.

Every pass starts cold: before each timed operation every functools
cache reachable from weylpath's modules is cleared and checked empty
(``certs`` checks once, before its warm-up, and then times only cache
hits).  The cache list is found here, not taken from
``weylpath.clear_caches``.  A traced pass makes the same calls as an
untraced one; ``tracing.Tracer.instrument`` adds the spans around the
layers' functions inside weylpath.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import inspect
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

# Calls go through the package (``wp.verify``), so that a traced pass
# reaches the span wrappers ``Tracer.instrument`` puts there.
import weylpath as wp  # noqa: E402
from weylpath import Parabolic, RootSystemError  # noqa: E402

from tracing import NullTracer, Tracer  # noqa: E402
from workloads import CERT_KINDS, CRITERIA_PROFILES, config_key, load_golden  # noqa: E402


class ColdStartError(RuntimeError):
    """The pass cannot be shown to start cold from this checkout's sources."""


def find_caches() -> list:
    """Every functools cache defined at module or class level in weylpath."""
    found = {}
    prefix = wp.__name__ + "."
    for name, module in list(sys.modules.items()):
        if name != wp.__name__ and not name.startswith(prefix):
            continue
        for value in vars(module).values():
            candidates = [value]
            if inspect.isclass(value) and value.__module__ == name:
                for attr in vars(value).values():
                    candidates.append(getattr(attr, "__func__", getattr(attr, "fget", attr)))
            for obj in candidates:
                if hasattr(obj, "cache_info") and hasattr(obj, "cache_clear"):
                    found[id(obj)] = obj
    if not found:
        raise ColdStartError("no functools cache found in weylpath; the cold-start guard is blind")
    return list(found.values())


def assert_cold(caches: list) -> None:
    warm = [f"{c.__module__}.{c.__qualname__}" for c in caches if c.cache_info().currsize]
    if warm:
        raise ColdStartError(f"caches not empty before a cold operation: {warm}")


# Steps of the calibration search: a fixed best-first search shaped like
# weylpath's own (tuple arithmetic, a heap, a set of visited tuples) that
# never calls weylpath, so its time tracks only how fast the host runs
# Python code at that moment.
_CAL_STEPS = tuple(tuple((i * 7 + j * 3) % 5 - 2 for j in range(8)) for i in range(30))


# Seconds of pass time between two calibration searches.
CALIBRATE_EVERY_S = 1.0


def calibration_s() -> float:
    """Time of one fixed calibration search, garbage collector off."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        heap = [(0, (0,) * 8)]
        seen = set()
        while heap and len(seen) < 3000:
            g, v = heapq.heappop(heap)
            if v in seen:
                continue
            seen.add(v)
            for step in _CAL_STEPS:
                u = tuple(a + b for a, b in zip(v, step))
                if u not in seen and all(-6 < x < 6 for x in u):
                    heapq.heappush(heap, (g + 1 + sum(abs(x) for x in u), u))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Pass:
    """Timing, counts and failures of one pass."""

    def __init__(self, tracer, caches):
        self.tr = tracer
        self.caches = caches
        self.first = None
        self.last = None
        self.attempted = 0
        self.latencies = []
        self.failures = []
        self.calibrations = []  # (start, seconds) of each calibration search
        self.next_calibration = None

    def cold(self) -> None:
        for cache in self.caches:
            cache.cache_clear()
        assert_cold(self.caches)

    def begin(self) -> float:
        """Start one operation; the first one ends set-up."""
        if self.first is None:
            self.tr.start()
            self.first = time.monotonic()
            self.next_calibration = self.first + CALIBRATE_EVERY_S
        self.tr.op = self.attempted
        self.attempted += 1
        return time.perf_counter()

    def latency(self, t0: float) -> None:
        self.latencies.append(time.perf_counter() - t0)

    def end(self) -> None:
        """End one operation; run a calibration search when one is due.

        Searches run between operations, so that the host's speed is
        sampled all through the pass; their time is taken out of the
        pass's wall time.
        """
        self.last = time.monotonic()
        if self.last >= self.next_calibration:
            self.calibrate()
            self.next_calibration = time.monotonic() + CALIBRATE_EVERY_S

    def calibrate(self) -> None:
        self.calibrations.append((time.monotonic(), calibration_s()))

    def wall_s(self) -> float:
        paused = sum(dt for start, dt in self.calibrations if start < self.last)
        return self.last - self.first - paused

    def fail(self, label: str, detail: str, tolerated: bool = False) -> None:
        self.failures.append([label, detail, tolerated])


def verify_configs(p: Pass, configs, digests: dict, require_identity: bool) -> None:
    """One cold ``verify`` per configuration, each checked against golden."""
    for family, rank, omitted in configs:
        key = config_key(family, rank, omitted)
        p.cold()
        t0 = p.begin()
        try:
            rep = wp.verify(family, rank, omitted=omitted)
            p.latency(t0)
            text = wp.report_to_json(rep)
            if require_identity and not (rep.identity and all(r.agreed for r in rep.rows)):
                p.fail(key, "identity fails or a row disagrees")
            if sha256(text) != digests[key]:
                p.fail(key, "report JSON differs from golden")
        except Exception as exc:  # a failed operation is counted, not fatal
            p.fail(key, repr(exc))
        p.end()


def run_sweep(p: Pass, inputs: dict, golden: dict) -> None:
    verify_configs(p, inputs["configs"], golden["report_sha256"], require_identity=False)
    # Then the cold suite and its JSON, as ``weylpath verify-all`` runs them.
    p.cold()
    p.begin()
    try:
        suite = wp.verify_suite(inputs["max_rank"])
        text = wp.suite_to_json(suite)
        if not suite.ok:
            p.fail("suite", "verify_suite reports failures")
        if sha256(text) != golden["suite_sha256"]:
            p.fail("suite", "suite JSON differs from golden")
    except Exception as exc:  # a failed operation is counted, not fatal
        p.fail("suite", repr(exc))
    p.end()


def run_exceptional(p: Pass, inputs: dict, golden: dict) -> None:
    for family, rank, omitted in inputs["profiles"]:
        key = config_key(family, rank, omitted)
        p.cold()
        t0 = p.begin()
        try:
            rs = wp.build(family, rank)
            parab = Parabolic.maximal(rank, omitted)
            orders, lattice = [], []
            for d in range(1, rank + 1):
                orders.append(wp.dijkstra_order(rs, parab, d))
                lattice.append(wp.lattice_lower_bound(rs, parab, d))
            p.latency(t0)
            want = golden["profiles"][key]
            if orders != want["order"] or lattice != want["lattice"]:
                p.fail(key, f"profile {orders} / lattice {lattice} differs from golden")
            if any(lat > m for lat, m in zip(lattice, orders)):
                p.fail(key, f"lattice bound {lattice} exceeds order {orders}")
            stated = CRITERIA_PROFILES.get((family, rank, omitted))
            if stated is not None and orders != stated:
                p.fail(key, f"profile {orders} differs from the stated {stated}")
        except Exception as exc:  # a failed operation is counted, not fatal
            p.fail(key, repr(exc))
        p.end()


def run_lattice_wall(p: Pass, inputs: dict, golden: dict) -> None:
    verify_configs(p, inputs["configs"], golden["report_sha256"], require_identity=True)


def check_document(tr, text: str):
    """Parse and check one certificate document as ``weylpath check-cert`` does.

    Returns the verdict (``valid``, ``invalid``, ``rejected`` for a
    ``RootSystemError``, or ``error:<type>`` for any other exception)
    and the validation, when there is one.
    """
    try:
        data = json.loads(text)
        try:
            cert = wp.certificate_from_dict(data)
        except RootSystemError:
            tr.count("certificates.parse.rejected")
            raise
        rep = wp.check_certificate(wp.build(cert.rst), cert)
    except RootSystemError:
        return "rejected", None
    except Exception as exc:  # the verdict records it as a failure
        return f"error:{type(exc).__name__}", None
    return ("valid" if rep.valid else "invalid"), rep


def run_certs(p: Pass, inputs: dict, golden: dict) -> None:
    # Set-up: warm the path oracle for every configuration in the
    # corpus, so the stream measures parsing and checking.
    for family, rank, omitted in inputs["warm"]:
        rs = wp.build(family, rank)
        parab = Parabolic.maximal(rank, omitted)
        for d in range(1, rank + 1):
            wp.dijkstra_order(rs, parab, d)
    known = golden["known_failures"]
    for kind, text, cost in inputs["docs"]:
        t0 = p.begin()
        verdict, rep = check_document(p.tr, text)
        p.latency(t0)
        expected = CERT_KINDS[kind]
        if "valid" not in expected:
            p.tr.count("vanishing.check.expected_not_valid")
            if verdict == "valid":
                p.tr.count("vanishing.check.false_valid")
        if not (verdict in expected and (cost is None or rep.dijkstra == cost)):
            p.fail(kind, verdict, tolerated=verdict in known.get(kind, ()))
        p.end()


PASSES = {
    "sweep": run_sweep,
    "exceptional": run_exceptional,
    "lattice-wall": run_lattice_wall,
    "certs": run_certs,
}


def main() -> int:
    launch = float(sys.argv[1])
    traced = sys.argv[2] == "1"
    keep_spans = sys.argv[3] == "1"
    if not Path(wp.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ColdStartError(f"weylpath imported from {wp.__file__}, not from the checkout")
    job = json.load(sys.stdin)
    workload = job["workload"]
    golden = load_golden(workload)
    caches = find_caches()
    assert_cold(caches)
    tracer = Tracer(wp.__name__) if traced else NullTracer()
    p = Pass(tracer, caches)
    PASSES[workload](p, job["inputs"], golden)
    for _ in range(3):
        p.calibrate()
    out = {
        "setup_s": p.first - launch,
        "wall_s": p.wall_s(),
        "attempted": p.attempted,
        "failures": p.failures,
        "latencies": [] if traced else p.latencies,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        # The mean, not the median: the pass's wall time averages the
        # host's speed over the pass, and so does the mean.
        "calibration_s": statistics.fmean(dt for _, dt in p.calibrations),
        "trace": None,
    }
    if traced:
        out["trace"] = {
            "layers": tracer.layer_totals(),
            "counts": tracer.counts,
            "spans": tracer.spans if keep_spans else None,
        }
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
