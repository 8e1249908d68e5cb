"""weylpath benchmark: cold end-to-end runs and a per-layer traced run.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each sample is one cold pass of the
workload in a fresh interpreter (``bench/worker.py``), the way a user's
``weylpath verify-all`` or ``verify`` call starts; samples run one
after another (a closed loop with one client) until ``--seconds`` is
used up, and at least MIN_SAMPLES of them run.  Every output is
checked against golden data in ``bench/golden``.

A shared virtual machine can change speed by tens of percent from one
minute to the next, which would swamp the bounds in ``BENCHMARK.json``.  So
every sample also times a fixed calibration search that does not call
weylpath (``worker.calibration_s``), about once a second between
operations and three times after the pass, and the end-to-end timings
are reported at reference speed: each sample's times are multiplied by
REFERENCE_CALIBRATION_S over the mean of that sample's calibration
times before the medians are taken.  The raw medians are printed beside them; the
per-layer metrics are raw.  All processes of a run are pinned to one
CPU, so that a pass and its calibration run on the same one.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates traced and untraced samples and reports the
per-layer metrics, and writes the spans of the first traced sample,
with every sample's self times, to ``.bench_out/``.  The last line of
standard output is the JSON result; the lines before it repeat every
metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS
from workloads import WORKLOADS, load_golden, make_inputs

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".bench_out"

MIN_SAMPLES = 3
MIN_TRACED_SAMPLES = 2
# No sample may end later than this many seconds after the run starts.
RUN_BUDGET_S = 170.0
# Calibration time that defines reference speed (about what the search
# takes on an uncontended 2-vCPU Xeon VM with Python 3.11).
REFERENCE_CALIBRATION_S = 0.03


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def run_worker(payload: bytes, traced: bool, keep_spans: bool, timeout: float) -> dict:
    if timeout <= 0:
        raise BenchError(f"no time left within the {RUN_BUDGET_S:.0f} s budget")
    launch = time.monotonic()
    cmd = [sys.executable, str(WORKER), repr(launch), str(int(traced)), str(int(keep_spans))]
    try:
        proc = subprocess.run(cmd, input=payload, capture_output=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a sample did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.decode()[-2000:]}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def collect(payload: bytes, seconds: float, trace: bool) -> list:
    """Samples as ``(traced, result)``, alternating when ``trace`` is set."""
    start = time.monotonic()
    samples, durations = [], []
    while True:
        traced = trace and len(samples) % 2 == 0
        keep_spans = traced and len(samples) == 0
        t0 = time.monotonic()
        samples.append((traced, run_worker(payload, traced, keep_spans,
                                           start + RUN_BUDGET_S - t0)))
        durations.append(time.monotonic() - t0)
        untraced = sum(1 for t, _ in samples if not t)
        traced_n = len(samples) - untraced
        enough = untraced >= (MIN_TRACED_SAMPLES if trace else MIN_SAMPLES) \
            and traced_n >= (MIN_TRACED_SAMPLES if trace else 0)
        if enough and time.monotonic() - start + statistics.median(durations) > seconds:
            return samples


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def spread_note(values, raw) -> str:
    values = sorted(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"median of {len(values)} cold samples; min {values[0]:.4g}, "
            f"quartiles {q[0]:.4g}-{q[2]:.4g}; raw median {statistics.median(raw):.4g}")


def scaled(runs: list, key: str) -> list:
    """Each sample's ``key`` time at reference speed."""
    return [r[key] * REFERENCE_CALIBRATION_S / r["calibration_s"] for r in runs]


def end_to_end(runs: list) -> tuple:
    """End-to-end metrics, every timing scaled to reference speed."""
    scale = [REFERENCE_CALIBRATION_S / r["calibration_s"] for r in runs]
    wall = scaled(runs, "wall_s")
    setup = scaled(runs, "setup_s")
    lat = sorted(x * k for r, k in zip(runs, scale) for x in r["latencies"])
    p90 = statistics.quantiles(lat, n=10)[-1]
    metrics = {
        "wall_s": metric(statistics.median(wall), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "config_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "config_p90_ms": metric(p90 * 1e3, "ms"),
        "ops_per_s": metric(statistics.median(
            r["attempted"] / w for r, w in zip(runs, wall)), "1/s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_kb"] for r in runs) / 1024, "MB"),
    }
    notes = {
        "wall_s": spread_note(wall, [r["wall_s"] for r in runs]),
        "setup_s": spread_note(setup, [r["setup_s"] for r in runs]),
        "config_p50_ms": f"{len(lat)} latencies pooled",
        "config_p90_ms": f"{len(lat)} latencies, {sum(x > p90 for x in lat)} beyond",
        "ops_per_s": "calibration {:.4g}-{:.4g} s".format(
            min(r["calibration_s"] for r in runs), max(r["calibration_s"] for r in runs)),
    }
    return metrics, notes


def per_layer(traced: list, untraced: list) -> tuple:
    metrics = {}
    walls = [r["wall_s"] for r in traced]
    for layer in LAYERS:
        stats = [r["trace"]["layers"][layer] for r in traced]
        metrics[f"{layer}.calls"] = metric(statistics.median(s["calls"] for s in stats), "count")
        metrics[f"{layer}.self_s"] = metric(statistics.median(s["self_s"] for s in stats), "s")
        metrics[f"{layer}.share"] = metric(
            statistics.median(s["self_s"] / w for s, w in zip(stats, walls)), "ratio")
    counts = [r["trace"]["counts"] for r in traced]
    for name in ("certificates.path.steps", "certificates.parse.rejected"):
        metrics[name] = metric(statistics.median(c[name] for c in counts), "count")
    # Share of the documents that must not be valid (the wrong-sum and
    # malformed certs kinds) that were judged valid; 0 where none ran.
    metrics["vanishing.check.false_valid_share"] = metric(statistics.median(
        c["vanishing.check.false_valid"] / c["vanishing.check.expected_not_valid"]
        if c["vanishing.check.expected_not_valid"] else 0.0 for c in counts), "ratio")
    metrics["verify.serialize.bytes"] = metric(
        statistics.median(c["verify.serialize.bytes"] for c in counts), "bytes")
    # Both passes make the same calls, so the difference is the cost of
    # the spans.  It is taken at reference speed, like the end-to-end
    # timings, so that the host's changes of speed between the two kinds
    # of sample do not swamp it.
    overhead = statistics.median(scaled(traced, "wall_s")) \
        - statistics.median(scaled(untraced, "wall_s"))
    metrics["trace.overhead_s"] = metric(overhead, "s")
    n = f"median of {len(traced)} traced samples"
    notes = {f"{layer}.self_s": n for layer in LAYERS}
    notes["trace.overhead_s"] = (f"{len(traced)} traced against {len(untraced)} untraced "
                                 "samples, at reference speed")
    return metrics, notes


def write_trace(workload: str, seed: int, traced: list, untraced: list, metrics: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    first = traced[0]["trace"]
    doc = {
        "workload": workload,
        "seed": seed,
        "metrics": metrics,
        "samples": [{"traced": True, "wall_s": r["wall_s"], "layers": r["trace"]["layers"],
                     "counts": r["trace"]["counts"]} for r in traced]
                   + [{"traced": False, "wall_s": r["wall_s"]} for r in untraced],
        "span_fields": ["name", "start_s", "end_s", "parent", "op"],
        "spans": first["spans"],
    }
    path.write_text(json.dumps(doc))
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "weylpath" / "__init__.py").is_file():
        print(f"error: no weylpath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    golden = load_golden(args.workload)
    job = {"workload": args.workload, "inputs": make_inputs(args.workload, args.seed, golden)}
    try:
        samples = collect(json.dumps(job).encode(), args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs = [r for _, r in samples]
    traced = [r for t, r in samples if t]
    untraced = [r for t, r in samples if not t]
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    unexpected = [f for f in failures if not f[2]]
    if args.trace:
        metrics, notes = per_layer(traced, untraced)
        where = write_trace(args.workload, args.seed, traced, untraced, metrics)
        print(f"spans and self times written to {where.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(untraced)
        metrics["ok_share"] = metric((attempted - len(failures)) / attempted, "ratio")
        notes["ok_share"] = f"{attempted - len(failures)} of {attempted} operations as expected"

    print(f"workload {args.workload}, seed {args.seed}: {len(samples)} cold samples, "
          f"{attempted} operations, {len(failures)} failed "
          f"({len(failures) / attempted:.4f}), {len(unexpected)} outside the known defects")
    for label, detail, tolerated in sorted({tuple(f) for f in failures})[:20]:
        print(f"  failed: {label}: {detail}{'  (known defect)' if tolerated else ''}")
    for name, m in metrics.items():
        note = notes.get(name)
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']:6s}" + (f"  ({note})" if note else ""))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
