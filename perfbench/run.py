"""Seeded benchmark of the logtangent pipeline.

    python3 perfbench/run.py --workload search-cubic-fp --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, and the run stops with an error when it
is not there.  One process, no worker pool.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (spans timed around the package's public functions, normalised
per op) with ``--trace 1``.  Times are scaled to the host's current speed
(see ``reference.py``).  Lines before the JSON give the metadata, the
tail percentile, the unscaled figures and the layer split.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from reference import ScaledClock
from tracing import READ_COUNTS, SPAN_METRICS, Tracer, installed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
TAIL_BEYOND = 10
TAIL_FLOOR = 75

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "peak_rss_mb": "MB",
}

UNITS = {"ms": "ms", "self_ms": "ms", "calls": "count"}


def per_layer_units() -> dict[str, str]:
    out = {
        f"{span}.{kind}": UNITS[kind]
        for span, kinds in SPAN_METRICS.items()
        for kind in kinds
    }
    out.update({name: "count" for name in READ_COUNTS})
    out["trace.overhead_share"] = "share"
    return out


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of n ops above it.

    Nearest rank: percentile q sits at rank ceil(q * n / 100), leaving
    n - rank ops beyond it.  None when that percentile is below p75.
    """
    if n <= TAIL_BEYOND:
        return None
    q = 100 * (n - TAIL_BEYOND) // n
    return q if q >= TAIL_FLOOR else None


def rank(q: int, n: int) -> int:
    """1-based nearest rank of percentile q among n values."""
    return max(-(-q * n // 100), 1)


def nearest_rank(sorted_values: list[float], q: int) -> float:
    return sorted_values[rank(q, len(sorted_values)) - 1]


def load_package():
    """Import logtangent from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "logtangent" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no logtangent sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import logtangent

    if Path(logtangent.__file__).resolve().parent != SRC / "logtangent":
        raise SystemExit(f"run.py: imported logtangent from {logtangent.__file__}")
    return logtangent


def source_lines() -> int:
    return sum(
        1
        for path in sorted((SRC / "logtangent").glob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )


def load_digests() -> dict:
    return json.loads((HERE / "digests.json").read_text())


def measure_setup(workload: str, seed: int, repeats: int) -> tuple[float, float]:
    """Median wall time of fresh interpreters that import and build inputs.

    Returns (scaled, raw) medians; see ``reference``.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    clock = ScaledClock()
    raw, scaled = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, timeout=120)
        raw.append(perf_counter() - t0)
        scaled.append(raw[-1] * clock.scale())
    return statistics.median(scaled), statistics.median(raw)


class Tally:
    """Checked units and the problems found, across every execution."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, units: list[str | None]):
        self.attempted += len(units)
        bad = [u for u in units if u is not None]
        self.failed += len(bad)
        self.problems.extend(bad)


class Timings:
    """Op times, raw and scaled to reference speed, one entry per op."""

    def __init__(self, clock: ScaledClock):
        self.clock = clock
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.factor = 1.0

    def call(self, op, x):
        t0 = perf_counter()
        try:
            out = op(x)
        except Exception as exc:  # a raising op is a failed op, not a failed run
            out = exc
        dt = perf_counter() - t0
        self.factor = self.clock.scale()
        self.raw.append(dt)
        self.scaled.append(dt * self.factor)
        return out


def measure(workload, seconds: float, tally: Tally) -> Timings:
    times = Timings(ScaledClock())
    start = perf_counter()
    k = 0
    while k == 0 or perf_counter() - start < seconds:
        kk = k % len(workload.passes)
        outputs = [times.call(workload.op, x) for x in workload.passes[kk]]
        tally.add(workload.check(kk, outputs))
        k += 1
    return times


def measure_traced(workload, seconds: float, tally: Tally):
    """Each pass untraced, then traced twice; the two traced runs must count alike."""
    tracer = Tracer()
    clock = ScaledClock()
    plain, traced = Timings(clock), Timings(clock)
    start = perf_counter()
    k = 0
    while k == 0 or perf_counter() - start < seconds:
        kk = k % len(workload.passes)
        outputs = [plain.call(workload.op, x) for x in workload.passes[kk]]
        tally.add(workload.check(kk, outputs))
        first_counts = None
        for _ in range(2):
            per_op = []
            outputs = []
            with installed(tracer):
                for x in workload.passes[kk]:
                    before = tracer.exact_counts()
                    outputs.append(traced.call(workload.op, x))
                    tracer.end_op(traced.factor)
                    after = tracer.exact_counts()
                    per_op.append({n: after[n] - before[n] for n in after})
            units = workload.check(kk, outputs)
            if first_counts is not None and per_op != first_counts:
                problem = f"pass {kk}: exact counts differ between traced runs"
                units = [u or problem for u in units]
            first_counts = per_op
            tally.add(units)
        k += 1
    return tracer, plain, traced


def end_to_end_metrics(times: list[float], setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "ops_per_s": len(times) / sum(times),
        "op_ms.p50": 1000 * statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(tracer, plain: list[float], traced: list[float]) -> dict[str, float]:
    n = len(traced)
    out = {}
    for span, kinds in SPAN_METRICS.items():
        figures = {
            "ms": 1000 * tracer.inclusive[span],
            "self_ms": 1000 * tracer.self_time[span],
            "calls": tracer.calls[span],
        }
        for kind in kinds:
            out[f"{span}.{kind}"] = figures[kind] / n
    for name, value in tracer.counts.items():
        out[name] = value / n
    out["trace.overhead_share"] = (
        statistics.mean(traced) / statistics.mean(plain) - 1
    )
    return out


def report_tail(times: list[float]):
    n = len(times)
    q = tail_percentile(n)
    if q is None:
        print(f"op_ms.tail: not reported, {n} ops put the tail below p{TAIL_FLOOR}")
    else:
        value = 1000 * nearest_rank(sorted(times), q)
        print(f"op_ms.tail: p{q} = {value:.3f} ms over {n} ops "
              f"({n - rank(q, n)} beyond)")


SPLIT = (
    "sequences.jacobian_analysis",
    "resolution.resolve_submodule",
    "groebner.saturate_ideal",
    "groebner.annihilator_of_cokernel",
    "bourbaki.bourbaki_data",
)


def report_split(tracer, traced: list[float]):
    total = sum(traced)
    shares = ", ".join(
        f"{span} {100 * tracer.inclusive[span] / total:.1f}%" for span in SPLIT
    )
    print(f"split of traced op time: {shares}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, then exit (times set-up)")
    return parser.parse_args(argv)


def run(workload_name: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    workload = WORKLOADS[workload_name](seed, load_digests())
    print(f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
          f"src/logtangent {source_lines()} non-blank lines")
    if workload.has_digest and workload.recorded is None:
        print(f"seed {seed} has no recorded digest: passes checked for repeatability")
    workload.op(workload.passes[0][0])  # warm-up, untimed and unchecked
    tally = Tally()
    if trace:
        tracer, plain, traced = measure_traced(workload, seconds, tally)
        missing = sorted(s for s in workload.expected_spans if not tracer.calls[s])
        if missing:
            tally.problems.append(f"wrappers never hit: {missing}")
        report_split(tracer, traced.scaled)
        values = per_layer_metrics(tracer, plain.scaled, traced.scaled)
        units = per_layer_units()
    else:
        setup_s, setup_raw = measure_setup(workload_name, seed, SETUP_REPEATS)
        times = measure(workload, seconds, tally)
        report_tail(times.scaled)
        print(f"unscaled: setup_s {setup_raw:.4f}, "
              f"ops_per_s {len(times.raw) / sum(times.raw):.4f}, "
              f"op_ms.p50 {1000 * statistics.median(times.raw):.3f}")
        values = end_to_end_metrics(times.scaled, setup_s)
        units = END_TO_END
    print(f"failed_share: {tally.failed / tally.attempted} "
          f"({tally.failed} of {tally.attempted})")
    for problem in tally.problems[:20]:
        print(f"problem: {problem}")
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    if args.setup_only:
        WORKLOADS[args.workload](args.seed, load_digests())
        return 0
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
