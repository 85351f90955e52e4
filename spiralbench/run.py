"""Closed-loop benchmark of the spiralcover command line, one client.

Run from the root of a checkout:

    python3 spiralbench/run.py --workload check-population --seed 1 --seconds 40 --trace 0

Each invocation of ``spiralcover.cli.main(argv)`` starts after the previous
one returns and reads and writes real files under ``.bench_work/``.  With
``--trace 0`` the run times ``--seconds // PASS_SECONDS`` whole passes over
the workload's items and prints the end-to-end metrics; with ``--trace 1``
it makes one plain pass and one traced pass and prints the per-layer
metrics.  The last line of standard output is the result as one JSON
object; a fuller record goes to ``.bench_out/``.  See README.md here.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here, before numpy and spiralcover load

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spiralcover" / "__init__.py"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 2        # fresh processes that repeat set-up, besides the measuring process
WARMUP_ITEMS = 3
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
# seconds budgeted per pass: a run makes seconds // PASS_SECONDS whole passes (at
# least one), so every run of a workload makes the same invocations.  At 40 s that
# is 3, 2 and 2 passes: check-population, the most host-sensitive, gets the most.
PASS_SECONDS = {"check-population": 13.0, "cover-population": 20.0, "wide-measure": 20.0}

# The host's speed drifts by 20-45% from minute to minute while process time tracks
# wall time, so every timing is scaled to a fixed host speed.  A reference slice
# (pure numpy, no spiralcover code) runs after each item, one per `every` seconds of
# item time, and the times of a pass are multiplied by idle / mean slice time, where
# idle is the slice time on an idle core of a 2-core x86_64 VM (Python 3.11, numpy
# 2.4).  The slice resembles the workload's dominant work, because contention
# slows small-array and interpreter-bound code more than large-array loops.  Raw
# times are kept in the record.
REF_POINTS = 0.9 * np.exp(1j * np.linspace(0.0, 6.0, 896))
REF_NODES = (0.3, 0.5j, -0.2, 0.7)
REF_CURVE = 0.9 * np.exp(1j * np.linspace(0.0, 6.0, 200_000))
LOGS_IDLE_S = 2.5e-4
SETUP_SLICES = 200


def ref_logs() -> float:
    """Grid-sized complex logs, like the kernel calls of the check workloads."""
    start = time.perf_counter()
    for node in REF_NODES:
        np.log(1.0 - node * REF_POINTS)
    return time.perf_counter() - start


def ref_angles() -> float:
    """Angles over a long array, like the winding-number sums of `cover`."""
    start = time.perf_counter()
    v = REF_CURVE - 0.1
    np.arctan2(v.imag, v.real).sum()
    return time.perf_counter() - start


# workload: (reference slice, its seconds on an idle core, item seconds per slice)
REFERENCE = {
    "check-population": (ref_logs, LOGS_IDLE_S, 0.05),
    "cover-population": (ref_angles, 1.45e-3, 0.25),
    "wide-measure": (ref_logs, LOGS_IDLE_S, 0.05),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "correct_share": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def load_cli():
    """Import spiralcover from this checkout's sources, with the serial `cover` path."""
    if not PACKAGE.is_file():
        raise BenchError("no spiralcover sources under src/ in this checkout")
    # the threaded cover path is slower and reports wrong margins
    os.environ.pop("SPIRALCOVER_THREADS", None)
    sys.path.insert(0, str(PACKAGE.parent.parent))
    import spiralcover
    import spiralcover.cli

    if Path(spiralcover.__file__).resolve() != PACKAGE.resolve():
        raise BenchError(f"imported spiralcover from {spiralcover.__file__}, not from this checkout")
    return spiralcover.cli


def environment(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def host_scale(slices: list[float], idle: float) -> float:
    """Factor that turns raw seconds into seconds at the reference host speed."""
    return idle / statistics.fmean(slices)


def invoke(cli, item):
    """Run one item; return (seconds, exit code or None, output bytes or None, exception text or None)."""
    item.output.unlink(missing_ok=True)
    exc = None
    start = time.perf_counter()
    try:
        rc = cli.main(item.argv)
    except SystemExit as stop:
        rc = stop.code if isinstance(stop.code, int) else 2
    except Exception as err:  # an escaped exception is a failed item, recorded by type and text
        rc, exc = None, f"{type(err).__name__}: {err}"
    seconds = time.perf_counter() - start
    data = item.output.read_bytes() if item.output.exists() else None
    return seconds, rc, data, exc


def judge(item, rc, data, exc) -> tuple[str | None, bool]:
    """(failure reason or None, whether the output itself is broken)."""
    if exc is not None:
        return f"raised {exc}", True
    if rc == 2:
        return "exit 2 on valid input", False
    problem = workloads.output_problem(item, rc, data)
    if problem is not None:
        return f"malformed output: {problem}", True
    if rc != item.expected:
        failing = ", ".join(workloads.failed_checks(data)) or "none"
        return f"exit {rc}, expected {item.expected}; failing checks: {failing}", False
    return None, False


class Pass:
    """Outcome of one pass over all items, in item order."""

    def __init__(self, cli, items, reference, tracer=None):
        ref, idle, every = reference
        self.times, self.outputs, self.failures = [], [], {}
        self.broken = False
        slices = []
        for item in items:
            if tracer is not None:
                tracer.item = item.name
            seconds, rc, data, exc = invoke(cli, item)
            slices += [ref() for _ in range(1 + int(seconds / every))]
            reason, broken = judge(item, rc, data, exc)
            self.times.append(seconds)
            self.outputs.append(data or b"")
            self.broken |= broken
            if reason is not None:
                self.failures[item.name] = reason
        self.busy = sum(self.times)
        self.scale = host_scale(slices, idle)
        self.scaled = [t * self.scale for t in self.times]
        self.rate = len(items) / sum(self.scaled)
        self.digest = hashlib.sha256(b"".join(self.outputs)).hexdigest()


def set_up(cli, args, workdir: Path):
    items = workloads.build(args.workload, args.seed, workdir, cli.main, args.items)
    # the smallest inputs: lazy set-up finishes at a cost that does not depend on the seed
    for item in sorted(items, key=lambda item: item.atoms)[:WARMUP_ITEMS]:
        invoke(cli, item)
    return items


def probe_setup(args) -> list[float]:
    """Set-up seconds measured by fresh processes, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    if args.items is not None:
        cmd += ["--items", str(args.items)]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        raw, scaled = map(float, done.stdout.split()[-2:])
        samples.append((raw, scaled))
    return samples


def tail(times: list[float]) -> tuple[int, float, int]:
    """(percentile, value, items beyond): the highest listed percentile with at least
    10 items beyond it, or the median when there are fewer than 20 items."""
    pct = next((p for p in TAIL_PERCENTILES if len(times) * (100 - p) / 100 >= 10), 50)
    value = statistics.quantiles(times, n=100, method="inclusive")[pct - 1] if len(times) > 1 else times[0]
    return pct, value, sum(t > value for t in times)


def timed_run(cli, args, items, setup_samples) -> tuple[dict, dict]:
    """setup_samples are (raw, scaled) set-up seconds."""
    count = max(1, int(args.seconds // PASS_SECONDS[args.workload]))
    reference = REFERENCE[args.workload]
    passes = [Pass(cli, items, reference) for _ in range(count)]
    first = passes[0]
    times = [t for p in passes for t in p.times]
    scaled = [t for p in passes for t in p.scaled]
    pct, tail_s, beyond = tail(scaled)
    attempted = len(times)
    failed = sum(len(p.failures) for p in passes)
    raw = {
        "setup_s": statistics.median(r for r, _ in setup_samples),
        "items_per_s": attempted / sum(times),
        "item_p50_ms": statistics.median(times) * 1e3,
        "item_tail_ms": tail(times)[1] * 1e3,
    }
    metrics = {
        "setup_s": statistics.median(s for _, s in setup_samples),
        "items_per_s": attempted / sum(scaled),
        "item_p50_ms": statistics.median(scaled) * 1e3,
        "item_tail_ms": tail_s * 1e3,
        "correct_share": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    repeatable = all(p.digest == first.digest for p in passes)
    record = {
        "passes": len(passes),
        "pass_items_per_s": [p.rate for p in passes],
        "items_per_pass": len(items),
        "host_scale": sum(scaled) / sum(times),
        "raw": raw,
        "digest": first.digest,
        "repeatable": repeatable,
        "tail": {"percentile": pct, "items": attempted, "beyond": beyond},
        "setup_samples_s": setup_samples,
        "failures": first.failures,
        "correct": repeatable and not any(p.broken for p in passes),
        "attempted": attempted,
        "failed": failed,
    }
    return metrics, record


def traced_run(cli, args, items) -> tuple[dict, dict]:
    plain = Pass(cli, items, REFERENCE[args.workload])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = Pass(cli, items, REFERENCE[args.workload], tracer)
    finally:
        tracer.uninstall()
    metrics = tracing.summarize(tracer.spans, len(items))
    metrics.update({
        "serialize.output_bytes": float(sum(map(len, traced.outputs))),
        "trace.spans": float(len(tracer.spans)),
        "trace.items_per_s_untraced": plain.rate,
        "trace.items_per_s_traced": traced.rate,
        "trace.overhead_share": 1.0 - traced.rate / plain.rate,
    })
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz"
    tracer.write(spans_path)
    record = {
        "traced_host_scale": traced.scale,
        "digest": plain.digest,
        "traced_digest": traced.digest,
        "failures": plain.failures,
        "item_counts": tracing.item_counts(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "correct": plain.digest == traced.digest and not (plain.broken or traced.broken),
        "attempted": 2 * len(items),
        "failed": len(plain.failures) + len(traced.failures),
    }
    return metrics, record


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--items", type=int, help="shrink the population (smoke tests)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = load_cli()
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        items = set_up(cli, args, workdir)
        setup_s = time.perf_counter() - T_START
        # set-up is interpreter-bound work, scaled like the check workloads
        setup = (setup_s, setup_s * host_scale([ref_logs() for _ in range(SETUP_SLICES)], LOGS_IDLE_S))
        if args.setup_probe:
            print(*setup)
            return 0
        OUT.mkdir(exist_ok=True)
        env = environment(args.seed)
        print("environment:", json.dumps(env))
        if args.trace:
            metrics, record = traced_run(cli, args, items)
        else:
            metrics, record = timed_run(cli, args, items, [setup] + probe_setup(args))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unit = tracing.unit if args.trace else END_TO_END_UNITS.get
    result = {
        "correct": record.pop("correct"),
        "attempted": record.pop("attempted"),
        "failed": record.pop("failed"),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    out_path = OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"workload": args.workload, "environment": env, **record, **result}, indent=1))
    print("digest:", record["digest"])
    if "host_scale" in record:
        print(f"times scaled by {record['host_scale']:.4f} to the reference host speed; raw:", json.dumps(record["raw"]))
    if "tail" in record:
        t = record["tail"]
        print(f"item_tail_ms is p{t['percentile']} of {t['items']} items, {t['beyond']} beyond it")
    for name, reason in record["failures"].items():
        print(f"failed {name}: {reason}")
    print("record:", out_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
