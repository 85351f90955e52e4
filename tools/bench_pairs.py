"""Alternating pairs of benchmark runs on two revisions, written to one JSON record.

Run from anywhere inside a git checkout:

    python3 tools/bench_pairs.py --base HEAD~1 --head HEAD --pairs 10 --out BENCH_37.json

The committed files of each revision are exported with `git archive` into
a directory of their own under --scratch (a new temporary directory if not
given, removed afterwards), so uncommitted edits never reach a run.  For
each workload, pair k runs `spiralbench/run.py --trace 0` once on each
revision, the base first when k is even and the head first when k is odd.
The record holds the revisions, the machine and numpy's SIMD features,
every run's end-to-end metrics and output digest and, per workload and
metric, both sides' medians and quartiles, the pairs the head wins, the
claim rule's result and the bound check, with the metrics' directions and
bounds taken from the head's BENCHMARK.json.

The claim rule: at least ten pairs, of which the head wins at least nine
tenths, ties counting for neither side, the head's median is better
than the base's by more than the distance between the base's quartiles,
and the head's runs fail no larger share of their operations than the
base's, from the failed and attempted totals the record keeps per side.  The bound check:
the head's median is worse than the base's by no more than the metric's
bound, as a share of the base's median.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

CLAIM_SHARE = 0.9
CLAIM_PAIRS = 10
RUN_TIMEOUT_S = 3600


def median(values: list[float]) -> float:
    return statistics.median(values)


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartiles, inclusive of the ends; one value is both."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def iqr(values: list[float]) -> float:
    q1, q3 = quartiles(values)
    return q3 - q1


def wins(base: list[float], head: list[float], better: str) -> int:
    """Pairs in which the head reads strictly better; ties count for neither side."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (h - b) > 0.0 for b, h in zip(base, head, strict=True))


def outcomes(runs: list[dict]) -> dict:
    """A side's failed and attempted operations, summed over its runs, and the failed share (0 for none)."""
    failed, attempted = (sum(r[key] for r in runs) for key in ("failed", "attempted"))
    return {"failed": failed, "attempted": attempted, "failed_share": failed / attempted if attempted else 0.0}


def claim(base: list[float], head: list[float], better: str, failed_shares: tuple[float, float]) -> dict:
    """The claim rule on one metric: of at least CLAIM_PAIRS pairs the head wins CLAIM_SHARE, its median is
    better by more than the base's interquartile range, and its failed share (base's, head's) is no larger."""
    sign = 1.0 if better == "higher" else -1.0
    won, gap, spread = wins(base, head, better), sign * (median(head) - median(base)), iqr(base)
    return {
        "wins": won,
        "pairs": len(base),
        "median_gain": gap,
        "base_iqr": spread,
        "holds": len(base) >= CLAIM_PAIRS and won >= CLAIM_SHARE * len(base) and gap > spread
        and failed_shares[1] <= failed_shares[0],
    }


def within_bound(base: list[float], head: list[float], better: str, bound: float) -> bool:
    """Whether the head's median is worse than the base's by no more than bound, as a share of the base's."""
    sign = 1.0 if better == "higher" else -1.0
    loss = sign * (median(base) - median(head))
    return loss <= bound * abs(median(base))


def summarize(
    base: list[float], head: list[float], better: str, bound: float, failed_shares: tuple[float, float]
) -> dict:
    return {
        "base_median": median(base),
        "head_median": median(head),
        "base_quartiles": quartiles(base),
        "head_quartiles": quartiles(head),
        **claim(base, head, better, failed_shares),
        "within_bound": within_bound(base, head, better, bound),
    }


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True, text=True).stdout.strip()


def export(repo: Path, sha: str, dest: Path) -> Path:
    """The committed files of sha, extracted under dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=repo, check=True, capture_output=True)
    dest.mkdir(parents=True)
    # the "data" filter, where this Python has it, refuses members that would land outside dest
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, **safe)
    return dest


def machine() -> dict:
    import numpy

    try:
        from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
    return {
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "simd_baseline": list(__cpu_baseline__),
        "simd_found": [name for name in __cpu_dispatch__ if __cpu_features__.get(name)],
    }


def run_one(tree: Path, workload: str, args) -> dict:
    """One `run.py --trace 0` on the checkout at tree: its metrics, digest and outcome counts."""
    cmd = [sys.executable, "spiralbench/run.py", "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    if args.items is not None:
        cmd += ["--items", str(args.items)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed in {tree}: {done.stderr.strip()[-500:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(line.split()[1] for line in lines if line.startswith("digest:"))
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "digest": digest,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--base", required=True, help="the parent revision")
    p.add_argument("--head", required=True, help="the revision under test")
    p.add_argument("--out", required=True, help="path of the JSON record")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--items", type=int, help="shrink each workload (smoke runs)")
    p.add_argument("--workloads", help="comma-separated workloads (default: every one in BENCHMARK.json)")
    p.add_argument("--scratch", help="directory for the exported revisions (default: a new temporary one)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    repo = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    revs = {side: git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}") for side, rev in
            (("base", args.base), ("head", args.head))}
    scratch = Path(args.scratch) if args.scratch else Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    root = Path(tempfile.mkdtemp(prefix="trees-", dir=scratch))
    try:
        trees = {side: export(repo, sha, root / side) for side, sha in revs.items()}
        spec = json.loads((trees["head"] / "BENCHMARK.json").read_text())
        names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
        workloads = {}
        for workload in names:
            runs = {"base": [], "head": []}
            for k in range(args.pairs):
                for side in ("base", "head") if k % 2 == 0 else ("head", "base"):
                    runs[side].append(run_one(trees[side], workload, args))
                    print(f"{workload} pair {k + 1}/{args.pairs} {side}: {runs[side][-1]['metrics']}", flush=True)
            totals = {side: outcomes(runs[side]) for side in runs}
            shares = (totals["base"]["failed_share"], totals["head"]["failed_share"])
            metrics = {}
            for m in spec["end_to_end"]:
                base, head = ([r["metrics"][m["name"]] for r in runs[side]] for side in ("base", "head"))
                metrics[m["name"]] = {"better": m["better"], "bound": m["bound"],
                                      **summarize(base, head, m["better"], m["bound"], shares)}
            digests = sorted({r["digest"] for side in runs for r in runs[side]})
            workloads[workload] = {"runs": runs, "outcomes": totals, "metrics": metrics, "digests": digests,
                                   "digests_agree": len(digests) == 1}
    finally:
        shutil.rmtree(root, ignore_errors=True)
        if not args.scratch:
            shutil.rmtree(scratch, ignore_errors=True)
    record = {
        "revisions": revs,
        "machine": machine(),
        "settings": {"pairs": args.pairs, "seed": args.seed, "seconds": args.seconds, "items": args.items,
                     "order": "base first in even pairs, head first in odd pairs",
                     "claim_pairs": CLAIM_PAIRS, "claim_share": CLAIM_SHARE},
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for workload, w in workloads.items():
        for name, m in w["metrics"].items():
            print(f"{workload} {name}: {m['base_median']:.6g} -> {m['head_median']:.6g}, head wins "
                  f"{m['wins']}/{m['pairs']}, claim {'holds' if m['holds'] else 'not met'}, "
                  f"{'within' if m['within_bound'] else 'beyond'} bound")
        print(f"{workload} digests agree: {w['digests_agree']}; failed/attempted: "
              + ", ".join(f"{side} {o['failed']}/{o['attempted']}" for side, o in w["outcomes"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
