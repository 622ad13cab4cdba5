"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload board-mp --seed 0 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger of a separately traced pass.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
a diagnostics object (host-speed probe, fail ratio, sample counts) that
is never a metric.  ``--size tiny`` runs the smoke-test size.  The
program is imported from ``src/`` beside this directory; without it the
script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Run artefacts (spans, daemon sockets and state) go here, under the root.
OUT_DIR = ".perfbench-out"

WORKLOAD_NAMES = ("board-mp", "fleet-dr", "acp-session")


def host_probe() -> float:
    """Seconds one fixed stdlib-only kernel takes (diagnostic only)."""
    rng = random.Random(12345)
    data = [rng.random() for _ in range(200_000)]
    start = time.perf_counter()
    for _ in range(3):
        ordered = sorted(data)
        total = sum(x * x for x in ordered)
    elapsed = time.perf_counter() - start
    if total <= 0:
        raise RuntimeError("probe kernel produced no work")
    return elapsed


def pin_to_one_cpu() -> None:
    """Run on the lowest allowed CPU; the acp-session daemon inherits it.

    acp-session's client and daemon take turns (a closed loop), so one
    CPU loses them no parallelism.  On a shared VM, waking a process on
    the other CPU costs whatever the hypervisor charges at that moment
    (see perfbench/README.md, "One CPU").
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    os.chdir(ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)
    pin_to_one_cpu()

    from perfbench.workloads import WORKLOADS, repeats_for

    k = repeats_for(args.workload, args.size, args.seconds)
    probe_before = host_probe()
    outcome = WORKLOADS[args.workload](
        args.seed, args.size, k, bool(args.trace), OUT_DIR
    )
    probe_after = host_probe()
    diagnostics = dict(outcome.diagnostics)
    diagnostics.update(
        workload=args.workload,
        seed=args.seed,
        gates=outcome.gates,
        host_probe_s={"before": probe_before, "after": probe_after},
    )
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
