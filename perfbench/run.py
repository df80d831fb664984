"""Receiver-stack benchmark: one command, four workloads, checked output.

Usage (from the repository root)::

    python3 perfbench/run.py --workload listen_busy --seed 1 --seconds 55 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric.  The second-to-last line of standard output is the
run's record (workload, seed, host and source identity, sample counts);
the last line is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 0 only when every output check passed.  See
``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys

from harness import BLAS_THREADS, END_TO_END, PER_LAYER, ROOT, SRC

WORKLOADS = ("listen_idle", "listen_busy", "gateway", "gateway_pooled")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(workload, seed, seconds, trace):
    """Dispatch to the workload's module; returns its :class:`Outcome`."""
    if workload.startswith("listen"):
        import listen_load

        return listen_load.run(workload, seed, seconds, trace)
    import gateway_load

    return gateway_load.run(workload, seed, seconds, trace)


def source_identity():
    """Git revision when the tree is a checkout, and a digest of ``src``."""
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=30,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return rev, digest.hexdigest()[:16]


def record(args, outcome):
    import numpy

    rev, src_digest = source_identity()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "git_rev": rev,
        "src_sha256": src_digest,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
        "problems": outcome.problems,
        **outcome.details,
    }


def result_line(outcome, trace):
    """The final JSON object, with every catalogue metric and its unit."""
    catalogue = PER_LAYER if trace else END_TO_END
    missing = sorted(set(catalogue) - set(outcome.metrics))
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    return {
        "correct": not outcome.problems,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in catalogue.items()
        },
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no receiver sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still unwinds, so the servers it started stop.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    outcome = run_workload(args.workload, args.seed, args.seconds, args.trace)
    result = result_line(outcome, args.trace)
    print(json.dumps({"record": record(args, outcome)}))
    print(json.dumps(result), flush=True)
    for problem in outcome.problems:
        print(f"output check failed: {problem}", file=sys.stderr)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
