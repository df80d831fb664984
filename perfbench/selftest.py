"""Self-test of the benchmark: tiny runs, metric catalogue, planted faults.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks, each at a tiny size:

* every workload, untraced and traced, reports every metric that
  ``BENCHMARK.json`` names, with the unit it names, and passes its
  output check;
* a flipped payload bit in a decoded frame (listen workloads) or in a
  delivered message (gateway workloads) fails the output check, and so
  does a CRC-valid frame planted where nothing was sent (listen);
* ``run.py`` prints its result as the last line and exits 0, and exits
  non-zero without a result when the receiver sources are missing.

Exits 0 when every check passes.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import gateway_load
import listen_load
import run
from harness import ROOT, SRC

sys.path.insert(0, str(SRC))

WORKLOADS = run.WORKLOADS
SECONDS = 0.3


class SelfTestError(Exception):
    pass


def check(condition, message):
    if not condition:
        raise SelfTestError(message)


def catalogue(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def shrink():
    """Tiny sizes: fewer captures, tenants and rounds."""
    for name, load in listen_load.LOADS.items():
        listen_load.LOADS[name] = dataclasses.replace(load, captures=2)
    gateway_load.TENANTS = 2
    gateway_load.ROUNDS = 2
    gateway_load.SETS = 1


def run_outcome(workload, trace, corrupt=None):
    module = listen_load if workload.startswith("listen") else gateway_load
    return module.run(workload, seed=1, seconds=SECONDS, trace=trace, corrupt=corrupt)


def check_catalogue(workload, trace):
    outcome = run_outcome(workload, trace)
    result = run.result_line(outcome, trace)
    expected = catalogue("per_layer" if trace else "end_to_end")
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    check(got == expected, f"{workload} trace={trace}: metrics {got} != {expected}")
    for name, entry in result["metrics"].items():
        check(math.isfinite(entry["value"]), f"{workload}: {name} not finite")
    check(result["correct"], f"{workload} trace={trace}: {outcome.problems}")
    check(result["attempted"] >= 1, f"{workload}: nothing attempted")


def flip_frame_bit(result):
    """Flip one payload bit of the first CRC-valid frame a pass returned."""
    for _t0, _t1, _end, frames in result.calls:
        for position, frame in enumerate(frames):
            if frame.crc_ok:
                bits = list(frame.bits)
                bits[-17] ^= 1  # a data bit, ahead of the 16-bit CRC
                frames[position] = dataclasses.replace(frame, bits=tuple(bits))
                return


def plant_false_accept(result):
    """Return a copy of a CRC-valid frame again, after the stream's end."""
    for _t0, _t1, _end, frames in result.calls:
        for frame in frames:
            if frame.crc_ok:
                span = frame.end_index - frame.preamble_index
                start = result.calls[-1][2]  # no transmission out there
                frames.append(
                    dataclasses.replace(
                        frame, preamble_index=start, end_index=start + span
                    )
                )
                return


def flip_message_bit(tenants):
    """Flip one bit of the first message delivered to any tenant."""
    for tenant in tenants:
        for message in tenant.workload.delivered:
            data = bytearray(message["data"])
            data[0] ^= 0x01
            message["data"] = bytes(data)
            return


def check_planted_fault(workload, corrupt):
    outcome = run_outcome(workload, 0, corrupt)
    result = run.result_line(outcome, 0)
    fault = corrupt.__name__
    check(not result["correct"], f"{workload}: {fault} passed the check")
    check(result["failed"] > 0, f"{workload}: {fault} not counted as failed")


def check_cli():
    command = [
        sys.executable, "perfbench/run.py", "--workload", "listen_idle",
        "--seed", "3", "--seconds", str(SECONDS), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    check(done.returncode == 0, f"run.py exited {done.returncode}: {done.stderr}")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    check(
        set(last) == {"correct", "attempted", "failed", "metrics"},
        f"result keys {sorted(last)}",
    )
    record = json.loads(done.stdout.strip().splitlines()[-2])["record"]
    for key in ("workload", "seed", "cpu_count", "git_rev", "python", "numpy"):
        check(key in record, f"record lacks {key}")

    # Without the receiver sources the benchmark must fail, printing nothing.
    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            ROOT / "perfbench",
            bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        done = subprocess.run(
            command, cwd=bare, capture_output=True, text=True, timeout=180
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # not empty: a benchmark run is using it
    check(done.returncode != 0, "run.py without sources exited 0")
    check(done.stdout.strip() == "", "run.py without sources printed a result")


def main():
    shrink()
    steps = [
        (f"{w} trace={t}", check_catalogue, (w, t)) for w in WORKLOADS for t in (0, 1)
    ]
    faults = {
        "listen_idle": (flip_frame_bit, plant_false_accept),
        "listen_busy": (flip_frame_bit, plant_false_accept),
        "gateway": (flip_message_bit,),
        "gateway_pooled": (flip_message_bit,),
    }
    steps += [
        (f"{w} planted {fault.__name__}", check_planted_fault, (w, fault))
        for w in WORKLOADS
        for fault in faults[w]
    ]
    steps.append(("command line", check_cli, ()))
    failures = 0
    for name, step, args in steps:
        try:
            step(*args)
        except SelfTestError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
