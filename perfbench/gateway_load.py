"""``gateway`` / ``gateway_pooled``: ``repro serve`` driven over loopback.

Each run has a few rounds.  A round builds its tenants with
:func:`repro.gateway.loadgen.build_workloads` (transport fragments on
ZigBee channel 13) and starts a fresh ``python -m repro serve --port 0``
(``--jobs 2`` for ``gateway_pooled``); both are timed as set-up.  One
client connection on this thread then replays the ``drive_client``
pattern until the round's seconds are spent: ``hello`` every tenant
with the pinned engine, send blocks round-robin (one ``samples``
request per block, then a ``poll`` of that tenant), ``finish`` every
tenant.  Every request is timed; every delivered message is stamped on
arrival.  The round ends with SIGTERM: ``serve`` must exit 0 and leave
no shared-memory segment behind.  Every repeat of a tenant set within a
round does the same work, so, as on the listen workloads, the set's
timings are the minimum over its repeats, request by request and
message by message; the run pools them over sets and rounds.  (A
request's time here includes how ``serve``, its workers and the client
share two cores with the rest of the host.  Over the 30-odd repeats a
set gets per round, the minimum moved less from run to run than the
median or the lower quartile did.)

A traced run gives each round two servers over the same tenants: one
started through ``serve_traced.py`` (the per-layer ledger) and one plain
(the untraced twin that prices the tracing), alternating which goes
first.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from harness import (
    BLOCK_SIZE,
    ENGINE,
    ROOT,
    SAMPLE_RATE,
    SRC,
    Outcome,
    median,
    percentile_ms,
    ratio,
    session_ratios,
    tree_peak_rss_mb,
)

HERE = Path(__file__).resolve().parent
#: Scratch space for server logs, inside the checkout.
LOG_DIR = ROOT / ".perfbench_tmp"
SHM_DIR = Path("/dev/shm")

TENANTS = 4
SENDERS = 3
CHANNELS = (13,)
TENANT_STREAM_S = 0.05
#: Mean gap between a sender's fragments.  At the loadgen default
#: (1.5 ms, shorter than a frame) the channel runs back to back, every
#: message ends on the same grid, and the stream-time lag percentiles
#: jump between grid points from seed to seed.
READING_INTERVAL_S = 0.004
#: Distinct tenant sets per round, driven in turn: more distinct
#: messages per run (so the stream-time percentiles settle) without
#: longer streams, whose growing pool backlog makes the pooled tail
#: swing from run to run.
SETS = 3
#: Tenants carry one channel, so each engine runs the pinned
#: configuration on that channel alone: the solo channelizer front end.
TENANT_ENGINE = {**ENGINE, "zigbee_channels": list(CHANNELS)}
ROUNDS = 3
#: ``serve``'s memory grows with the tenants it has served, so its peak
#: RSS is read after this many repeats of a round, not at the round's
#: end, where it would depend on how fast the round went.
RSS_REPEATS = 4
JOBS = {"gateway": 1, "gateway_pooled": 2}
READY = re.compile(rb"gateway listening on ([0-9.]+):(\d+)")
TRACE_PREFIX = b"PERFBENCH_TRACE "
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0


@contextmanager
def recording_schedules():
    """Collect the ground-truth schedule of every capture rendered inside."""
    from repro.network.traffic import StreamTraffic

    schedules = []
    original = StreamTraffic.capture

    def capture(self, rng):
        samples, truth = original(self, rng)
        schedules.append(truth)
        return samples, truth

    StreamTraffic.capture = capture
    try:
        yield schedules
    finally:
        StreamTraffic.capture = original


@dataclass
class Tenant:
    workload: object
    blocks: list
    #: (zigbee_channel, msg_id) -> wideband sample one past the last
    #: on-air sample of the message's last fragment.
    last_end: dict
    fragments_aired: int


def build_tenants(seed):
    from repro.gateway.loadgen import build_workloads

    with recording_schedules() as schedules:
        workloads = build_workloads(
            TENANTS,
            SENDERS,
            seed,
            duration_s=TENANT_STREAM_S,
            channels=CHANNELS,
            reading_interval_s=READING_INTERVAL_S,
            engine=TENANT_ENGINE,
            dtype=np.complex64,
        )
    tenants = []
    for workload, truth in zip(workloads, schedules):
        last_end = {}
        for record in truth:
            # build_workloads: sender i airs msg_id i // len(channels)
            # on channel i % len(channels).
            key = (
                CHANNELS[record.sender_id % len(CHANNELS)],
                record.sender_id // len(CHANNELS),
            )
            last_end[key] = max(last_end.get(key, 0), record.end_sample)
        samples = workload.samples
        blocks = [
            samples[lo : lo + BLOCK_SIZE]
            for lo in range(0, samples.size, BLOCK_SIZE)
        ]
        tenants.append(Tenant(workload, blocks, last_end, len(truth)))
    return tenants


@dataclass
class Server:
    process: subprocess.Popen
    port: int
    log_path: Path
    shm_before: set


def _shm_segments():
    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith("psm_")}
    except OSError:
        return set()


def start_server(jobs, traced, tag):
    LOG_DIR.mkdir(exist_ok=True)
    log_path = LOG_DIR / f"serve-{os.getpid()}-{tag}.log"
    entry = [str(HERE / "serve_traced.py")] if traced else ["-m", "repro"]
    command = [sys.executable, *entry, "serve", "--port", "0", "--jobs", str(jobs)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    shm_before = _shm_segments()
    with open(log_path, "wb") as log:
        process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
    deadline = time.monotonic() + START_TIMEOUT_S
    # Until the caller holds the Server, nothing else stops this
    # process: a failed start, or the run being terminated while
    # ``serve`` starts, stops it here.
    try:
        while True:
            match = READY.search(log_path.read_bytes())
            if match:
                return Server(process, int(match.group(2)), log_path, shm_before)
            if process.poll() is not None or time.monotonic() > deadline:
                log = log_path.read_bytes().decode(errors="replace")
                raise RuntimeError(f"serve did not start:\n{log}")
            time.sleep(0.01)
    except BaseException:
        terminate(process)
        log_path.unlink(missing_ok=True)
        raise


def terminate(process):
    """SIGTERM, wait; SIGKILL after ``STOP_TIMEOUT_S``.  Returns the exit
    code, or None when ``serve`` had to be killed."""
    process.send_signal(signal.SIGTERM)
    try:
        return process.wait(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        return None


def stop_server(server):
    """SIGTERM, wait; returns ``(problems, ledger or None)``."""
    problems = []
    code = terminate(server.process)
    if code is None:
        problems.append(f"serve ignored SIGTERM for {STOP_TIMEOUT_S:.0f} s")
    if code is not None and code != 0:
        problems.append(f"serve exited {code} on SIGTERM")
    leaked = sorted(_shm_segments() - server.shm_before)
    if leaked:
        problems.append(f"serve left shared memory behind: {leaked}")
    ledger = None
    log = server.log_path.read_bytes()
    server.log_path.unlink()
    for line in log.splitlines():
        if line.startswith(TRACE_PREFIX):
            ledger = json.loads(line[len(TRACE_PREFIX) :])
    return problems, ledger


@dataclass
class Repeat:
    wall_s: float
    rtt_s: list
    #: (tenant index, channel, msg_id) -> (wall seconds from sending the
    #: holding block, stream seconds from the last fragment's end to the
    #: end of the last block sent).
    delivery: dict = field(default_factory=dict)
    finish_stats: list = field(default_factory=list)
    #: ``(expected, matched, extra)`` messages, from :func:`verify`.
    verdict: tuple = (0, 0, 0)
    #: Transport fragments the driven tenants aired.
    aired: int = 0


def drive(client, tenants):
    """One closed-loop pass over every tenant; fills ``delivered``."""
    clock = time.perf_counter
    sent_at = [[None] * len(t.blocks) for t in tenants]
    rtt = []
    arrivals = []  # (tenant index, messages, wall time, stream end sample)
    start = clock()
    for tenant in tenants:
        tenant.workload.delivered = []
        tenant.workload.shed_blocks = 0
        client.hello(tenant.workload.tenant_id, tenant.workload.engine)
    for cursor in range(max(len(t.blocks) for t in tenants)):
        for index, tenant in enumerate(tenants):
            if cursor >= len(tenant.blocks):
                continue
            tenant_id = tenant.workload.tenant_id
            block = tenant.blocks[cursor]
            t0 = clock()
            response = client.send_samples(tenant_id, block)
            rtt.append(clock() - t0)
            sent_at[index][cursor] = t0
            if not response.get("accepted"):
                tenant.workload.shed_blocks += 1
            messages = client.poll(tenant_id)
            if messages:
                end = cursor * BLOCK_SIZE + block.size
                arrivals.append((index, messages, clock(), end))
    finish_stats = []
    for index, tenant in enumerate(tenants):
        messages, stats = client.finish(tenant.workload.tenant_id)
        arrivals.append((index, messages, clock(), tenant.workload.samples.size))
        finish_stats.append(stats)
    repeat = Repeat(
        clock() - start,
        rtt,
        finish_stats=finish_stats,
        aired=sum(t.fragments_aired for t in tenants),
    )
    for index, messages, t_arrival, stream_end in arrivals:
        tenant = tenants[index]
        tenant.workload.delivered.extend(messages)
        for message in messages:
            key = (message["zigbee_channel"], message["msg_id"])
            last_end = tenant.last_end.get(key)
            if last_end is None:
                continue  # not a scheduled message: verify() counts it
            holder = (last_end - 1) // BLOCK_SIZE
            repeat.delivery[(index, *key)] = (
                t_arrival - sent_at[index][holder],
                (stream_end - last_end) / SAMPLE_RATE,
            )
    return repeat


@dataclass
class RoundResult:
    #: Repeat ``i`` drove tenant set ``i % len(set_samples)``.
    repeats: list
    #: Wideband samples of one repeat of each tenant set.
    set_samples: list
    setup_s: float
    peak_rss_mb: float
    pool_stats: "dict | None"
    ledger: "dict | None"
    traced: bool


def serve_round(jobs, sets, seconds, traced, tag, setup_s, corrupt=None):
    """Start a server, drive it for ``seconds`` over the tenant sets, stop it."""
    from repro.gateway.protocol import GatewayClient

    problems = []
    t0 = time.perf_counter()
    server = start_server(jobs, traced, tag)
    try:
        setup_s += time.perf_counter() - t0
        client = GatewayClient("127.0.0.1", server.port, timeout_s=120.0)
        try:
            repeats = []
            deadline = time.perf_counter() + seconds
            at_least = RSS_REPEATS * len(sets)
            while len(repeats) < at_least or time.perf_counter() < deadline:
                tenants = sets[len(repeats) % len(sets)]
                repeat = drive(client, tenants)
                if corrupt is not None:
                    corrupt(tenants)
                # Score each repeat now: drive() resets the ledgers.
                repeat.verdict = verify(tenants)
                repeats.append(repeat)
                if len(repeats) == at_least:
                    peak_rss = tree_peak_rss_mb(server.process.pid)
            pool_stats = client.stats().get("pool")
            client.bye()
        finally:
            client.close()
    finally:
        stop_problems, ledger = stop_server(server)
        problems.extend(stop_problems)
    if traced and ledger is None:
        problems.append("traced serve wrote no layer ledger")
    result = RoundResult(
        repeats,
        [sum(t.workload.samples.size for t in tenants) for tenants in sets],
        setup_s,
        peak_rss,
        pool_stats,
        ledger,
        traced,
    )
    return result, problems


@dataclass
class SetFigures:
    """One tenant set's timings in one round: minimum over its repeats."""

    samples: int
    wall_s: float
    rtt_s: np.ndarray
    delivery_s: list
    lag_s: list


def set_figures(result):
    """:class:`SetFigures` for each tenant set driven in ``result``."""
    figures = []
    n_sets = len(result.set_samples)
    for k, samples in enumerate(result.set_samples):
        repeats = result.repeats[k::n_sets]
        messages = set().union(*(rep.delivery for rep in repeats))
        best = [
            np.min([rep.delivery[m] for rep in repeats if m in rep.delivery], axis=0)
            for m in messages
        ]
        figures.append(
            SetFigures(
                samples,
                min(rep.wall_s for rep in repeats),
                np.min([rep.rtt_s for rep in repeats], axis=0),
                [t[0] for t in best],
                [t[1] for t in best],
            )
        )
    return figures


def verify(tenants):
    """``loadgen.verify`` over this repeat: ``(expected, matched, extra)``."""
    from repro.gateway.loadgen import verify as loadgen_verify

    rows, _exact = loadgen_verify([t.workload for t in tenants])
    expected = sum(row["expected"] for row in rows)
    matched = sum(row["matched"] for row in rows)
    # Deliveries beyond the matched ones: wrong bytes, duplicates, extras.
    extra = sum(row["delivered"] - row["matched"] for row in rows)
    return expected, matched, extra


def run(workload, seed, seconds, trace, corrupt=None):
    """Set up, measure for ``seconds``, check; returns an :class:`Outcome`.

    ``corrupt`` (self-test only) is applied to the tenants after every
    repeat, before scoring, to prove a wrong payload fails the check.
    """
    jobs = JOBS[workload]
    cores = min(jobs, os.cpu_count() or 1)
    # A traced run pairs a traced and an untraced server on each
    # round's tenants.
    n_rounds = ROUNDS - 1 if trace else ROUNDS
    rounds, problems = [], []
    for r in range(n_rounds):
        # Which of the twins goes first alternates, so run order cancels
        # out of the tracing overhead.
        if not trace:
            modes = (False,)
        else:
            modes = (True, False) if r % 2 == 0 else (False, True)
        per_round_s = seconds / (n_rounds * len(modes))
        t0 = time.perf_counter()
        sets = [build_tenants((seed << 8) + SETS * r + k) for k in range(SETS)]
        build_s = time.perf_counter() - t0
        for number, traced in enumerate(modes):
            result, round_problems = serve_round(
                jobs,
                sets,
                per_round_s,
                traced,
                f"{r}-{number}",
                build_s if number == 0 else 0.0,
                corrupt,
            )
            rounds.append(result)
            problems.extend(round_problems)
        del sets
    try:
        LOG_DIR.rmdir()
    except OSError:
        pass  # not empty: another run is using it

    # -- output check ------------------------------------------------------
    attempted = failed = matched_total = extra_total = expected_total = 0
    for result in rounds:
        # Each server stop is a checked operation: exit 0, nothing leaked.
        attempted += 1
        for repeat in result.repeats:
            expected, matched, extra = repeat.verdict
            attempted += expected
            failed += (expected - matched) + extra
            expected_total += expected
            matched_total += matched
            extra_total += extra
    failed += len(problems)
    if matched_total != expected_total or extra_total:
        problems.append(
            f"{expected_total - matched_total} of {expected_total} messages "
            f"not delivered byte-exact, {extra_total} unexpected deliveries"
        )

    plain = [r for r in rounds if not r.traced]
    figures = [f for r in plain for f in set_figures(r)]
    rtt = np.concatenate([f.rtt_s for f in figures])
    delivery = [x for f in figures for x in f.delivery_s]
    lag = [x for f in figures for x in f.lag_s]
    msps = sum(f.samples for f in figures) / sum(f.wall_s for f in figures) / 1e6
    aired = sum(rep.aired for r in plain for rep in r.repeats)
    accepted = sum(
        s["reassembly"]["fragments_accepted"]
        for r in plain
        for rep in r.repeats
        for s in rep.finish_stats
    )
    metrics = {
        "msps": msps,
        "tenants_per_core": msps * 1e6 / SAMPLE_RATE / cores,
        "block_ms_p50": percentile_ms(rtt, 50),
        "block_ms_p90": percentile_ms(rtt, 90),
        "emit_lag_ms_p50": percentile_ms(lag, 50),
        "emit_lag_ms_p90": percentile_ms(lag, 90),
        "delivery_ms_p50": percentile_ms(delivery, 50),
        "delivery_ms_p90": percentile_ms(delivery, 90),
        "frames_ok_ratio": ratio(accepted, aired),
        "messages_ok_ratio": ratio(matched_total, expected_total + extra_total),
        "setup_s": median([r.setup_s for r in rounds]),
        "peak_rss_mb": median([r.peak_rss_mb for r in plain]),
    }
    details = {
        "jobs": jobs,
        "cores": cores,
        "tenants": TENANTS,
        "senders_per_tenant": SENDERS,
        "stream_s_per_tenant": TENANT_STREAM_S,
        "tenant_sets_per_round": SETS,
        "rounds": len(rounds),
        "repeats": [len(r.repeats) for r in rounds],
        "peak_rss_mb_per_round": [round(r.peak_rss_mb, 1) for r in plain],
        "samples": {
            "block_ms": len(rtt),
            "delivery_ms": len(delivery),
            "emit_lag_ms": len(lag),
        },
    }
    if trace:
        metrics, extra_details = layer_metrics(rounds, jobs)
        details.update(extra_details)
    return Outcome(attempted, failed, metrics, problems, details)


#: Layers that run inside pool workers when ``jobs > 1``.
WORKER_SIDE = (
    "frontend.s_per_msample",
    "session.s_per_msample",
    "engine.arbitration_s_per_msample",
    "reassembly.us_per_fragment",
)
#: Engine-internal counts the benchmark reads only in-process.
ENGINE_COUNTS = (
    "engine.held_frames_max",
    "engine.held_frames_mean",
    "engine.finish_release_ratio",
    "engine.suppressed_ratio",
)
POOL_ONLY = (
    "pool.publish_s_per_msample",
    "pool.drain_s_per_msample",
    "pool.refusal_ratio",
    "pool.peak_queue_depth",
    "pool.bytes_shared_per_sample",
)


def layer_metrics(rounds, jobs):
    """Per-layer figures from the traced servers' ledgers."""
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    self_s, calls, counts = {}, {}, {}
    for result in traced:
        ledger = result.ledger or {"self_s": {}, "calls": {}, "counts": {}}
        for key, target in (("self_s", self_s), ("calls", calls), ("counts", counts)):
            for name, value in ledger[key].items():
                target[name] = target.get(name, 0) + value

    def per_msample(layer):
        return self_s.get(layer, 0.0) / msamples

    msamples = sum(
        r.set_samples[i % len(r.set_samples)]
        for r in traced
        for i in range(len(r.repeats))
    ) / 1e6
    stats = [s for r in traced for rep in r.repeats for s in rep.finish_stats]
    crc_ok, header_reject = session_ratios(
        [session for s in stats for session in s["engine"]["sessions"]]
    )
    overruns = sum(s["ring"]["overruns"] for s in stats)
    pushed = sum(s["ring"]["blocks_pushed"] for s in stats)
    rejected = sum(s["reassembly"]["frames_rejected"] for s in stats)
    accepted = sum(s["reassembly"]["fragments_accepted"] for s in stats)
    traced_wall = sum(rep.wall_s for r in traced for rep in r.repeats)
    layers = (
        "frontend", "session", "engine", "wire.decode", "core", "ring",
        "reassembly", "pool.publish", "pool.drain", "pool.can_accept",
    )
    metrics = {
        "frontend.s_per_msample": per_msample("frontend"),
        "session.s_per_msample": per_msample("session"),
        "session.crc_ok_ratio": crc_ok,
        "session.header_reject_ratio": header_reject,
        "engine.arbitration_s_per_msample": per_msample("engine"),
        "wire.decode_s_per_msample": per_msample("wire.decode"),
        "core.s_per_msample": per_msample("core"),
        "ring.s_per_msample": per_msample("ring"),
        "ring.shed_ratio": ratio(overruns, overruns + pushed),
        "reassembly.us_per_fragment": (
            ratio(self_s.get("reassembly", 0.0), calls.get("reassembly", 0)) * 1e6
        ),
        "reassembly.reject_ratio": ratio(rejected, rejected + accepted),
        "trace.overhead_ratio": (
            sum(f.wall_s for r in traced for f in set_figures(r))
            / sum(f.wall_s for r in plain for f in set_figures(r))
        ),
        "trace.self_time_coverage": (
            sum(self_s.get(layer, 0.0) for layer in layers) / traced_wall
        ),
    }
    not_measured = list(ENGINE_COUNTS)
    if jobs > 1:
        pool = [r.pool_stats for r in traced]
        metrics.update(
            {
                "pool.publish_s_per_msample": per_msample("pool.publish"),
                "pool.drain_s_per_msample": per_msample("pool.drain"),
                "pool.refusal_ratio": ratio(
                    counts.get("pool.refusals", 0),
                    counts.get("pool.can_accept_calls", 0),
                ),
                "pool.peak_queue_depth": float(
                    max(p["peak_queue_depth"] for p in pool)
                ),
                "pool.bytes_shared_per_sample": ratio(
                    sum(p["bytes_shared"] for p in pool),
                    sum(p["samples_published"] for p in pool),
                ),
            }
        )
        not_measured.extend(WORKER_SIDE)
    else:
        not_measured.extend(POOL_ONLY)
    for name in not_measured:
        metrics[name] = 0.0
    details = {
        "traced_msamples": msamples,
        "layer_self_s": {k: round(v, 6) for k, v in self_s.items()},
        "layer_calls": calls,
        "not_measured": sorted(not_measured),
    }
    return metrics, details
