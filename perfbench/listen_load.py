"""``listen_idle`` / ``listen_busy``: one in-process engine, block by block.

Each run generates its load's seeded multi-sender captures (timed as
set-up, one engine construction each), then decodes them round-robin,
each pass with a fresh :class:`~repro.stream.StreamEngine`, until the
run's seconds are spent.  Every ``process_block`` and ``finish`` call is
timed on its own; what each call returned is scored afterwards against
the generator's schedule, outside the timed calls.  Every pass over a
capture does the same work, so a capture's timings are the minimum over
its passes, call by call; the run reports the median across captures.

A traced run decodes every capture twice in a row, traced and untraced,
alternating which goes first: the traced passes give the per-layer
numbers, the pairs give the tracing overhead.
"""

import gc
import time
from dataclasses import dataclass

import numpy as np

from harness import (
    BLOCK_SIZE,
    ENGINE,
    SAMPLE_RATE,
    LayerTracer,
    Outcome,
    current_rss_mb,
    median,
    percentile_ms,
    ratio,
    session_ratios,
    wrap_engine_layers,
)

#: Slack, in wideband samples, when placing a decoded frame inside its
#: scheduled transmission (the decoded span starts at the SymBee
#: preamble, inside the ZigBee frame, and ends before its last chip).
POSITION_SLACK = 2048


@dataclass(frozen=True)
class Load:
    senders: int
    interval_s: float
    duration_s: float
    #: Distinct captures per run; several, so one seed's traffic
    #: pattern does not decide the run's figures.
    captures: int


LOADS = {
    # A few senders, tens of ms apart: mostly noise to scan.
    "listen_idle": Load(senders=4, interval_s=0.02, duration_s=0.2, captures=8),
    # Four senders per channel at 6 ms: frames on the four channels
    # overlap end to end, so in most captures every frame waits in
    # arbitration until the capture's idle tail (or finish).  Sixteen
    # captures: how long frames are held differs from capture to
    # capture, and with eight the median still moved ~10% from seed to
    # seed.
    "listen_busy": Load(
        senders=16, interval_s=0.006, duration_s=0.1, captures=16
    ),
}


@dataclass
class Capture:
    samples: np.ndarray
    truth: list


def make_capture(load, seed, index):
    """One seeded capture of ``load`` and its ground-truth schedule."""
    from repro.network.traffic import StreamSender, StreamTraffic
    from repro.zigbee.channels import overlapping_zigbee_channels

    channels = overlapping_zigbee_channels(1)
    senders = [
        StreamSender(
            sender_id=i,
            zigbee_channel=channels[i % len(channels)],
            reading_interval_s=load.interval_s,
        )
        for i in range(load.senders)
    ]
    traffic = StreamTraffic(senders, duration_s=load.duration_s)
    samples, truth = traffic.capture(np.random.default_rng([seed, index]))
    return Capture(samples.astype(np.complex64), truth)


def new_engine():
    from repro.stream import StreamEngine

    return StreamEngine(**ENGINE)


@dataclass
class Pass:
    """One capture decoded once: per-call timings and returns."""

    #: (wall start, wall end, last wideband sample + 1, frames) per
    #: call; the last entry is ``finish``.
    calls: list
    wall_s: float
    #: Per process_block: frames sessions emitted so far, minus frames
    #: released, minus leak copies suppressed (traced passes only).
    held: list
    released_by_finish: int
    released: int
    suppressed: int
    session_stats: list


def decode(capture, engine, rss, tracer=None):
    """Feed ``capture`` block by block; ``rss`` collects RSS readings."""
    samples = capture.samples
    calls = []
    held = []
    released = 0
    emitted_before = tracer.counts["session.frames"] if tracer else 0
    clock = time.perf_counter
    start = clock()
    for lo in range(0, samples.size, BLOCK_SIZE):
        block = samples[lo : lo + BLOCK_SIZE]
        t0 = clock()
        frames = engine.process_block(block)
        t1 = clock()
        calls.append((t0, t1, lo + block.size, frames))
        rss.append(current_rss_mb())
        if tracer is not None:
            released += len(frames)
            held.append(
                tracer.counts["session.frames"]
                - emitted_before
                - released
                - engine.frames_suppressed
            )
    t0 = clock()
    frames = engine.finish()
    t1 = clock()
    calls.append((t0, t1, samples.size, frames))
    wall = clock() - start
    return Pass(
        calls=calls,
        wall_s=wall,
        held=held,
        released_by_finish=len(frames),
        released=sum(len(c[3]) for c in calls),
        suppressed=engine.frames_suppressed,
        session_stats=[s.stats() for s in engine.sessions],
    )


def score(capture, run):
    """Match CRC-valid returns to the schedule.

    A scheduled frame is recovered when a CRC-valid frame on its channel
    carries its exact frame bits and sits inside its on-air span; each
    scheduled frame is matched at most once.  A CRC-valid frame that
    matches nothing is a phantom of one of two kinds:

    * *wrong*: it overlaps a transmission on its own channel, so the
      receiver delivered bits other than the ones sent (or the same
      frame twice);
    * *false accept*: nothing was sent on its channel at that time, so
      it is a neighbour's leak or noise whose bits passed the CRC.

    Returns ``(matches, wrong, false_accepts)``; ``matches`` maps
    schedule index to the index of the call that first returned it.
    """
    decimation = ENGINE["decimation"]
    open_frames = {}
    for index, t in enumerate(capture.truth):
        open_frames.setdefault((t.zigbee_channel, t.frame_bits), []).append(index)
    matches = {}
    wrong = false_accepts = 0
    for call_index, (_t0, _t1, _end, frames) in enumerate(run.calls):
        for frame in frames:
            if not frame.crc_ok:
                continue
            lo = frame.preamble_index * decimation
            hi = frame.end_index * decimation
            candidates = open_frames.get((frame.zigbee_channel, frame.bits), [])
            hit = next(
                (i for i in candidates if _within(capture.truth[i], lo, hi)), None
            )
            if hit is not None:
                candidates.remove(hit)
                matches[hit] = call_index
            elif any(
                t.zigbee_channel == frame.zigbee_channel
                and t.start_sample < hi
                and lo < t.end_sample
                for t in capture.truth
            ):
                wrong += 1
            else:
                false_accepts += 1
    return matches, wrong, false_accepts


def _within(transmission, lo, hi):
    return (
        transmission.start_sample - POSITION_SLACK <= lo
        and hi <= transmission.end_sample + POSITION_SLACK
    )


class CaptureFigures:
    """Timing figures of one capture over its untraced passes.

    Every pass does the same work, so each call's time is its minimum
    over the passes: time the host gave to other processes drops out
    call by call.  Figures that span several calls (a whole pass, a
    frame's delivery) are sums of those per-call minima.
    """

    def __init__(self, capture):
        self.capture = capture
        #: Per pass: the wall time of each call, ``finish`` last.
        self.call_s = []
        #: Schedule index -> index of the call that first returned the
        #: frame, and each call's last wideband sample + 1; from the
        #: first pass (decoding is deterministic, so every pass agrees).
        self.matches = None
        self.block_end = None

    def add(self, result, matches):
        self.call_s.append([t1 - t0 for t0, t1, _end, _frames in result.calls])
        if self.matches is None:
            self.matches = matches
            self.block_end = [end for _t0, _t1, end, _frames in result.calls]

    def summary(self):
        call_s = np.min(np.asarray(self.call_s), axis=0)
        # elapsed[k]: wall time from the start of the pass to the start
        # of call k.
        elapsed = np.concatenate(([0.0], np.cumsum(call_s)))
        lag_s, delivery_s = [], []
        for truth_index, call_index in self.matches.items():
            end_sample = self.capture.truth[truth_index].end_sample
            lag_s.append((self.block_end[call_index] - end_sample) / SAMPLE_RATE)
            # From starting the block that holds the frame's last sample
            # to the return of the call that released it.
            holder = (end_sample - 1) // BLOCK_SIZE
            delivery_s.append(elapsed[call_index + 1] - elapsed[holder])
        block_s = call_s[:-1]
        return {
            "msps": self.capture.samples.size / elapsed[-1] / 1e6,
            "block_ms_p50": percentile_ms(block_s, 50),
            "block_ms_p90": percentile_ms(block_s, 90),
            "emit_lag_ms_p50": percentile_ms(lag_s, 50),
            "emit_lag_ms_p90": percentile_ms(lag_s, 90),
            "delivery_ms_p50": percentile_ms(delivery_s, 50),
            "delivery_ms_p90": percentile_ms(delivery_s, 90),
        }


def run(workload, seed, seconds, trace, corrupt=None):
    """Set up, measure for ``seconds``, check; returns an :class:`Outcome`.

    ``corrupt`` (self-test only) is applied to every pass's returns
    before scoring, to prove a wrong payload fails the check.
    """
    load = LOADS[workload]
    captures, engines, setup = [], [], []
    for index in range(load.captures):
        t0 = time.perf_counter()
        captures.append(make_capture(load, seed, index))
        engines.append(new_engine())
        setup.append(time.perf_counter() - t0)
    # Warm-up decode (untimed): lazy imports, kernel caches, page faults.
    decode(captures[0], new_engine(), [])
    gc.collect()

    tracer = LayerTracer() if trace else None
    rss = []
    passes = []  # (capture index, traced, Pass)
    deadline = time.perf_counter() + seconds
    step = 0
    while step < load.captures or time.perf_counter() < deadline:
        index = step % load.captures
        engine = engines[index] if step < load.captures else new_engine()
        # The untraced twin on the same capture prices the tracing; which
        # of the two goes first alternates, so run order cancels out.
        if not trace:
            order = (False,)
        else:
            order = (True, False) if step % 2 == 0 else (False, True)
        for traced in order:
            if traced:
                wrap_engine_layers(tracer)
                try:
                    result = decode(captures[index], engine, rss, tracer)
                finally:
                    tracer.restore()
            else:
                result = decode(captures[index], engine, rss)
                if corrupt is not None:
                    corrupt(result)
            passes.append((index, traced, result))
            engine = new_engine()
        step += 1

    # -- output check, over every pass ------------------------------------
    # A CRC-valid frame that matches no scheduled frame on its channel (a
    # phantom: wrong or false accept) fails the check.  A scheduled frame
    # not recovered is a failed operation that frames_ok_ratio carries.
    # Every pass over a capture decodes the same frames, so each
    # scheduled frame is one operation however many passes the run
    # made: it fails if any pass lost it, and a capture's phantoms are
    # its worst pass's.
    lost = [set() for _ in captures]
    wrong = [0] * load.captures
    false_accepts = [0] * load.captures
    problems = set()
    figures = [CaptureFigures(capture) for capture in captures]
    for index, traced, result in passes:
        capture = captures[index]
        matches, bad, accepted_noise = score(capture, result)
        lost[index].update(set(range(len(capture.truth))) - set(matches))
        wrong[index] = max(wrong[index], bad)
        false_accepts[index] = max(false_accepts[index], accepted_noise)
        if bad:
            problems.add(
                f"capture {index}: {bad} CRC-valid frame(s) on a scheduled "
                "transmission's channel and span carry bits it did not send"
            )
        if accepted_noise:
            problems.add(
                f"capture {index}: {accepted_noise} CRC-valid frame(s) on a "
                "channel where nothing was sent at that time"
            )
        if not traced:
            figures[index].add(result, matches)
    attempted = sum(len(capture.truth) for capture in captures)
    unrecovered = sum(len(frames) for frames in lost)
    recovered = attempted - unrecovered
    phantoms = sum(wrong) + sum(false_accepts)

    # The median across captures, so that one capture (in busy air, one
    # whose channels happen to leave a common gap and release early)
    # does not swing the run.
    per_capture = [f.summary() for f in figures]
    metrics = {
        name: median([summary[name] for summary in per_capture])
        for name in per_capture[0]
    }
    # The captures are the benchmark's input, not the receiver's memory.
    inputs_mb = sum(c.samples.nbytes for c in captures) / 2**20
    metrics.update(
        {
            "tenants_per_core": metrics["msps"] * 1e6 / SAMPLE_RATE,
            "frames_ok_ratio": ratio(recovered, attempted),
            "messages_ok_ratio": ratio(recovered, attempted + phantoms),
            "setup_s": median(setup),
            "peak_rss_mb": max(rss) - inputs_mb,
        }
    )
    failed = unrecovered + phantoms
    details = {
        "unrecovered_frames": unrecovered,
        "wrong_frames": sum(wrong),
        "false_accepts": sum(false_accepts),
        "captures": load.captures,
        "passes": len(passes),
        "stream_s_per_capture": load.duration_s,
        "senders": load.senders,
        "interval_s": load.interval_s,
        "input_mb": inputs_mb,
        "passes_per_capture": min(len(f.call_s) for f in figures),
        "samples_per_capture": {
            "block_ms": min(len(f.call_s[0]) - 1 for f in figures),
            "frames": min(len(f.matches) for f in figures),
        },
    }
    if trace:
        metrics, extra_details = layer_metrics(passes, tracer)
        details.update(extra_details)
    return Outcome(attempted, failed, metrics, sorted(problems), details)


def layer_metrics(passes, tracer):
    """Per-layer figures from the traced passes and their untraced twins."""
    traced = [(i, r) for i, t, r in passes if t]
    plain = [(i, r) for i, t, r in passes if not t]
    msamples = sum(r.calls[-1][2] for _i, r in traced) / 1e6
    traced_wall = sum(r.wall_s for _i, r in traced)
    plain_wall = sum(r.wall_s for _i, r in plain)
    self_s = tracer.self_s
    held = [h for _i, r in traced for h in r.held]
    released = sum(r.released for _i, r in traced)
    by_finish = sum(r.released_by_finish for _i, r in traced)
    suppressed = sum(r.suppressed for _i, r in traced)
    crc_ok, header_reject = session_ratios(
        [s for _i, r in traced for s in r.session_stats]
    )
    layers = ("frontend", "session", "engine")
    metrics = {name: 0.0 for name in NOT_MEASURED}
    metrics.update(
        {
            "frontend.s_per_msample": self_s["frontend"] / msamples,
            "session.s_per_msample": self_s["session"] / msamples,
            "session.crc_ok_ratio": crc_ok,
            "session.header_reject_ratio": header_reject,
            "engine.arbitration_s_per_msample": self_s["engine"] / msamples,
            "engine.held_frames_max": float(max(held)),
            "engine.held_frames_mean": float(np.mean(held)),
            "engine.finish_release_ratio": ratio(by_finish, released),
            "engine.suppressed_ratio": ratio(
                suppressed, tracer.counts["session.frames"]
            ),
            "trace.overhead_ratio": traced_wall / plain_wall,
            "trace.self_time_coverage": (
                sum(self_s[layer] for layer in layers) / traced_wall
            ),
        }
    )
    details = {
        "traced_passes": len(traced),
        "traced_msamples": msamples,
        "layer_self_s": {k: round(v, 6) for k, v in self_s.items()},
        "not_measured": sorted(NOT_MEASURED),
    }
    return metrics, details


#: Serving layers the listen workloads never enter.
NOT_MEASURED = (
    "wire.decode_s_per_msample",
    "core.s_per_msample",
    "ring.s_per_msample",
    "ring.shed_ratio",
    "reassembly.us_per_fragment",
    "reassembly.reject_ratio",
    "pool.publish_s_per_msample",
    "pool.drain_s_per_msample",
    "pool.refusal_ratio",
    "pool.peak_queue_depth",
    "pool.bytes_shared_per_sample",
)
