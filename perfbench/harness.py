"""Shared pieces of the receiver-stack benchmark.

* the pinned engine configuration every workload decodes with;
* the metric catalogue (name -> unit) that ``BENCHMARK.json`` lists;
* :class:`Outcome`, what a workload hands back to ``run.py``;
* :class:`LayerTracer`, benchmark-side spans around public calls into
  each layer, kept in memory as per-layer self time and call counts;
* small helpers: percentiles, resident-set readings from ``/proc``.
"""

import functools
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

#: One compute thread per process, set before numpy loads and inherited
#: by every ``serve`` the benchmark starts.  OpenBLAS otherwise keeps a
#: helper thread per core spinning between calls: it doubles the CPU a
#: decode burns without making it faster, and in the gateway workloads
#: (``serve``, its workers and the client on two cores) the spinning
#: threads crowd out the work being measured.
BLAS_THREADS = "1"
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the thread settings)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SAMPLE_RATE = 20e6
BLOCK_SIZE = 131072
#: The configuration the ROADMAP benchmarks: 4-channel demux on WiFi
#: channel 1, decimation 8, fast kernels, complex64, batched scan.
ENGINE = {
    "demux": True,
    "decimation": 8,
    "mode": "fast",
    "working_dtype": "complex64",
    "scan_kernel": "batched",
}

#: End-to-end metrics, printed by every untraced run.
END_TO_END = {
    "msps": "Msps",
    "tenants_per_core": "1/core",
    "block_ms_p50": "ms",
    "block_ms_p90": "ms",
    "emit_lag_ms_p50": "ms",
    "emit_lag_ms_p90": "ms",
    "delivery_ms_p50": "ms",
    "delivery_ms_p90": "ms",
    "frames_ok_ratio": "ratio",
    "messages_ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics, printed by every traced run.  A layer a workload
#: does not run (or whose work happens where the benchmark cannot time
#: it) reads 0 and is named in the record's ``not_measured`` list.
PER_LAYER = {
    "frontend.s_per_msample": "s/Msample",
    "session.s_per_msample": "s/Msample",
    "session.crc_ok_ratio": "ratio",
    "session.header_reject_ratio": "ratio",
    "engine.arbitration_s_per_msample": "s/Msample",
    "engine.held_frames_max": "count",
    "engine.held_frames_mean": "count",
    "engine.finish_release_ratio": "ratio",
    "engine.suppressed_ratio": "ratio",
    "wire.decode_s_per_msample": "s/Msample",
    "core.s_per_msample": "s/Msample",
    "ring.s_per_msample": "s/Msample",
    "ring.shed_ratio": "ratio",
    "reassembly.us_per_fragment": "us",
    "reassembly.reject_ratio": "ratio",
    "pool.publish_s_per_msample": "s/Msample",
    "pool.drain_s_per_msample": "s/Msample",
    "pool.refusal_ratio": "ratio",
    "pool.peak_queue_depth": "count",
    "pool.bytes_shared_per_sample": "B/sample",
    "trace.overhead_ratio": "ratio",
    "trace.self_time_coverage": "ratio",
}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int
    failed: int
    metrics: dict
    #: Failed output checks, one line each (empty when correct).
    problems: list = field(default_factory=list)
    #: Extra facts for the record line (sample counts, repeats, ...).
    details: dict = field(default_factory=dict)


def percentile_ms(values_s, q):
    """``q``-th percentile of wall or stream seconds, in milliseconds."""
    return float(np.percentile(np.asarray(values_s, dtype=float), q)) * 1e3


def median(values):
    return float(np.median(np.asarray(values, dtype=float)))


def ratio(numerator, denominator):
    return float(numerator) / denominator if denominator else 0.0


# -- resident memory ---------------------------------------------------------

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def current_rss_mb():
    """This process's resident set size now, from ``/proc/self/statm``."""
    with open("/proc/self/statm", "rb") as handle:
        return int(handle.read().split()[1]) * _PAGE_MB


def _peak_rss_mb(pid):
    with open(f"/proc/{pid}/status", "rb") as handle:
        for line in handle:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _process_tree(pid):
    pids = [pid]
    for member in pids:
        try:
            with open(f"/proc/{member}/task/{member}/children") as handle:
                pids.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return pids


def tree_peak_rss_mb(pid):
    """Sum of each live process's peak RSS over ``pid`` and descendants."""
    total = 0.0
    for member in _process_tree(pid):
        try:
            total += _peak_rss_mb(member)
        except OSError:
            continue  # exited between listing and reading
    return total


# -- benchmark-side spans ----------------------------------------------------


class LayerTracer:
    """Times wrapped callables as layer spans and keeps per-layer totals.

    Every wrapped call is a span.  Spans nest on a stack, so a layer's
    *self* time is its spans' wall time minus the time of the wrapped
    calls made inside them (its children).  ``count`` hooks receive each
    call's return value and add to :attr:`counts`, so
    ratios are counted where the work happens.  Nothing is written out
    until the caller asks for :meth:`report`.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def wrap(self, owner, name, layer, count=None):
        """Replace ``owner.name`` with a timed wrapper until :meth:`restore`."""
        original = getattr(owner, name)
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - children[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
            if count is not None:
                count(counts, result)
            return result

        setattr(owner, name, traced)
        self._patches.append((owner, name, original))

    def restore(self):
        """Put every wrapped callable back."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def report(self):
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def _count_frames(key):
    def count(counts, frames):
        counts[key] += len(frames)

    return count


def _count_refusals(counts, accepted):
    counts["pool.can_accept_calls"] += 1
    if not accepted:
        counts["pool.refusals"] += 1


def wrap_engine_layers(tracer):
    """Spans for the stream stack: front end, sessions, engine."""
    from repro.stream.engine import StreamEngine
    from repro.stream.frontend import ChannelizerFrontEnd, FastChannelBank
    from repro.stream.session import StreamSession

    tracer.wrap(FastChannelBank, "process_block", "frontend")
    tracer.wrap(FastChannelBank, "flush", "frontend")
    tracer.wrap(ChannelizerFrontEnd, "process", "frontend")
    tracer.wrap(ChannelizerFrontEnd, "flush", "frontend")
    tracer.wrap(
        StreamSession, "push_products", "session", _count_frames("session.frames")
    )
    tracer.wrap(StreamSession, "finish", "session", _count_frames("session.frames"))
    tracer.wrap(StreamEngine, "process_block", "engine")
    tracer.wrap(StreamEngine, "finish", "engine")


def wrap_gateway_layers(tracer):
    """Spans for the serving stack, on top of :func:`wrap_engine_layers`."""
    import repro.gateway.protocol as protocol
    import repro.gateway.server as server
    from repro.gateway.core import GatewayCore
    from repro.runtime.workerpool import BlockWorkerPool
    from repro.stream.ring import RingBufferSource
    from repro.transport.streamrx import StreamReassembler

    wrap_engine_layers(tracer)
    # The server binds decode_block by name at import, so wrap both.
    tracer.wrap(protocol, "decode_block", "wire.decode")
    tracer.wrap(server, "decode_block", "wire.decode")
    for name in ("admit", "submit", "pump", "poll", "finish_tenant"):
        tracer.wrap(GatewayCore, name, "core")
    tracer.wrap(RingBufferSource, "push", "ring")
    tracer.wrap(RingBufferSource, "pop", "ring")
    tracer.wrap(StreamReassembler, "push", "reassembly")
    tracer.wrap(BlockWorkerPool, "publish", "pool.publish")
    tracer.wrap(BlockWorkerPool, "drain_emitted", "pool.drain")
    tracer.wrap(BlockWorkerPool, "can_accept", "pool.can_accept", _count_refusals)


def session_ratios(session_stats):
    """CRC-valid share of emitted frames; header-rejected share of captures."""
    emitted = sum(s["frames_emitted"] for s in session_stats)
    crc_failures = sum(s["crc_failures"] for s in session_stats)
    rejects = sum(s["header_rejects"] for s in session_stats)
    return (
        ratio(emitted - crc_failures, emitted),
        ratio(rejects, rejects + emitted),
    )
