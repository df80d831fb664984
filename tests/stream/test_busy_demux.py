"""Busy 4-channel demux with the headline engine configuration.

Two senders per channel at 6 ms keep the sessions mid-frame for most of
the capture, so frames wait in leak arbitration across block boundaries
and some leak copies are suppressed.  Asserted here:

* streaming at random block cuts releases frames in global
  ``(preamble_index, zigbee_channel)`` order and reproduces
  :func:`batch_decode_stream` exactly;
* the metrics registry is an observer: metrics on and off decode the
  same frames with the same session stats, although the fused header
  gate only runs with metrics off.
"""

import numpy as np
import pytest

from repro.network.traffic import StreamSender, StreamTraffic
from repro.obs.metrics import REGISTRY
from repro.stream.engine import StreamEngine, batch_decode_stream

#: The configuration the benchmark runs: decimation 8, fast kernels,
#: complex64, batched scan.
HEADLINE = dict(
    demux=True,
    decimation=8,
    mode="fast",
    working_dtype=np.complex64,
    scan_kernel="batched",
)


@pytest.fixture(scope="module")
def busy_capture():
    senders = [
        StreamSender(i, zigbee_channel=11 + i % 4, reading_interval_s=0.006)
        for i in range(8)
    ]
    traffic = StreamTraffic(senders, duration_s=0.04)
    samples, truth = traffic.capture(np.random.default_rng(3))
    assert {t.zigbee_channel for t in truth} == {11, 12, 13, 14}
    return samples.astype(np.complex64)


@pytest.fixture(scope="module")
def batch_frames(busy_capture):
    frames = batch_decode_stream(busy_capture, **HEADLINE)
    assert frames
    return frames


def _decode(samples, cuts):
    engine = StreamEngine(**HEADLINE)
    calls = [engine.process_block(samples[lo:hi]) for lo, hi in cuts]
    calls.append(engine.finish())
    return engine, calls


def _random_cuts(size, rng):
    edges = np.sort(rng.choice(np.arange(1, size), size=40, replace=False))
    bounds = [0, *edges.tolist(), size]
    return list(zip(bounds[:-1], bounds[1:]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_streamed_releases_are_globally_sorted(
    busy_capture, batch_frames, seed
):
    engine, calls = _decode(
        busy_capture,
        _random_cuts(busy_capture.size, np.random.default_rng(seed)),
    )
    frames = [frame for batch in calls for frame in batch]
    order = [(f.preamble_index, f.zigbee_channel) for f in frames]
    assert order == sorted(order)
    assert [f.decode_fields() for f in frames] == [
        f.decode_fields() for f in batch_frames
    ]
    # The capture exercises arbitration: frames come out of several
    # calls, and some leak copies lose.
    assert sum(1 for batch in calls if batch) > 1
    assert engine.frames_suppressed > 0


def test_metrics_on_matches_metrics_off(busy_capture):
    cuts = [
        (lo, min(lo + 131072, busy_capture.size))
        for lo in range(0, busy_capture.size, 131072)
    ]
    results = []
    for metered in (False, True):
        REGISTRY.reset()
        if metered:
            REGISTRY.enable()
        try:
            engine, calls = _decode(busy_capture, cuts)
        finally:
            REGISTRY.disable()
        if metered:
            assert (
                REGISTRY.counter("stream.engine.leak_suppressed").value
                == engine.frames_suppressed
            )
        results.append(
            (
                [f.decode_fields() for batch in calls for f in batch],
                [session.stats() for session in engine.sessions],
                engine.frames_suppressed,
            )
        )
    assert results[0] == results[1]
    assert results[0][0] and results[0][2] > 0
