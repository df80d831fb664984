"""Leak arbitration: the sorted-prefix arbiter against the group cascade.

:class:`CascadeOracle` is the engine's earlier arbiter, kept here as the
reference: each call it splits the pending pool at the horizon, demotes
every ready frame overlapping a held one (cascading, so an
overlap-connected group is judged whole), and judges the ready frames
against each other.  :class:`~repro.stream.arbitration.LeakArbiter`
decides each frame once, as soon as its own overlap set is complete.
Driven with the same emissions and horizons, both must release the same
frames in the same order and suppress the same number of leak copies,
and the new arbiter must never release a frame in a later call.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.stream.arbitration import LeakArbiter
from repro.stream.session import StreamFrame

CHANNELS = (11, 12, 13, 14)
#: Few distinct payloads and powers, so same-bits rivals and exact
#: ``band_power`` ties are common.
BITS = ((0, 1, 1), (1, 0, 1), (1, 1, 0, 0))
POWERS = (0.5, 1.0, 2.0)


class CascadeOracle:
    """Overlap-group demotion cascade, the reference arbiter."""

    def __init__(self):
        self.pending = []
        self.suppressed = 0

    def add(self, frames):
        self.pending.extend(frames)

    def release(self, horizon=math.inf):
        ready, held = [], []
        for frame in self.pending:
            (ready if frame.end_index < horizon else held).append(frame)
        demoted = True
        while demoted and ready:
            demoted = False
            for frame in list(ready):
                if any(
                    frame.preamble_index < other.end_index
                    and other.preamble_index < frame.end_index
                    for other in held
                ):
                    ready.remove(frame)
                    held.append(frame)
                    demoted = True
        released = []
        for frame in ready:
            key = (frame.band_power, -frame.zigbee_channel)
            beaten = any(
                other.zigbee_channel != frame.zigbee_channel
                and other.bits == frame.bits
                and other.preamble_index < frame.end_index
                and frame.preamble_index < other.end_index
                and (other.band_power, -other.zigbee_channel) > key
                for other in ready
            )
            if beaten:
                self.suppressed += 1
            else:
                released.append(frame)
        self.pending = held
        released.sort(key=lambda f: (f.preamble_index, f.zigbee_channel))
        return released


def _frame(channel, start, length, bits, power):
    return StreamFrame(
        zigbee_channel=channel,
        preamble_index=start,
        data_start=start,
        end_index=start + length,
        n_bits=len(bits),
        bits=bits,
        frame=None,
        crc_ok=True,
        coherence=1.0,
        band_power=power,
        latency_products=0,
    )


@st.composite
def emissions(draw):
    """Frames, the call that emits each, and the horizon of every call.

    Horizons never decrease, and a frame emitted by call ``k`` starts at
    or after the horizon of call ``k - 1`` — the session contract the
    engine relies on.  Call ``len(horizons)`` is the final flush.
    """
    horizons = sorted(
        draw(st.lists(st.integers(0, 120), min_size=0, max_size=8))
    )
    shapes = draw(
        st.lists(
            st.tuples(
                st.sampled_from(CHANNELS),
                st.integers(0, 120),
                st.integers(1, 40),
                st.sampled_from(BITS),
                st.sampled_from(POWERS),
            ),
            max_size=24,
            # A session never emits two frames at one position.
            unique_by=lambda shape: (shape[0], shape[1]),
        )
    )
    frames, calls = [], []
    for channel, start, length, bits, power in shapes:
        latest = sum(1 for h in horizons if h <= start)
        frames.append(_frame(channel, start, length, bits, power))
        calls.append(draw(st.integers(0, latest)))
    return frames, calls, horizons


def _drive(arbiter, frames, calls, horizons):
    """Per-call release lists, the final flush last."""
    out = []
    for k, horizon in enumerate(horizons + [math.inf]):
        arbiter.add([f for f, c in zip(frames, calls) if c == k])
        out.append(arbiter.release(horizon))
    return out


def _call_of(released):
    return {
        id(frame): k for k, frames in enumerate(released) for frame in frames
    }


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(emissions())
def test_arbiter_matches_cascade_oracle(case):
    frames, calls, horizons = case
    oracle, arbiter = CascadeOracle(), LeakArbiter()
    expected = _drive(oracle, frames, calls, horizons)
    got = _drive(arbiter, frames, calls, horizons)
    flat = [frame for batch in got for frame in batch]
    assert flat == [frame for batch in expected for frame in batch]
    assert arbiter.suppressed == oracle.suppressed
    assert arbiter.pending == [] and oracle.pending == []
    # Decided no later than the cascade decides it.
    oracle_call = _call_of(expected)
    for frame_id, k in _call_of(got).items():
        assert k <= oracle_call[frame_id]
    # Globally sorted across calls, and equal to one whole-pool pass
    # (what the pooled engine runs).
    assert flat == sorted(
        flat, key=lambda f: (f.preamble_index, f.zigbee_channel)
    )
    whole = LeakArbiter()
    whole.add(frames)
    assert whole.release() == flat
    assert whole.suppressed == arbiter.suppressed


def test_weaker_leak_copy_is_suppressed():
    strong = _frame(13, 100, 50, BITS[0], 2.0)
    leak = _frame(14, 102, 50, BITS[0], 0.5)
    other = _frame(12, 104, 50, BITS[1], 0.5)
    arbiter = LeakArbiter()
    arbiter.add([leak, other, strong])
    assert arbiter.release() == [strong, other]
    assert arbiter.suppressed == 1


def test_power_tie_breaks_to_lower_channel():
    low = _frame(12, 10, 20, BITS[0], 1.0)
    high = _frame(13, 12, 20, BITS[0], 1.0)
    arbiter = LeakArbiter()
    arbiter.add([high, low])
    assert arbiter.release() == [low]


def test_touching_spans_do_not_overlap():
    first = _frame(12, 10, 20, BITS[0], 2.0)
    touching = _frame(13, 30, 20, BITS[0], 1.0)
    arbiter = LeakArbiter()
    arbiter.add([touching, first])
    assert arbiter.release() == [first, touching]
    assert arbiter.suppressed == 0


def test_witness_beats_a_frame_decided_later():
    # The strong copy ends below the horizon and is released at once;
    # the leak copy is still being held, so the strong one must stay a
    # witness until the leak is judged.
    strong = _frame(13, 10, 20, BITS[0], 2.0)
    leak = _frame(14, 15, 40, BITS[0], 0.5)
    arbiter = LeakArbiter()
    arbiter.add([strong, leak])
    assert arbiter.release(40) == [strong]
    assert arbiter.pending == [leak]
    assert arbiter.release() == []
    assert arbiter.suppressed == 1


@pytest.mark.parametrize("horizon", [0, 10, 29])
def test_nothing_released_before_its_end_is_passed(horizon):
    arbiter = LeakArbiter()
    arbiter.add([_frame(13, 10, 20, BITS[0], 1.0)])
    assert arbiter.release(horizon) == []
    assert len(arbiter.pending) == 1
