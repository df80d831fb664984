"""Cross-session leak arbitration for the demux engine.

Adjacent sub-bands alias onto the same product phase (their 5 MHz
spacing is a multiple of ``fs / lag``), so a strong sender also decodes
— attenuated but otherwise faithful — on neighbouring idle sessions.  A
frame is suppressed when a time-overlapping frame carrying *identical
bits* on a different session has the stronger ``band_power`` (ties
break toward the lower channel number, keeping the decision
deterministic).  Suppressed copies still count as rivals, so a frame's
fate depends only on the set of frames overlapping it.

Every session's :attr:`~repro.stream.session.StreamSession.horizon`
bounds the start of anything it emits later, so once a frame's end is
below the minimum horizon its overlap set is complete and it can be
decided for good.  :class:`LeakArbiter` keeps its pending frames sorted
by ``(preamble_index, zigbee_channel)`` and, per call, decides the
longest prefix that ends below the horizon:

* a frame behind the prefix's first held frame ``H`` starts at or after
  ``H`` and ends before ``H`` does, so it overlaps ``H`` — stopping at
  ``H`` holds nothing that could be released in global order, and the
  concatenated output of every call is sorted by stream position;
* a prefix frame's rivals are the pending frames sharing its bits plus
  the *witnesses*: frames decided by earlier calls (released or
  suppressed) that still reach past ``H``'s start.  Anything decided
  earlier and ending at or before ``H`` cannot overlap a pending frame,
  and nothing emitted later can overlap a decided one, so witnesses are
  pruned after every call.

Each frame is therefore judged once, against exactly its complete
overlap set, whether the pool is drained block by block or in one final
pass — which is what lets the parallel engine arbitrate once at the end
and still match a serial run frame for frame.
"""

import math
from itertools import chain


def _stream_order(frame):
    """Release order: stream position, then channel."""
    return (frame.preamble_index, frame.zigbee_channel)


class LeakArbiter:
    """Holds emitted frames until their overlap set is complete."""

    __slots__ = ("pending", "suppressed", "_witnesses")

    def __init__(self):
        #: Emitted frames not yet decided, sorted after every release.
        self.pending = []
        #: Leak copies suppressed so far.
        self.suppressed = 0
        #: Decided frames that may still overlap a pending one.
        self._witnesses = []

    def add(self, frames):
        self.pending.extend(frames)

    def release(self, horizon=math.inf):
        """Decide every frame the ``horizon`` completes; return survivors.

        ``horizon`` is the minimum session horizon: no frame emitted
        later starts before it.  The default (infinity) is end of
        stream and decides every pending frame.  Returns the surviving
        frames in ``(preamble_index, zigbee_channel)`` order.
        """
        pending = self.pending
        if not pending:
            return []
        pending.sort(key=_stream_order)
        cut = 0
        while cut < len(pending) and pending[cut].end_index < horizon:
            cut += 1
        if not cut:
            return []
        decided = pending[:cut]
        held = pending[cut:]
        # Witnesses start before every pending frame, so the chain is
        # sorted and can stop at the first frame too late to overlap
        # any decided one.
        reach = max(frame.end_index for frame in decided)
        rivals = {}
        for frame in chain(self._witnesses, pending):
            if frame.preamble_index >= reach:
                break
            rivals.setdefault(frame.bits, []).append(frame)
        released = []
        for frame in decided:
            key = (frame.band_power, -frame.zigbee_channel)
            beaten = any(
                other.zigbee_channel != frame.zigbee_channel
                and other.preamble_index < frame.end_index
                and frame.preamble_index < other.end_index
                and (other.band_power, -other.zigbee_channel) > key
                for other in rivals[frame.bits]
            )
            if beaten:
                self.suppressed += 1
            else:
                released.append(frame)
        self.pending = held
        if held:
            front = held[0].preamble_index
            self._witnesses = [
                frame
                for frame in chain(self._witnesses, decided)
                if frame.end_index > front
            ]
        else:
            self._witnesses = []
        return released


__all__ = ["LeakArbiter"]
