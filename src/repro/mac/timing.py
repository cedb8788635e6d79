"""DCF channel-access timing.

A deliberately lean distributed-coordination-function model: before each
transmission a device waits DIFS plus a uniform random backoff drawn from
the current contention window, doubling the window on retry.  The survey
and attack scenarios are sparse enough that full per-slot freeze/resume
CSMA bookkeeping would add cost without changing any result the paper
reports, so backoff is drawn once per attempt (documented simplification).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.phy.constants import Band, difs, slot_time
from repro.sim.engine import Engine

#: Contention-window bounds (802.11 OFDM defaults).
CW_MIN = 15
CW_MAX = 1023


def _contention_window(retry_count: int) -> int:
    return min((CW_MIN + 1) * (2 ** max(retry_count, 0)) - 1, CW_MAX)


#: Exclusive upper bound of the slot draw for retry stages 0..6, built
#: once: stage 6 is the first at ``CW_MAX``.
_DRAW_BOUNDS = tuple(_contention_window(r) + 1 for r in range(7))


class DcfTimer:
    """Schedules transmissions after DIFS + random backoff."""

    def __init__(
        self,
        engine: Engine,
        rng: np.random.Generator,
        band: Band = Band.GHZ_2_4,
    ) -> None:
        self.engine = engine
        self.rng = rng
        self.band = band
        # Band timing constants are fixed per timer; resolving them per
        # backoff draw is measurable at wardrive transmission rates.
        self._difs = difs(band)
        self._slot = slot_time(band)

    def contention_window(self, retry_count: int) -> int:
        """CW for the given retry stage: (CW_MIN+1)·2^r − 1, capped."""
        return _contention_window(retry_count)

    def backoff_delay(self, retry_count: int = 0) -> float:
        """One DIFS plus a uniformly-drawn number of slots."""
        if 0 <= retry_count <= 6:
            high = _DRAW_BOUNDS[retry_count]
        else:
            high = _contention_window(retry_count) + 1
        return self._difs + int(self.rng.integers(0, high)) * self._slot

    def schedule(
        self,
        callback: Callable[[], None],
        retry_count: int = 0,
        extra_delay: float = 0.0,
    ) -> None:
        """Run ``callback`` after access timing (plus ``extra_delay``).

        Fire-and-forget (:meth:`Engine.post`): nothing cancels a backoff,
        so no :class:`~repro.sim.engine.Event` handle is made; the
        sequence number drawn is the one ``call_after`` would draw.
        """
        engine = self.engine
        engine.post(
            engine.clock._now + (extra_delay + self.backoff_delay(retry_count)),
            callback,
        )
