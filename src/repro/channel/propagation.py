"""Shadowed log-distance propagation.

The wardriving survey covers links through building walls at street
distances, where received power varies by several dB around the distance
trend (log-normal shadowing).  Shadowing must be *consistent* — the same
link measured twice in quick succession sees the same wall, not a fresh
random draw — so the per-link shadowing offset is frozen the first time a
link is evaluated and reused afterwards.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from repro.phy.signal import LogDistancePathLoss
from repro.sim.world import Position


class ShadowedPathLoss:
    """Log-distance path loss plus frozen per-link log-normal shadowing.

    Plugs into :class:`repro.sim.medium.Medium` as ``path_loss_db``.  Link
    identity is quantized transmitter/receiver positions (1 m grid), which
    makes a parked device ↔ driving vehicle pair re-draw shadowing as the
    vehicle moves down the street — matching how wardriving RSSI actually
    fluctuates block by block.
    """

    def __init__(
        self,
        base: Optional[LogDistancePathLoss] = None,
        shadowing_sigma_db: float = 6.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.base = base if base is not None else LogDistancePathLoss()
        self.shadowing_sigma_db = shadowing_sigma_db
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._link_shadowing: OrderedDict[Tuple[int, ...], float] = OrderedDict()

    def shadowing_for(self, tx: Position, rx: Position) -> float:
        links = self._link_shadowing
        key = (
            int(round(tx.x)),
            int(round(tx.y)),
            int(round(tx.z)),
            int(round(rx.x)),
            int(round(rx.y)),
            int(round(rx.z)),
        )
        offset = links.get(key)
        if offset is None:
            offset = float(self._rng.normal(0.0, self.shadowing_sigma_db))
            links[key] = offset
            # Bound memory: forget the oldest links past 100k entries.
            # (``OrderedDict`` pops its head in O(1); a plain dict walks
            # every slot freed since its last resize to find it.)
            if len(links) > 100_000:
                links.popitem(last=False)
        return offset

    def __call__(self, tx: Position, rx: Position) -> float:
        return self.base(tx, rx) + self.shadowing_for(tx, rx)
