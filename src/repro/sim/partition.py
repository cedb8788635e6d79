"""Spatially partitioned metro-scale runs (docs/partitioning.md).

One simulation, many engines: the synthetic city is cut into a grid of
rectangular **tiles** aligned to the city's activation grid (tile
boundaries sit on multiples of ``CityConfig.activate_radius_m``, the
same cell size :class:`~repro.survey.city.SyntheticCity` buckets devices
by).  Each tile runs its own :class:`~repro.sim.engine.Engine` and
:class:`~repro.sim.medium.Medium` over the devices it **owns** plus a
**halo** of border devices owned by neighbouring tiles, and the tiles
exchange cross-tile evidence at fixed **epoch boundaries** through a
deterministic message bus.

Why this is sound for the wardrive workload: devices only transmit while
*active*, i.e. within ``deactivate_radius_m`` of the one survey vehicle.
At any instant the entire live set of the full simulation therefore fits
in a disc of that radius around the vehicle — and whenever a frame can
reach a device some tile owns, the vehicle is within
``deactivate_radius_m`` of that tile's rectangle, which places the whole
live disc within ``2 x deactivate_radius_m`` of the rectangle.  A halo
of that width (the default) gives every tile the complete interaction
neighbourhood of its owned devices, so per-device physics match the
single-process run; the raw PHY decode range (kilometres at wardrive
link budgets) never matters because nothing beyond the activation radius is on the
air.  The contract is pinned by tests, not just argued:
``tests/test_partition.py`` sweeps tile x worker counts and asserts
identical aggregates, and ``tiles=1`` is byte-identical to the
single-process path because it runs one uninterrupted
``engine.run_until`` on the caller's own context (no epoch slicing —
slicing would re-order same-time event-batch re-posts).

Determinism contract of the bus (the same one the campaign runner
proves out for worker counts):

* **ordered** — messages are applied sorted by ``(src_tile, seq)``;
  ``seq`` is the position in the source tile's own sorted evidence
  scan, so the application order is a pure function of simulation
  content;
* **seed-derived** — every message carries a run token derived from the
  scenario seed and the tiling; the bus refuses messages from a
  different run;
* **worker-count-independent** — workers only decide *where* a tile
  simulates, never *what*: each tile's world is rebuilt from the seed
  (workers regenerate the spec list rather than receiving mutable
  state), and the bus sorts before delivery, so any worker count
  produces the same messages in the same order.

Fault tolerance (``PartitionConfig.supervise``, on by default): the
parent supervises every tile worker.  Workers emit wall-clock
heartbeats over their pipe;
the parent declares a worker dead when its process exits without a
result or goes silent past ``heartbeat_timeout_s`` while epoch output
is due (a slow-but-alive worker keeps heartbeating and is never
killed).  Each epoch outbox carries a compact per-tile **checkpoint**
(epoch index, pipeline verdict digest, medium RNG stream position, bus
relay cursor).  A dead worker is relaunched and **fast-forwarded**: its
tiles are rebuilt from the seed and replayed — advance to each past
epoch boundary, re-apply the recorded inbox backlog — which is sound
because tile state is a pure function of (seed, inbox history); the
recomputed checkpoint must match the dead incarnation's last reported
one (:class:`ReplayDivergence` otherwise), duplicate bus messages are
dropped by ``(epoch, src_tile, seq)``, and the worker rejoins the
lock-step without perturbing surviving tiles.  Recovered aggregates are
identical to an undisturbed run's — pinned by
``tests/test_partition_chaos.py`` across kill schedules.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import signal
import threading
import time
import zlib
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.scenario.context import SimContext
from repro.scenario.spec import ScenarioSpec
from repro.survey.city import CityConfig, DeviceSpec, SyntheticCity, generate_specs

__all__ = [
    "BusMessage",
    "PartitionConfig",
    "PartitionOutcome",
    "ReplayDivergence",
    "TileBus",
    "TileGrid",
    "TilePlan",
    "TileRecoveryExhausted",
    "TileWorkerDied",
    "derive_run_token",
    "run_partitioned_wardrive",
]

#: Default epoch length: long enough that boundary overhead vanishes,
#: short enough that duplicate border probing is pruned within a couple
#: of street blocks of driving.
DEFAULT_EPOCH_S = 30.0


class TileWorkerDied(RuntimeError):
    """A tile worker process died (or went silent) before delivering.

    Raised instead of hanging on the pipe: the supervisor turns it into
    a relaunch when retries remain; without supervision (or at the
    recovery point itself) it propagates with the verdict attached.
    """

    def __init__(self, tiles: Sequence[int], verdict: str) -> None:
        self.tiles = list(tiles)
        self.verdict = verdict
        super().__init__(f"tile worker for tiles {self.tiles} {verdict}")


class TileRecoveryExhausted(RuntimeError):
    """The relaunch budget ran out; carries partial progress.

    ``partial`` holds what the run knew when it gave up: total
    recoveries attempted and each tile's last reported checkpoint
    (epoch reached, verdict counts) — enough to size what was lost
    without pretending the aggregates are complete.
    """

    def __init__(
        self, tiles: Sequence[int], retries: int, partial: Dict[str, object]
    ) -> None:
        self.tiles = list(tiles)
        self.retries = retries
        self.partial = partial
        super().__init__(
            f"tile worker for tiles {self.tiles} kept dying after "
            f"{retries} relaunch(es); giving up with partial progress "
            f"{partial.get('checkpoints')}"
        )


class ReplayDivergence(RuntimeError):
    """A relaunched worker's replayed state disagrees with the dead
    incarnation's checkpoint — the determinism contract is broken, so
    recovery must not silently continue."""


# ----------------------------------------------------------------------
# Tile geometry
# ----------------------------------------------------------------------
class TileGrid:
    """A ``tiles_x x tiles_y`` partition of the city plane.

    Tile boundaries snap to the city's activation-grid cells
    (``cell_m = activate_radius_m``), so a tile is a union of whole
    activation cells.  Requested tile counts are clamped to the cell
    counts — a 2-block test city cannot be cut into 64 tiles.  The outer
    tiles extend to infinity: every point of the plane is owned by
    exactly one tile (devices the generator scatters slightly past the
    street grid land in the edge tiles).
    """

    def __init__(self, config: CityConfig, tiles_x: int, tiles_y: int) -> None:
        if tiles_x < 1 or tiles_y < 1:
            raise ValueError(f"tile counts must be >= 1, got {tiles_x}x{tiles_y}")
        self.cell_m = float(config.activate_radius_m)
        width = max(config.blocks_x - 1, 1) * config.block_m
        height = max(config.blocks_y - 1, 1) * config.block_m
        self.nx_cells = max(1, int(math.ceil(width / self.cell_m)))
        self.ny_cells = max(1, int(math.ceil(height / self.cell_m)))
        self.requested_x = int(tiles_x)
        self.requested_y = int(tiles_y)
        self.tiles_x = min(self.requested_x, self.nx_cells)
        self.tiles_y = min(self.requested_y, self.ny_cells)
        # Even split of the cell rows/columns among tiles, in cells.
        self._x_cuts = [
            round(i * self.nx_cells / self.tiles_x) for i in range(self.tiles_x + 1)
        ]
        self._y_cuts = [
            round(i * self.ny_cells / self.tiles_y) for i in range(self.tiles_y + 1)
        ]
        # Metre-space rectangles, outer edges at infinity.
        self._rects: List[Tuple[float, float, float, float]] = []
        for ty in range(self.tiles_y):
            for tx in range(self.tiles_x):
                x0 = -math.inf if tx == 0 else self._x_cuts[tx] * self.cell_m
                x1 = (
                    math.inf
                    if tx == self.tiles_x - 1
                    else self._x_cuts[tx + 1] * self.cell_m
                )
                y0 = -math.inf if ty == 0 else self._y_cuts[ty] * self.cell_m
                y1 = (
                    math.inf
                    if ty == self.tiles_y - 1
                    else self._y_cuts[ty + 1] * self.cell_m
                )
                self._rects.append((x0, y0, x1, y1))

    @property
    def n_tiles(self) -> int:
        return self.tiles_x * self.tiles_y

    @property
    def tiles_clamped(self) -> int:
        """How many requested tiles the activation-cell clamp removed."""
        return self.requested_x * self.requested_y - self.n_tiles

    def tile_of(self, x: float, y: float) -> int:
        """The tile owning point ``(x, y)`` (total: edges clamp inward)."""
        cx = min(max(int(x // self.cell_m), 0), self.nx_cells - 1)
        cy = min(max(int(y // self.cell_m), 0), self.ny_cells - 1)
        tx = ty = 0
        while tx + 1 < self.tiles_x and cx >= self._x_cuts[tx + 1]:
            tx += 1
        while ty + 1 < self.tiles_y and cy >= self._y_cuts[ty + 1]:
            ty += 1
        return ty * self.tiles_x + tx

    def tile_rect(self, tile: int) -> Tuple[float, float, float, float]:
        """``(x0, y0, x1, y1)`` of ``tile``; outer edges are infinite."""
        return self._rects[tile]

    def rect_distance(self, tile: int, x: float, y: float) -> float:
        """Euclidean distance from ``(x, y)`` to the tile's rectangle."""
        x0, y0, x1, y1 = self._rects[tile]
        dx = max(x0 - x, 0.0, x - x1)
        dy = max(y0 - y, 0.0, y - y1)
        return math.hypot(dx, dy)


class TilePlan:
    """Ownership and halo membership of every device spec.

    ``owned[t]`` holds the spec orders whose position falls inside tile
    ``t``; ``halo[t]`` the orders owned by *other* tiles within
    ``halo_m`` of ``t``'s rectangle.  Both lists are sorted by order, so
    a tile city adopting ``owned + halo`` visits devices in the global
    generation order restricted to its subset — the property the
    activation grid's determinism rests on.
    """

    def __init__(self, grid: TileGrid, specs: Sequence[DeviceSpec], halo_m: float):
        self.grid = grid
        self.halo_m = float(halo_m)
        n = grid.n_tiles
        self.owned: List[List[int]] = [[] for _ in range(n)]
        self.halo: List[List[int]] = [[] for _ in range(n)]
        self.owner_of: Dict[int, int] = {}
        for spec in specs:
            tile = grid.tile_of(spec.position.x, spec.position.y)
            self.owned[tile].append(spec.order)
            self.owner_of[spec.order] = tile
        if n > 1:
            for spec in specs:
                home = self.owner_of[spec.order]
                for tile in range(n):
                    if tile == home:
                        continue
                    if (
                        grid.rect_distance(tile, spec.position.x, spec.position.y)
                        <= self.halo_m
                    ):
                        self.halo[tile].append(spec.order)

    def halo_radio_count(self) -> int:
        return sum(len(orders) for orders in self.halo)


# ----------------------------------------------------------------------
# The message bus
# ----------------------------------------------------------------------
def derive_run_token(
    seed: int, tiles_x: int, tiles_y: int, halo_m: float, epoch_s: float
) -> int:
    """Seed-derived identity of one partitioned run.

    Every bus message carries this token; the bus rejects messages from
    a different seed or tiling, so two concurrent runs (or a stale
    worker) can never cross-pollinate silently.
    """
    key = f"{seed}/{tiles_x}x{tiles_y}/{halo_m:.6f}/{epoch_s:.6f}"
    return zlib.crc32(key.encode())


@dataclass(frozen=True)
class BusMessage:
    """One cross-tile evidence record.

    ``payload`` is ``(mac_bytes, responded)`` — a neighbouring tile's
    probe verdict for a device ``dst_tile`` owns.  ``seq`` is the
    message's position in the source tile's sorted evidence scan for
    ``epoch``; ``(src_tile, seq)`` is the bus's total order.
    """

    epoch: int
    src_tile: int
    seq: int
    dst_tile: int
    payload: Tuple[bytes, bool]
    token: int


class TileBus:
    """Deterministic epoch-boundary exchange between tiles.

    Collects each tile's outbox, then delivers everything for an epoch
    sorted by ``(src_tile, seq)`` and grouped by destination.  Delivery
    order is independent of which worker produced which message and of
    the order outboxes were ingested.

    Redelivery is idempotent: a message whose ``(epoch, src_tile, seq)``
    the bus has already accepted is dropped (counted in
    :attr:`duplicates`), so a recovered worker re-emitting an epoch's
    outbox cannot double-apply evidence.
    """

    def __init__(self, n_tiles: int, run_token: int) -> None:
        self.n_tiles = n_tiles
        self.run_token = run_token
        self.posted = 0
        self.delivered = 0
        self.duplicates = 0
        self._pending: List[BusMessage] = []
        self._seen: Set[Tuple[int, int, int]] = set()

    def ingest(self, messages: Sequence[BusMessage]) -> None:
        for msg in messages:
            if msg.token != self.run_token:
                raise ValueError(
                    f"bus message token {msg.token:#x} does not match run "
                    f"token {self.run_token:#x} (mixed runs?)"
                )
            if not (0 <= msg.dst_tile < self.n_tiles):
                raise ValueError(f"bus message for unknown tile {msg.dst_tile}")
            key = (msg.epoch, msg.src_tile, msg.seq)
            if key in self._seen:
                self.duplicates += 1
                continue
            self._seen.add(key)
            self._pending.append(msg)
            self.posted += 1

    def exchange(self, epoch: int) -> Dict[int, List[BusMessage]]:
        """Deliver epoch ``epoch``'s messages, sorted and grouped."""
        for msg in self._pending:
            if msg.epoch != epoch:
                raise ValueError(
                    f"bus holds epoch-{msg.epoch} message at epoch-{epoch} "
                    "exchange (lost barrier?)"
                )
        self._pending.sort(key=lambda m: (m.src_tile, m.seq))
        by_dst: Dict[int, List[BusMessage]] = {}
        for msg in self._pending:
            by_dst.setdefault(msg.dst_tile, []).append(msg)
            self.delivered += 1
        self._pending = []
        return by_dst


# ----------------------------------------------------------------------
# Partition configuration / outcome
# ----------------------------------------------------------------------
@dataclass
class PartitionConfig:
    """How to tile and drive one partitioned run."""

    tiles_x: int = 1
    tiles_y: int = 1
    #: Worker processes tiles are round-robined onto.  ``1`` advances
    #: every tile in this process (no multiprocessing), which is what
    #: the determinism sweep compares worker counts against.
    tile_workers: int = 1
    epoch_s: float = DEFAULT_EPOCH_S
    #: Halo width in metres; ``None`` = ``2 x deactivate_radius_m`` (the
    #: workload's maximum interaction range, see the module docstring).
    halo_m: Optional[float] = None
    #: Supervise worker processes: heartbeat liveness, per-epoch
    #: checkpoints, and relaunch-with-replay on death.  Off, a dead
    #: worker raises :class:`TileWorkerDied` instead of hanging.
    supervise: bool = True
    #: Wall-clock interval between worker heartbeats.
    heartbeat_s: float = 0.5
    #: Silence (no heartbeat, no output) after which a live-but-stuck
    #: worker is declared dead, SIGKILLed, and relaunched.
    heartbeat_timeout_s: float = 30.0
    #: Total relaunch budget across the run; exhaustion raises
    #: :class:`TileRecoveryExhausted` with partial progress attached.
    tile_retries: int = 2
    #: Fault injection for the chaos tests / smoke target, e.g.
    #: ``{"worker": 0, "epoch": 1, "phase": "mid"}``.  Phases: ``mid``
    #: (SIGKILL halfway through the epoch), ``boundary`` (SIGKILL after
    #: the outbox), ``stop`` (SIGSTOP at the epoch start), ``finish``
    #: (SIGKILL before the final summaries), ``sleep`` (stall
    #: ``seconds`` of wall time while still heartbeating).  Relaunched
    #: incarnations run with the chaos stripped.
    chaos: Optional[Dict[str, object]] = None

    def resolve_halo_m(self, city: CityConfig) -> float:
        if self.halo_m is not None:
            return float(self.halo_m)
        return 2.0 * float(city.deactivate_radius_m)


@dataclass
class PartitionOutcome:
    """Merged results of one partitioned wardrive."""

    population: int
    duration_s: float
    #: Owned-restricted unions across tiles, as 6-byte MACs.
    discovered: Set[bytes]
    probed: Set[bytes]
    responded: Set[bytes]
    tiles_x: int
    tiles_y: int
    tile_workers: int
    epochs: int
    idle_epochs: int
    halo_radios: int
    relay_messages: int
    relay_applied: int
    relay_halo_tx: int
    #: The full-city spec list (vendor/kind lookups for aggregation).
    specs: List[DeviceSpec] = field(default_factory=list)
    #: Per-tile metrics snapshots merged into one (counters add); the
    #: runner also folds the merged counters into the caller's registry.
    merged_snapshot: Optional[Dict[str, Dict[str, object]]] = None
    #: The grid as requested, before clamping to activation cells, and
    #: how many requested tiles the clamp removed.
    requested_tiles_x: int = 0
    requested_tiles_y: int = 0
    tiles_clamped: int = 0
    #: Supervision outcomes: worker relaunches performed, checkpoint
    #: bytes shipped over the pipes, duplicate bus messages dropped.
    recoveries: int = 0
    checkpoint_bytes: int = 0
    relay_duplicates: int = 0


# ----------------------------------------------------------------------
# One tile's world
# ----------------------------------------------------------------------
class _TileSim:
    """One tile's engine/medium/city/pipeline plus its evidence cursors.

    Used identically by the in-process runner and by worker processes —
    the single code path is what makes worker counts unobservable.
    """

    def __init__(
        self,
        tile: int,
        scenario_spec: ScenarioSpec,
        city_config: CityConfig,
        wardrive_config,
        specs: Sequence[DeviceSpec],
        owned_orders: Sequence[int],
        halo_orders: Sequence[int],
        halo_owners: Sequence[int],
        run_token: int,
    ) -> None:
        from repro.core.wardrive import WardrivePipeline

        self.tile = tile
        self.run_token = run_token
        self.ctx = SimContext(scenario_spec, quiet=True)
        orders = sorted(list(owned_orders) + list(halo_orders))
        subset = [specs[order] for order in orders]
        self.city = SyntheticCity(
            self.ctx.engine, self.ctx.medium, city_config, specs=subset
        )
        self.pipeline = WardrivePipeline(self.city, wardrive_config)
        self.owned_macs: Set[bytes] = {specs[o].mac.bytes for o in owned_orders}
        self._foreign_owner: Dict[bytes, int] = {
            specs[o].mac.bytes: owner for o, owner in zip(halo_orders, halo_owners)
        }
        self._relayed: Set[bytes] = set()
        self.applied = 0
        self.idle_epochs = 0
        self.halo_tx = 0
        self.end_time = 0.0
        halo_names = {str(specs[o].mac) for o in halo_orders}
        if halo_names:
            def _count_halo_tx(tx, names=halo_names, sim=self) -> None:
                if tx.sender in names:
                    sim.halo_tx += 1

            self.ctx.medium.add_transmit_observer(_count_halo_tx)

    def begin(self) -> float:
        self.end_time = self.pipeline.begin()
        return self.end_time

    def advance(self, boundary: float) -> None:
        engine = self.ctx.engine
        target = min(boundary, self.end_time)
        next_time = engine.next_event_time()
        if next_time is None or next_time > target:
            # Nothing to execute this epoch — the vehicle is far from
            # this tile.  run_until still advances the clock in O(1);
            # the counter feeds partition.epochs.idle.
            self.idle_epochs += 1
        engine.run_until(target)

    def collect_evidence(self, epoch: int) -> List[BusMessage]:
        """Newly verified foreign-owned MACs, as ordered bus messages.

        Only positive verdicts travel: a neighbour's *failed* probe must
        not stop the owner tile (which may be closer) from trying.  The
        scan is sorted by MAC bytes so ``seq`` assignment — and with it
        the bus's total order — is a pure function of simulation state.
        """
        fresh = []
        for mac in self.pipeline.results.responded:
            raw = mac.bytes
            if raw in self._relayed:
                continue
            owner = self._foreign_owner.get(raw)
            if owner is None:
                continue  # our own device — the owner needs no relay
            fresh.append((raw, owner))
            self._relayed.add(raw)
        fresh.sort()
        return [
            BusMessage(
                epoch=epoch,
                src_tile=self.tile,
                seq=seq,
                dst_tile=owner,
                payload=(raw, True),
                token=self.run_token,
            )
            for seq, (raw, owner) in enumerate(fresh)
        ]

    def apply_inbox(self, messages: Sequence[BusMessage]) -> None:
        from repro.mac.addresses import MacAddress

        for msg in messages:
            raw, responded = msg.payload
            self.pipeline.apply_external_evidence(MacAddress(raw), responded)
            self.applied += 1

    def checkpoint(self, epoch: int) -> Dict[str, int]:
        """Compact epoch-barrier state digest (taken after the epoch's
        advance + evidence scan, before the inbox is applied).

        Deterministic replay from the seed plus the recorded inbox
        backlog must land on exactly this dict; the supervisor compares
        a relaunched worker's recomputation against the dead
        incarnation's last report and refuses to continue on mismatch.
        """
        state = self.pipeline.checkpoint_state()
        state.update(
            tile=self.tile,
            epoch=epoch,
            relayed=len(self._relayed),
            applied=self.applied,
            rng=self.ctx.medium.rng_fingerprint(),
        )
        return state

    def finish(self) -> Dict[str, object]:
        results = self.pipeline.finish()
        owned = self.owned_macs
        snapshot = self.ctx.snapshot()
        return {
            "tile": self.tile,
            "discovered": sorted(
                rec.mac.bytes for rec in results.discovered if rec.mac.bytes in owned
            ),
            "probed": sorted(m.bytes for m in results.probed if m.bytes in owned),
            "responded": sorted(
                m.bytes for m in results.responded if m.bytes in owned
            ),
            "applied": self.applied,
            "idle_epochs": self.idle_epochs,
            "halo_tx": self.halo_tx,
            "snapshot": snapshot,
        }


# ----------------------------------------------------------------------
# Hosts: where a set of tiles advances (this process or a worker)
# ----------------------------------------------------------------------
class _LocalHost:
    def __init__(self, sims: List[_TileSim]) -> None:
        self.sims = sims
        self.tiles = [sim.tile for sim in sims]
        for sim in sims:
            sim.begin()

    def poll_outbox(self, epoch: int, boundary: float) -> List[BusMessage]:
        messages: List[BusMessage] = []
        for sim in self.sims:
            sim.advance(boundary)
            messages.extend(sim.collect_evidence(epoch))
        return messages

    def push_inbox(self, epoch: int, by_tile: Dict[int, List[BusMessage]]) -> None:
        for sim in self.sims:
            sim.apply_inbox(by_tile.get(sim.tile, []))

    def finish(self) -> List[Dict[str, object]]:
        return [sim.finish() for sim in self.sims]


class _RemoteHost:
    """One worker process's parent-side endpoint, with the liveness and
    recovery bookkeeping the supervisor needs.

    ``policy`` is ``None`` (unsupervised: death is detected — never a
    hang — but raises instead of recovering) or the heartbeat settings.
    The inbox log and checkpoint cache survive relaunches: they are the
    replay backlog and the replay-validation reference.
    """

    #: Pipe poll granularity; bounds death-detection latency.
    _POLL_S = 0.05

    def __init__(self, tiles: List[int], policy: Optional[Dict[str, float]]) -> None:
        self.tiles = tiles
        self.policy = policy
        self.process = None
        self.conn = None
        #: Protocol cursors: outbox@e received => outboxes_got == e + 1;
        #: inbox@e delivered => inboxes_sent == e + 1.  A relaunch
        #: resumes at epoch ``inboxes_sent`` (everything before it is
        #: replayable from the recorded inbox log).
        self.outboxes_got = 0
        self.inboxes_sent = 0
        self.inbox_log: List[Dict[int, List[BusMessage]]] = []
        self.checkpoints: Dict[int, Dict[str, int]] = {}
        self.checkpoint_epoch = -1
        self.checkpoint_bytes = 0
        self.tiles_payload: List[tuple] = []

    def attach(self, process, conn) -> None:
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        self.process = process
        self.conn = conn

    def kill(self) -> None:
        if self.process is None:
            return
        if self.process.is_alive():
            self.process.kill()  # SIGKILL works on SIGSTOPped workers too
        self.process.join()

    def _recv(self) -> tuple:
        """Receive the next non-heartbeat message, or raise
        :class:`TileWorkerDied` with a verdict.

        Verdicts: *exit-without-result* (process gone and the pipe
        drained) always; *silence-timeout* only when supervised —
        heartbeats refresh the deadline, so a slow worker that is still
        beating waits out arbitrarily long epochs unharmed.
        """
        timeout = None if self.policy is None else float(
            self.policy["heartbeat_timeout_s"]
        )
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                ready = self.conn.poll(self._POLL_S)
            except (EOFError, OSError):
                raise TileWorkerDied(self.tiles, "closed its pipe unexpectedly")
            if ready:
                try:
                    msg = self.conn.recv()
                except (EOFError, OSError, pickle.UnpicklingError):
                    raise TileWorkerDied(self.tiles, "died mid-message (torn pipe)")
                if msg and msg[0] == "hb":
                    if deadline is not None:
                        deadline = time.monotonic() + timeout
                    continue
                return msg
            if not self.process.is_alive():
                if self.conn.poll(0):  # drain buffered output first
                    continue
                raise TileWorkerDied(self.tiles, "exited without a result")
            if deadline is not None and time.monotonic() >= deadline:
                raise TileWorkerDied(
                    self.tiles,
                    f"went silent for {timeout:.1f}s (no heartbeat)",
                )

    def _expect(self, tag: str, epoch: Optional[int] = None) -> tuple:
        msg = self._recv()
        got_epoch = msg[1] if len(msg) > 1 else None
        if msg[0] != tag or (epoch is not None and got_epoch != epoch):
            want = tag if epoch is None else f"{tag}@{epoch}"
            raise RuntimeError(
                f"tile worker protocol error: expected {want}, "
                f"got {msg[0]}@{got_epoch}"
            )
        return msg

    def poll_outbox(self, epoch: int, boundary: float) -> List[BusMessage]:
        _, _, messages, ckpts = self._expect("outbox", epoch)
        if ckpts is not None:
            self.checkpoint_bytes += len(pickle.dumps(ckpts))
            self.checkpoints = ckpts
            self.checkpoint_epoch = epoch
        self.outboxes_got = epoch + 1
        return messages

    def push_inbox(self, epoch: int, by_tile: Dict[int, List[BusMessage]]) -> None:
        mine = {t: by_tile.get(t, []) for t in self.tiles}
        if epoch == len(self.inbox_log):
            self.inbox_log.append(mine)
        else:
            self.inbox_log[epoch] = mine  # resend after a recovery
        try:
            self.conn.send(("inbox", epoch, mine))
        except (OSError, ValueError) as exc:
            raise TileWorkerDied(self.tiles, f"pipe write failed ({exc})")
        self.inboxes_sent = epoch + 1

    def finish(self) -> List[Dict[str, object]]:
        msg = self._expect("done")
        self.conn.close()
        self.process.join()
        return msg[1]


def _heartbeat_loop(conn, lock, stop, interval_s: float) -> None:
    beat = 0
    while not stop.wait(interval_s):
        beat += 1
        try:
            with lock:
                conn.send(("hb", beat))
        except (OSError, ValueError):  # parent gone; the worker exits soon
            return


def _maybe_chaos(
    chaos: Dict[str, object],
    phase: str,
    epoch: Optional[int],
    host: Optional["_LocalHost"] = None,
    boundaries: Optional[Sequence[float]] = None,
) -> None:
    """Self-inflicted faults for the chaos suite (no-op without a match)."""
    if not chaos or chaos.get("phase") != phase:
        return
    if phase != "finish" and chaos.get("epoch") != epoch:
        return
    if phase == "sleep":
        time.sleep(float(chaos.get("seconds", 0.0)))
        return
    if phase == "stop":
        os.kill(os.getpid(), signal.SIGSTOP)
        return
    if phase == "mid":
        low = boundaries[epoch - 1] if epoch else 0.0
        mid = (low + boundaries[epoch]) / 2.0
        for sim in host.sims:
            sim.ctx.engine.run_until(min(mid, sim.end_time))
    os.kill(os.getpid(), signal.SIGKILL)


def _tile_worker_main(conn, payload: Dict[str, object]) -> None:
    """Worker entry: rebuild my tiles from the seed and run in lock-step.

    The payload carries only configuration (spec dicts, tile orders,
    epoch boundaries) — never simulator state.  The spec list is
    regenerated from the seed, so what a tile simulates cannot depend on
    which process it landed in.

    A relaunched worker additionally gets a ``resume`` block: the epoch
    to rejoin at and the recorded inbox backlog.  It fast-forwards by
    replaying every past epoch — advance to the boundary, rescan
    evidence (discarded: the bus delivered it long ago, and the scan
    keeps the relay cursor exact), apply the recorded inbox — then
    reports the recomputed checkpoint for the supervisor to validate
    and rejoins the lock-step.
    """
    send_lock = threading.Lock()
    stop_heartbeats = threading.Event()

    def send(obj) -> None:
        with send_lock:
            conn.send(obj)

    try:
        supervise = payload.get("supervise")
        if supervise:
            threading.Thread(
                target=_heartbeat_loop,
                args=(conn, send_lock, stop_heartbeats, supervise["heartbeat_s"]),
                daemon=True,
            ).start()
        scenario_spec = ScenarioSpec.from_dict(payload["scenario_spec"])
        city_config = CityConfig(**payload["city_config"])
        wardrive_config = _wardrive_config_from_dict(payload["wardrive_config"])
        specs = generate_specs(city_config)
        sims = [
            _TileSim(
                tile,
                scenario_spec,
                city_config,
                wardrive_config,
                specs,
                owned,
                halo,
                halo_owners,
                payload["run_token"],
            )
            for tile, owned, halo, halo_owners in payload["tiles"]
        ]
        host = _LocalHost(sims)
        boundaries = payload["boundaries"]
        chaos = payload.get("chaos") or {}
        resume = payload.get("resume")
        start_epoch = 0
        skip_first_outbox = False
        if resume is not None:
            start_epoch = resume["epoch"]
            skip_first_outbox = resume["outbox_consumed"]
            validate_epoch = resume["validate_epoch"]
            validated = None
            # When the dead incarnation's outbox@start was already
            # consumed, its advance belongs to the replay too.
            replay_upto = start_epoch + (1 if skip_first_outbox else 0)
            for epoch in range(replay_upto):
                host.poll_outbox(epoch, boundaries[epoch])  # discarded
                if epoch == validate_epoch:
                    validated = {
                        sim.tile: sim.checkpoint(epoch) for sim in host.sims
                    }
                if epoch < start_epoch:
                    host.push_inbox(epoch, resume["inbox_log"][epoch])
            send(("resumed", start_epoch, validated))
        for epoch in range(start_epoch, len(boundaries)):
            boundary = boundaries[epoch]
            if epoch == start_epoch and skip_first_outbox:
                pass  # advanced during replay; parent holds the outbox
            else:
                _maybe_chaos(chaos, "stop", epoch)
                _maybe_chaos(chaos, "sleep", epoch)
                _maybe_chaos(chaos, "mid", epoch, host, boundaries)
                messages = host.poll_outbox(epoch, boundary)
                ckpts = None
                if supervise:
                    ckpts = {sim.tile: sim.checkpoint(epoch) for sim in host.sims}
                send(("outbox", epoch, messages, ckpts))
                _maybe_chaos(chaos, "boundary", epoch)
            tag, inbox_epoch, by_tile = conn.recv()
            if tag != "inbox" or inbox_epoch != epoch:
                raise RuntimeError(
                    f"parent protocol error: expected inbox@{epoch}, "
                    f"got {tag}@{inbox_epoch}"
                )
            host.push_inbox(epoch, by_tile)
        _maybe_chaos(chaos, "finish", None)
        send(("done", host.finish()))
    finally:
        stop_heartbeats.set()
        with send_lock:
            conn.close()


def _wardrive_config_to_dict(config) -> Dict[str, object]:
    data = asdict(config)
    data["fake_source"] = str(config.fake_source)
    return data


def _wardrive_config_from_dict(data: Dict[str, object]):
    from repro.core.wardrive import WardriveConfig
    from repro.mac.addresses import MacAddress

    data = dict(data)
    data["fake_source"] = MacAddress(str(data["fake_source"]))
    return WardriveConfig(**data)


def _pool_context() -> multiprocessing.context.BaseContext:
    # Mirrors the campaign runner: fork inherits the imported simulator
    # cheaply; spawn is the portable fallback.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# ----------------------------------------------------------------------
# The tile fleet (spawn / supervise / relaunch)
# ----------------------------------------------------------------------
class _TileFleet:
    """Spawns the worker processes and relaunches the ones that die.

    The recovery move: SIGKILL
    whatever is left of the dead worker, respawn it on the *same* tiles
    (chaos stripped), hand it the recorded inbox backlog so it can
    replay itself back to the failure epoch, and validate the replayed
    checkpoint against the dead incarnation's last report before
    letting it rejoin.  Survivors never notice: they are blocked on
    their own pipes, heartbeating, while the relaunch happens.
    """

    def __init__(
        self,
        mp_ctx: multiprocessing.context.BaseContext,
        base_payload: Dict[str, object],
        worker_tiles: Sequence[Sequence[int]],
        tiles_payloads: Sequence[List[tuple]],
        partition: PartitionConfig,
    ) -> None:
        self.mp_ctx = mp_ctx
        self.base_payload = base_payload
        self.partition = partition
        self.policy = (
            {
                "heartbeat_s": float(partition.heartbeat_s),
                "heartbeat_timeout_s": float(partition.heartbeat_timeout_s),
            }
            if partition.supervise
            else None
        )
        self.recoveries = 0
        self.hosts: List[_RemoteHost] = []
        chaos = partition.chaos
        for w, tiles in enumerate(worker_tiles):
            host = _RemoteHost(list(tiles), self.policy)
            host.tiles_payload = list(tiles_payloads[w])
            self.hosts.append(host)
            mine = chaos if chaos and chaos.get("worker") == w else None
            self._spawn(host, chaos=mine)

    def _spawn(
        self,
        host: _RemoteHost,
        chaos: Optional[Dict[str, object]] = None,
        resume: Optional[Dict[str, object]] = None,
    ) -> None:
        parent_conn, child_conn = self.mp_ctx.Pipe()
        payload = dict(self.base_payload)
        payload["tiles"] = host.tiles_payload
        payload["supervise"] = self.policy
        if chaos:
            payload["chaos"] = dict(chaos)
        if resume is not None:
            payload["resume"] = resume
        process = self.mp_ctx.Process(
            target=_tile_worker_main, args=(child_conn, payload), daemon=True
        )
        process.start()
        child_conn.close()
        host.attach(process, parent_conn)

    def call(self, host: _RemoteHost, op):
        """Run ``op(host)``, recovering the worker on a death verdict."""
        while True:
            try:
                return op(host)
            except TileWorkerDied as failure:
                self.recover(host, failure)

    def recover(self, host: _RemoteHost, failure: TileWorkerDied) -> None:
        if self.policy is None:
            raise failure
        if self.recoveries >= self.partition.tile_retries:
            partial = {
                "recoveries": self.recoveries,
                "checkpoints": {
                    tile: dict(ckpt)
                    for h in self.hosts
                    for tile, ckpt in h.checkpoints.items()
                },
            }
            raise TileRecoveryExhausted(
                host.tiles, self.recoveries, partial
            ) from failure
        self.recoveries += 1
        host.kill()
        # Everything before ``inboxes_sent`` is fully replayable: the
        # parent holds those epochs' inboxes.  If the dead incarnation's
        # outbox for the resume epoch was already consumed (ingested
        # into the bus), the relaunch must advance through that epoch
        # too but not re-send it.
        resume_epoch = host.inboxes_sent
        outbox_consumed = host.outboxes_got > resume_epoch
        resume = {
            "epoch": resume_epoch,
            "outbox_consumed": outbox_consumed,
            "inbox_log": host.inbox_log[:resume_epoch],
            "validate_epoch": host.checkpoint_epoch,
        }
        self._spawn(host, chaos=None, resume=resume)
        msg = host._expect("resumed", resume_epoch)
        validated = msg[2]
        if host.checkpoint_epoch >= 0 and validated != host.checkpoints:
            raise ReplayDivergence(
                f"relaunched worker for tiles {host.tiles} replayed to epoch "
                f"{host.checkpoint_epoch} but its checkpoint disagrees with "
                f"the dead incarnation's: {validated!r} != {host.checkpoints!r}"
            )

    def shutdown(self) -> None:
        for host in self.hosts:
            host.kill()
            if host.conn is not None:
                try:
                    host.conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
def _epoch_boundaries(duration_s: float, epoch_s: float) -> List[float]:
    """Monotone boundary times covering ``[0, duration_s]``; the last
    boundary is exactly the end time."""
    if epoch_s <= 0.0:
        raise ValueError(f"epoch_s must be positive, got {epoch_s!r}")
    boundaries = []
    k = 1
    while True:
        t = k * epoch_s
        if t >= duration_s:
            boundaries.append(duration_s)
            return boundaries
        boundaries.append(t)
        k += 1


def _survey_duration_s(city_config: CityConfig, speed_mps: float) -> float:
    # The route only depends on the config geometry, so a population-less
    # shell city answers without generating any specs.
    shell = SyntheticCity(None, None, city_config, specs=[])
    return shell.survey_route(speed_mps).duration + 10.0


def run_partitioned_wardrive(
    ctx: SimContext,
    city_config: CityConfig,
    wardrive_config,
    partition: PartitionConfig,
) -> PartitionOutcome:
    """Run one wardrive survey across a tiled city.

    ``tiles = 1`` (after clamping to the city's activation-cell counts)
    is the equivalence anchor: it builds the city and pipeline on the
    *caller's* ``ctx`` engine/medium and drives one uninterrupted
    ``run_until`` — byte-identical to the single-process ``wardrive-full``
    path, seeded trace included.  More tiles build one fresh
    engine/medium per tile and advance all tiles in lock-step epochs,
    exchanging probe evidence through a :class:`TileBus` (in this
    process, or across ``tile_workers`` processes).
    """
    from repro.core.wardrive import WardrivePipeline

    grid = TileGrid(city_config, partition.tiles_x, partition.tiles_y)
    halo_m = partition.resolve_halo_m(city_config)

    if grid.n_tiles == 1:
        city = SyntheticCity(ctx.engine, ctx.medium, city_config)
        pipeline = WardrivePipeline(city, wardrive_config)
        results = pipeline.run()
        outcome = PartitionOutcome(
            population=city.population,
            duration_s=results.duration_s,
            discovered={rec.mac.bytes for rec in results.discovered},
            probed={mac.bytes for mac in results.probed},
            responded={mac.bytes for mac in results.responded},
            tiles_x=1,
            tiles_y=1,
            tile_workers=1,
            epochs=0,
            idle_epochs=0,
            halo_radios=0,
            relay_messages=0,
            relay_applied=0,
            relay_halo_tx=0,
            specs=city.specs,
            merged_snapshot=None,
            requested_tiles_x=grid.requested_x,
            requested_tiles_y=grid.requested_y,
            tiles_clamped=grid.tiles_clamped,
        )
        _publish_partition_counters(ctx, outcome)
        return outcome

    n_workers = max(1, min(int(partition.tile_workers), grid.n_tiles))
    if n_workers > 1 and multiprocessing.current_process().daemon:
        # A daemonic process (a campaign pool worker) may not start
        # children: fail here, by name, not in the first tile worker.
        raise ValueError(
            f"tile_workers={partition.tile_workers} needs tile worker processes, "
            "but this run is in a daemonic process (a campaign pool worker) "
            "that may not start them; run the campaign with --workers 1 or "
            "set tile_workers=1"
        )
    specs = generate_specs(city_config)
    plan = TilePlan(grid, specs, halo_m)
    run_token = derive_run_token(
        city_config.seed, grid.tiles_x, grid.tiles_y, halo_m, partition.epoch_s
    )
    duration_s = _survey_duration_s(city_config, wardrive_config.vehicle_speed_mps)
    boundaries = _epoch_boundaries(duration_s, partition.epoch_s)
    tile_spec = ctx.spec.derive(trace=False)

    worker_tiles = [
        [t for t in range(grid.n_tiles) if t % n_workers == w]
        for w in range(n_workers)
    ]

    bus = TileBus(grid.n_tiles, run_token)
    summaries: List[Dict[str, object]] = []
    recoveries = 0
    checkpoint_bytes = 0
    if n_workers == 1:
        sims = [
            _TileSim(
                tile,
                tile_spec,
                city_config,
                wardrive_config,
                specs,
                plan.owned[tile],
                plan.halo[tile],
                [plan.owner_of[o] for o in plan.halo[tile]],
                run_token,
            )
            for tile in range(grid.n_tiles)
        ]
        host = _LocalHost(sims)
        for epoch, boundary in enumerate(boundaries):
            bus.ingest(host.poll_outbox(epoch, boundary))
            host.push_inbox(epoch, bus.exchange(epoch))
        summaries.extend(host.finish())
    else:
        def _tile_payload(tile: int) -> tuple:
            return (
                tile,
                plan.owned[tile],
                plan.halo[tile],
                [plan.owner_of[o] for o in plan.halo[tile]],
            )

        base_payload = {
            "scenario_spec": tile_spec.to_dict(),
            "city_config": asdict(city_config),
            "wardrive_config": _wardrive_config_to_dict(wardrive_config),
            "run_token": run_token,
            "boundaries": boundaries,
        }
        fleet = _TileFleet(
            _pool_context(),
            base_payload,
            worker_tiles,
            [[_tile_payload(t) for t in tiles] for tiles in worker_tiles],
            partition,
        )
        try:
            for epoch, boundary in enumerate(boundaries):
                for host in fleet.hosts:
                    bus.ingest(
                        fleet.call(
                            host, lambda h: h.poll_outbox(epoch, boundary)
                        )
                    )
                by_tile = bus.exchange(epoch)
                for host in fleet.hosts:
                    fleet.call(host, lambda h: h.push_inbox(epoch, by_tile))
            for host in fleet.hosts:
                summaries.extend(fleet.call(host, lambda h: h.finish()))
        finally:
            fleet.shutdown()
        recoveries = fleet.recoveries
        checkpoint_bytes = sum(h.checkpoint_bytes for h in fleet.hosts)
    summaries.sort(key=lambda s: s["tile"])

    from repro.telemetry.registry import merge_snapshots

    discovered: Set[bytes] = set()
    probed: Set[bytes] = set()
    responded: Set[bytes] = set()
    applied = idle = halo_tx = 0
    snapshots = []
    for summary in summaries:
        discovered.update(summary["discovered"])
        probed.update(summary["probed"])
        responded.update(summary["responded"])
        applied += summary["applied"]
        idle += summary["idle_epochs"]
        halo_tx += summary["halo_tx"]
        if summary["snapshot"] is not None:
            snapshots.append(summary["snapshot"])
    merged = merge_snapshots(snapshots) if snapshots else None

    outcome = PartitionOutcome(
        population=len(specs),
        duration_s=duration_s,
        discovered=discovered,
        probed=probed,
        responded=responded,
        tiles_x=grid.tiles_x,
        tiles_y=grid.tiles_y,
        tile_workers=n_workers,
        epochs=len(boundaries),
        idle_epochs=idle,
        halo_radios=plan.halo_radio_count(),
        relay_messages=bus.posted,
        relay_applied=applied,
        relay_halo_tx=halo_tx,
        specs=specs,
        merged_snapshot=merged,
        requested_tiles_x=grid.requested_x,
        requested_tiles_y=grid.requested_y,
        tiles_clamped=grid.tiles_clamped,
        recoveries=recoveries,
        checkpoint_bytes=checkpoint_bytes,
        relay_duplicates=bus.duplicates,
    )
    _publish_partition_counters(ctx, outcome)
    return outcome


def _publish_partition_counters(ctx: SimContext, outcome: PartitionOutcome) -> None:
    """Fold the merged tile counters + partition stats into ``ctx.metrics``.

    Only counters are folded (they carry the engine/medium/span totals
    the telemetry docs care about); gauges and histograms stay in
    ``outcome.merged_snapshot``.  Safe because a ``tiles > 1`` run never
    builds the caller's engine, so the parent registry has no colliding
    collectors.
    """
    registry = ctx.metrics
    if registry is None:
        return
    if outcome.merged_snapshot is not None:
        for name, value in outcome.merged_snapshot["counters"].items():
            registry.counter(name).value += value
    stats = registry.counter(
        "partition.tiles", "tiles in the partitioned run"
    )
    stats.value += outcome.tiles_x * outcome.tiles_y
    registry.counter(
        "partition.tile_workers", "worker processes tiles ran on"
    ).value += outcome.tile_workers
    registry.counter(
        "partition.epochs", "lock-step epoch barriers crossed"
    ).value += outcome.epochs
    registry.counter(
        "partition.epochs.idle", "tile-epochs fast-forwarded with no events"
    ).value += outcome.idle_epochs
    registry.counter(
        "partition.halo_radios", "border devices mirrored into neighbour tiles"
    ).value += outcome.halo_radios
    registry.counter(
        "partition.relay.messages", "evidence messages crossing the tile bus"
    ).value += outcome.relay_messages
    registry.counter(
        "partition.relay.applied", "relayed verdicts applied by owner tiles"
    ).value += outcome.relay_applied
    registry.counter(
        "partition.relay.halo_tx", "transmissions originating from halo mirrors"
    ).value += outcome.relay_halo_tx
    registry.counter(
        "partition.relay.duplicates",
        "duplicate bus messages dropped by (epoch, src_tile, seq)",
    ).value += outcome.relay_duplicates
    registry.counter(
        "partition.tiles_clamped",
        "requested tiles removed by the activation-cell clamp",
    ).value += outcome.tiles_clamped
    registry.counter(
        "partition.recoveries", "tile workers relaunched after a death verdict"
    ).value += outcome.recoveries
    registry.counter(
        "partition.checkpoint_bytes",
        "pickled checkpoint bytes shipped over worker pipes",
    ).value += outcome.checkpoint_bytes
