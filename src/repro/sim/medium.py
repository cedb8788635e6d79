"""Shared wireless medium.

The medium is a broadcast channel connecting every attached radio.  A
transmission is delivered to all other radios tuned to the same channel,
after free-space propagation delay, at a received power given by the
pluggable path-loss model.  The medium also implements:

* **half duplex** — a radio that transmits during an arrival corrupts that
  arrival (its receiver is deaf while the PA is on);
* **collisions with capture** — overlapping arrivals corrupt each other
  unless one is stronger by the capture threshold, in which case the
  stronger frame survives (standard capture-effect model);
* **frame errors** — an optional FER model converts SNR/rate/length into a
  loss probability (defaults to error-free above sensitivity);
* **CSI tagging** — an optional CSI model attaches a per-subcarrier channel
  estimate to each reception, which is how the attacker "measures the CSI
  of received ACKs" (paper Section 4.1).

The medium knows nothing about 802.11 semantics; frames are opaque objects.
It only reads three optional cosmetic hooks (``trace_source``,
``trace_destination``, ``trace_info``) to feed the capture trace.

Fast path
---------
``transmit()`` is the simulator's hottest loop (it runs once per frame
per attached radio), so the medium maintains two structures that make the
common city-scale case — thousands of *stationary* radios — cheap:

* a **per-channel radio index**: radios are bucketed by channel, in
  attachment order, so a transmission only ever touches same-channel
  radios.  Radios that retune must notify the medium (:meth:`retune`);
  :class:`~repro.phy.radio.Radio` does this automatically through its
  ``channel`` property.
* a **link-budget cache**: per ``(tx, rx)`` pair the path loss and
  propagation delay are cached and keyed on each endpoint's *position
  epoch*.  A radio that advertises a ``static_position`` never bumps its
  epoch, so static↔static links are computed exactly once; mobile radios
  (``static_position is None``) are re-read every transmission and bump
  their epoch whenever the observed position changes, invalidating every
  cached link through them.

The cache requires ``path_loss_db`` to be a pure function of the two
positions, which all built-in models are.  Note one deliberate behaviour
refinement for *stateful* models with bounded memory (e.g.
:class:`~repro.channel.propagation.ShadowedPathLoss` past its eviction
bound): the medium now re-uses the first computed link budget instead of
re-invoking the model after it evicted the link, so shadowing stays
consistent for as long as the link stays cached.

Delivery (struct-of-arrays)
---------------------------
Every transmission takes one delivery path.  The medium keeps a
per-channel **struct-of-arrays mirror** of the radio index
(:class:`_ChannelSoA`: contiguous numpy arrays of positions, noise
floors, sensitivities, frequencies, and static/mobile flags, rebuilt
lazily whenever the channel's bucket version changes) and evaluates a
whole delivery list per transmission instead of per receiver:

* cold delivery resolution prefilters the channel with one vectorized
  range test (free-space model only: a conservative numpy distance
  bound with a wide safety margin, so every receiver the exact scalar
  math could accept survives the filter), resolves only the candidates
  through the scalar link-budget cache, and orders them with one
  ``np.lexsort`` instead of a tuple sort;
* the delivery cache stores **parallel arrays** (delays, attach seqs,
  radios, RSSIs, SNRs) rather than per-receiver tuples, so a warm
  transmission reuses them wholesale;
* SNR and frame-error probabilities are precomputed per transmission
  from those arrays, and all arrivals are folded into one
  :class:`_ArrivalSpan` carried by two
  :class:`~repro.sim.engine.EventBatch` heap entries (arrival starts and
  arrival ends), which drain in slices through the reception lanes.

An unattached sender (legal: it just cannot receive) has no position
epoch to key caches on, so its delivery list is resolved the same way
but never cached.

Per-pair path loss and propagation delay always come from the same
scalar model calls (numpy's transcendental kernels differ from libm by
1 ULP on some inputs, which the determinism gate forbids); the numpy
stages are restricted to IEEE-exact bookkeeping (subtract, compare,
sort) plus the provably conservative prefilter.  Two checks pin the
behaviour: ``tests/test_golden_digests.py`` compares seeded scenario
runs against checked-in sha256 digests of their traces and outputs, and
a hypothesis fuzzer (``tests/test_medium_differential.py``) runs random
small worlds against ``tests/reference_medium.py``, a cache-free
per-receiver loop with one engine event per arrival instant.

One contract the arrays add for :class:`RadioPort` implementors:
``rx_sensitivity_dbm`` must stay constant while the radio is attached
(detach/re-attach to change it) — the SoA mirror snapshots it per
bucket version, exactly as the delivery-list cache already froze
in-range verdicts across transmissions.
"""

from __future__ import annotations

import enum
import math
import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Tuple

import numpy as np

from repro.sim.engine import Engine, EventBatch
from repro.sim.trace import FrameTrace
from repro.sim.world import Position

#: Default thermal noise floor for a 20 MHz 802.11 channel including a
#: typical receiver noise figure (−174 dBm/Hz + 10·log10(20 MHz) + 6 dB NF).
DEFAULT_NOISE_FLOOR_DBM = -95.0

#: Power advantage required for the stronger of two overlapping frames to be
#: captured successfully.
DEFAULT_CAPTURE_THRESHOLD_DB = 10.0

#: Upper bound on cached (tx, rx) link budgets; beyond it the oldest entry
#: is dropped (FIFO), mirroring ShadowedPathLoss's own memory bound.
LINK_CACHE_MAX_ENTRIES = 1_000_000

#: Per-channel bucket changelog length; a delivery list staler than this
#: many bucket mutations resolves cold (at that point a full re-scan is
#: competitive with replaying the log anyway).
_BUCKET_LOG_MAX = 128


class CorruptionReason(enum.Enum):
    """Why an in-flight arrival was corrupted.

    Replaces the old free-form reason strings; the values keep the old
    wording so debug output stays readable.
    """

    RECEIVER_TRANSMITTING = "receiver was transmitting"
    CAPTURED_BY_STRONGER = "captured by stronger frame"
    LOCKED_ON_STRONGER = "receiver locked on stronger frame"
    COLLISION = "collision"


class RadioPort(Protocol):
    """What the medium requires of an attached radio.

    Two optional attributes unlock the medium's fast path:

    ``static_position``
        A :class:`Position` promising that ``current_position`` returns
        this exact position forever (or ``None``/absent for mobile
        radios).  Static radios skip the per-transmission position read
        and their link budgets are cached permanently.
    ``channel`` **changes** must be reported via
        :meth:`Medium.retune`; a radio that silently mutates a plain
        ``channel`` attribute after attaching will be indexed under its
        old channel.  :class:`~repro.phy.radio.Radio` wraps ``channel``
        in a property that notifies its medium automatically.
    ``rx_mac_u64`` / ``lanes``
        The receive MAC as a 48-bit integer and the lane list
        ``[mask, fcs_fail, not_for_me, group]`` (see
        :data:`LANE_FCS_FAIL`), read when a delivery list is resolved.
        Arrivals whose lane bit is set in ``lanes[0]`` are tallied in
        the list instead of handed to ``on_reception``.  Replacing
        either attribute must be reported via
        :meth:`Medium.note_addressing_changed`; the mask may change in
        place at any time.
    """

    name: str
    channel: int
    rx_sensitivity_dbm: float

    def current_position(self, time: float) -> Position:
        """Radio antenna position at ``time`` (mobile radios move)."""

    def on_reception(self, reception: "Reception") -> None:
        """Called when an arrival finishes (successfully or not)."""


def free_space_path_loss_db(tx: Position, rx: Position, frequency_hz: float) -> float:
    """Friis free-space path loss, clamped below 1 m to avoid singularity."""
    distance = max(tx.distance_to(rx), 1.0)
    wavelength = 299_792_458.0 / frequency_hz
    return 20.0 * math.log10(4.0 * math.pi * distance / wavelength)


@dataclass(slots=True)
class Transmission:
    """An on-air frame as the medium sees it.

    ``rx_cache`` is a lazily-created scratch dict shared by every receiver
    of this transmission: pure per-frame derivations (wire length, parsed
    MAC frame) are computed once by the first arrival and reused by the
    other N−1, instead of once per receiver.
    """

    sender: str
    frame: object
    start: float
    duration: float
    power_dbm: float
    rate_mbps: float
    channel: int
    tx_position: Position
    rx_cache: Optional[dict] = None

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(slots=True)
class Reception:
    """A finished arrival handed to a radio.

    ``fcs_ok`` is what the receiver's CRC check will conclude; ``collided``
    and ``while_transmitting`` explain *why* a frame failed, which the tests
    and benchmarks assert on.
    """

    frame: object
    transmission: Transmission
    rssi_dbm: float
    snr_db: float
    start: float
    end: float
    fcs_ok: bool
    collided: bool = False
    while_transmitting: bool = False
    csi: Optional[np.ndarray] = None

    @property
    def rate_mbps(self) -> float:
        return self.transmission.rate_mbps

    @property
    def airtime(self) -> float:
        return self.end - self.start


#: Reception lanes.  A lane names the *verdict* of the arrival-end
#: pre-filter for one arrival, computed before any :class:`Reception`
#: object exists.  Each receiving radio carries a lane list
#: ``[mask, fcs_fail, not_for_me, group]`` (``Radio.lanes``).  Bit ``c``
#: of ``mask`` is the receiver's promise that an arrival in lane ``c``
#: has no effect beyond one count in the matching tally, so the medium
#: bumps that tally and builds no ``Reception``.  A clear bit sends the
#: arrival down the scalar path.
LANE_FCS_FAIL = 0  # frame corrupted (collision, half-duplex, FER coin)
LANE_NOT_FOR_ME = 1  # clean unicast addressed to a different MAC
LANE_GROUP = 2  # clean group-addressed frame without a keyed lane (below)
#: Clean group-addressed frames of each ``(ftype, subtype)`` (2-bit type,
#: 4-bit subtype) have a lane of their own, so a receiver can promise
#: passivity per frame type: see :func:`group_lane`.
_GROUP_LANE_BASE = 3
#: Every group lane, keyed or not.
GROUP_LANES_MASK = (1 << LANE_GROUP) | (((1 << 64) - 1) << _GROUP_LANE_BASE)

#: Tally slots of a lane list (slot 0 is the mask).
TALLY_FCS_FAIL = 1
TALLY_NOT_FOR_ME = 2
TALLY_GROUP = 3

#: Lane list of a port that publishes none: nothing is consumable, so
#: its tallies are never written.
_NO_LANES = (0, 0, 0, 0)


def group_lane(ftype: int, subtype: int) -> int:
    """Lane code of a clean group-addressed frame of type ``(ftype, subtype)``."""
    if 0 <= ftype < 4 and 0 <= subtype < 16:
        return _GROUP_LANE_BASE + 16 * ftype + subtype
    return LANE_GROUP


#: Span-level lane classification states (``_ArrivalSpan.lane_mode``).
_LANES_UNSET = 0  # not classified yet (first arrival end computes it)
_LANES_SCALAR = 1  # no fast lanes: every arrival takes the scalar path
_LANES_GROUP = 2  # group-addressed frame: LANE_GROUP for every receiver
_LANES_UNICAST = 3  # unicast: per-receiver for-me / not-for-me split

#: Sentinel for "this radio advertises no receive MAC" in the uint64
#: mirrors; no 48-bit destination can ever equal it.
_NO_MAC = 0xFFFF_FFFF_FFFF_FFFF

#: Group/multicast bit of a 48-bit MAC viewed as a big-endian integer
#: (the LSB of the first address byte).
_GROUP_BIT = 1 << 40


class _ArrivalSpan:
    """Every arrival of one transmission, struct-of-arrays style.

    The medium resolves a transmission's whole delivery list up front —
    parallel arrays of radios, RSSIs, SNRs, and frame-error
    probabilities — and schedules *one* span behind two
    :class:`~repro.sim.engine.EventBatch` heap entries.  The span is the
    *slice handler* of both (``begin_slice`` / ``end_slice``): each takes
    over the engine's drain for a contiguous run of due arrivals, and the
    end slice routes each arrival through the lane pre-filter before any
    :class:`Reception` exists.  Lanes are classified lazily, once per
    span, from the frame's destination address (``dest_u64``) against
    the per-receiver MAC mirror carried in ``macs`` / ``mac_arr``; each
    arrival's lane is then tested against its receiver's published lane
    list (``lanes``).

    ``reasons[i]`` doubles as the corruption flag (``None`` = clean).

    The span also *is* its receivers' air state.  Begin and end slices
    walk the arrivals in the same (delay, attach-seq) order, so two
    cursors say which are on the air: arrival ``k`` has started and not
    ended exactly when ``ended <= k < begun``.  It is on its receiver's
    air unless an ``attach`` or ``detach`` of that receiver's name since
    it started *orphaned* it (``orphans``).  While any arrival is on the
    air the span sits in the medium's live-span list.  Looking a
    receiver up in the span takes a name -> index map (``index``),
    built on first use: only spans that meet another arrival, a
    transmitting receiver, a carrier-sense query or an attach/detach
    while live ever need one.
    """

    __slots__ = (
        "medium",
        "transmission",
        "radios",
        "rssis",
        "snrs",
        "fers",
        "reasons",
        # Implicit air state (see the class docstring).
        "begun",
        "ended",
        "orphans",
        "index",
        # Hot-path bindings resolved once per span instead of once per
        # arrival: these references are fixed for the medium's lifetime
        # (the dicts are mutated, never reassigned), so copying them onto
        # the span trades ~6 loads per transmission for ~3 attribute
        # chains per arrival — a win at 10+ receivers per frame.
        "clock",
        "attached",
        "detaches",
        "ctr_delivered",
        "ctr_dropped",
        "csi_model",
        # Reception lane state: per-receiver MAC mirror (uint64
        # ints, _NO_MAC when unknown), per-receiver lane lists (see
        # LANE_FCS_FAIL), optional numpy view of `macs` for
        # one-comparison classification, and the lazily computed
        # verdicts.
        "macs",
        "lanes",
        "mac_arr",
        "lane_mode",
        "for_me",
        "group_bit",
        # Per-batch absolute due times (`base + offset + shift`, computed
        # with the engine's exact left-associated float adds), cached on
        # first slice call so window boundaries are bisections instead of
        # per-item arithmetic.
        "due_begin",
        "due_end",
    )

    def __init__(
        self,
        medium: "Medium",
        transmission: Transmission,
        radios: List[RadioPort],
        rssis: List[float],
        snrs: List[float],
        fers: Optional[List[float]],
        macs: List[int],
        lanes: list,
        mac_arr: Optional[np.ndarray],
    ) -> None:
        self.medium = medium
        self.transmission = transmission
        self.radios = radios
        self.rssis = rssis
        self.snrs = snrs
        self.fers = fers
        self.reasons: List[Optional[CorruptionReason]] = [None] * len(radios)
        self.begun = 0
        self.ended = 0
        self.orphans: Optional[set] = None
        self.index: Optional[Dict[str, int]] = None
        self.clock = medium.engine.clock
        self.attached = medium._radios
        # Every receiver is attached now; only a later detach can change
        # that, so end slices check names only once the count moves.
        self.detaches = medium.detach_count
        self.ctr_delivered = medium._ctr_delivered
        self.ctr_dropped = medium._ctr_dropped
        self.csi_model = medium._csi_model
        self.macs = macs
        self.lanes = lanes
        self.mac_arr = mac_arr
        self.lane_mode = _LANES_UNSET
        self.for_me: Optional[List[bool]] = None
        self.group_bit = 0
        self.due_begin: Optional[List[float]] = None
        self.due_end: Optional[List[float]] = None

    # -- air state ------------------------------------------------------------

    def _index_of(self, name: str) -> Optional[int]:
        """Index of ``name``'s arrival in this span, if it has one."""
        index = self.index
        if index is None:
            index = self.index = {radio.name: k for k, radio in enumerate(self.radios)}
        return index.get(name)

    def _on_air(self, name: str) -> int:
        """Index of ``name``'s arrival if it is on that receiver's air, else -1."""
        k = self._index_of(name)
        if k is None or k < self.ended or k >= self.begun:
            return -1
        orphans = self.orphans
        if orphans is not None and k in orphans:
            return -1
        return k

    # -- slice drains ---------------------------------------------------------

    def _classify(self) -> None:
        """Compute the span's lane verdicts, once, before the first dispatch.

        The pre-filter needs only the frame's receiver address: the
        ``dest_u64`` hook (on :class:`~repro.mac.frames.Frame` and
        ``RawPsdu``) yields it as a 48-bit big-endian integer, or
        ``None`` when unparseable — then, as whenever a CSI model is
        installed (its per-arrival invocation has its own RNG ordering),
        every arrival takes the scalar path.  A group destination puts
        every clean arrival in the frame type's group lane
        (:func:`group_lane`); a unicast destination is compared against
        the receiver-MAC mirror — one numpy comparison when the cached
        array is available — splitting the span into for-me (scalar) and
        ``LANE_NOT_FOR_ME`` arrivals.
        """
        mode = _LANES_SCALAR
        if self.csi_model is None:
            frame = self.transmission.frame
            hook = getattr(frame, "dest_u64", None)
            dest = hook() if hook is not None else None
            if dest is not None:
                if dest & _GROUP_BIT:
                    ftype = getattr(frame, "ftype", None)
                    lane = (
                        LANE_GROUP if ftype is None
                        else group_lane(ftype, frame.subtype)
                    )
                    self.group_bit = 1 << lane
                    mode = _LANES_GROUP
                else:
                    arr = self.mac_arr
                    if arr is not None:
                        self.for_me = (arr == dest).tolist()
                    else:
                        self.for_me = [m == dest for m in self.macs]
                    mode = _LANES_UNICAST
        self.lane_mode = mode

    def _hand_up(self, i: int, fcs_ok: bool, reason) -> None:
        """Scalar path for arrival ``i``: build the Reception and hand it up."""
        transmission = self.transmission
        radio = self.radios[i]
        now = self.clock._now
        csi = None
        csi_model = self.csi_model
        if csi_model is not None:
            csi = csi_model(transmission.sender, radio.name, now)
        while_transmitting = reason is CorruptionReason.RECEIVER_TRANSMITTING
        radio.on_reception(
            Reception(
                transmission.frame,
                transmission,
                self.rssis[i],
                self.snrs[i],
                transmission.start,
                now,
                fcs_ok,
                (reason is not None) and not while_transmitting,
                while_transmitting,
                csi,
            )
        )

    def _window(self, due: List[float], i: int, n: int, engine) -> int:
        """End index of the contiguous due run starting at ``i``.

        Encodes the engine drain's yield conditions as two bisections
        over the precomputed due times: items process while they are
        within the run limit and strictly before the next heap event
        (none of which can change between items unless an upcall runs).
        The first item is always due — the engine popped the batch at
        its time — and exact-time ties with the last processed item
        always process, exactly as :class:`~repro.sim.engine.EventBatch`
        specifies for slice handlers.
        """
        if engine._stopped:
            j = i + 1
        else:
            j = bisect_right(due, engine._run_limit, i, n)
            heap = engine._heap
            if heap:
                j2 = bisect_left(due, heap[0][0], i, n)
                if j2 < j:
                    j = j2
            if j <= i:
                j = i + 1
        while j < n and due[j] == due[j - 1]:
            j += 1
        return j

    def begin_slice(self, batch) -> int:
        """Arrival starts for a run of due items: put them on the air.

        Starting arrivals ``i..j-1`` is moving the ``begun`` cursor to
        ``j``; the work is in the two checks that precede it, each of
        which costs nothing per arrival unless another radio's state is
        involved.  Half duplex: only radios still transmitting at the
        window's first due time can deafen an arrival, so the medium's
        ``_transmitting`` map is pruned of the rest here, and each
        survivor other than this span's own sender (never one of its
        receivers) is looked up in the span.  Capture: only when another
        span is live can an arrival find company on its receiver's air;
        then each arrival looks for its receiver in the other live spans
        and resolves the capture model against what it finds
        (:meth:`Medium._resolve_overlap`).

        The whole window is computed up front (:meth:`_window`): arrival
        starts never run user code and never touch the heap, so the
        yield conditions cannot change mid-run and the per-item time
        arithmetic and boundary checks vanish.  The clock is written
        once at the end; the "receiver transmitting" test uses each
        arrival's own due time, which is exactly the value the clock
        would have held.
        """
        offsets = batch.offsets
        i = batch.index
        n = len(offsets)
        due = self.due_begin
        if due is None:
            base = batch.base
            shift = batch.shift
            due = self.due_begin = [base + off + shift for off in offsets]
        medium = self.medium
        j = self._window(due, i, n, medium.engine)
        reasons = self.reasons
        transmitting = medium._transmitting
        if transmitting:
            start = due[i]
            sender = self.transmission.sender
            stale = None
            for name, tx_end in transmitting.items():
                if tx_end <= start:
                    # Over before this window: it can deafen no arrival
                    # from now on, and is_transmitting reads it as idle.
                    if stale is None:
                        stale = []
                    stale.append(name)
                elif name != sender:
                    k = self._index_of(name)
                    if k is not None and i <= k < j and tx_end > due[k]:
                        reasons[k] = CorruptionReason.RECEIVER_TRANSMITTING
            if stale is not None:
                for name in stale:
                    del transmitting[name]
        live = medium._live
        if i == 0:
            live.append(self)
        if len(live) > 1:
            others = [span for span in live if span is not self]
            radios = self.radios
            resolve = medium._resolve_overlap
            for idx in range(i, j):
                name = radios[idx].name
                company = None
                for other in others:
                    k = other._on_air(name)
                    if k >= 0:
                        if company is None:
                            company = []
                        company.append((other, k))
                if company is not None:
                    medium.contended_starts += 1
                    resolve(company, self, idx)
        self.begun = j
        clock = self.clock
        t = due[j - 1]
        if t > clock._now:
            clock._now = t
        return j

    def end_slice(self, batch) -> int:
        """Slice-mode arrival ends: the lane pre-filter dispatch loop.

        For each due arrival: skip receivers detached mid-flight, flip
        the FER coin (one RNG draw per clean arrival with a positive
        error probability, in arrival order), then classify.  An arrival
        whose lane bit is set in its receiver's lane mask is one tally
        bump (``lanes[i][slot] += 1``) and never constructs a
        :class:`Reception`; the rest take the scalar path
        (:meth:`_hand_up`).  Delivered and dropped tallies accumulate
        locally and flush before every scalar upcall, and the ``ended``
        cursor moves there too, so any code observing the counters or
        the air state mid-slice sees per-arrival values.

        The detached-receiver name lookup runs only once the medium's
        detach count has moved since the span was built: until then
        every receiver is still attached.

        The drain is windowed (:meth:`_window`): a tally bump runs no
        code, so the yield conditions only change at scalar upcalls, and
        the window is recomputed exactly there.  The clock advances
        lazily: nothing in a fast-lane run can observe it, so it is
        written to the arrival's due time only before an upcall and at
        the window end, landing on the same final value a per-item drain
        produces.
        """
        offsets = batch.offsets
        i = batch.index
        n = len(offsets)
        medium = self.medium
        engine = medium.engine
        due = self.due_end
        if due is None:
            base = batch.base
            shift = batch.shift
            due = self.due_end = [base + off + shift for off in offsets]
        if self.lane_mode == _LANES_UNSET:
            self._classify()
        lane_mode = self.lane_mode
        if lane_mode == _LANES_SCALAR:
            return self._end_slice_scalar(batch, due)
        clock = self.clock
        heap = engine._heap
        limit = engine._run_limit
        radios = self.radios
        reasons = self.reasons
        fers = self.fers
        attached = self.attached
        lanes = self.lanes
        for_me = self.for_me
        if lane_mode == _LANES_GROUP:
            ok_bit = self.group_bit
            ok_slot = TALLY_GROUP
        else:
            ok_bit = 1 << LANE_NOT_FOR_ME
            ok_slot = TALLY_NOT_FOR_ME
        fail_bit = 1 << LANE_FCS_FAIL
        ctr_delivered = self.ctr_delivered
        ctr_dropped = self.ctr_dropped
        n_delivered = 0
        n_dropped = 0
        rng_draw = medium._rng_draw
        first = True
        while True:
            if first:
                first = False
            else:
                t = due[i]
                if t > clock._now and (
                    t > limit
                    or engine._stopped
                    or (heap and t >= heap[0][0])
                ):
                    break
            j = self._window(due, i, n, engine)
            check_attached = medium.detach_count != self.detaches
            upcall = -1
            for idx in range(i, j):
                if check_attached and radios[idx].name not in attached:
                    continue  # detached mid-flight
                reason = reasons[idx]
                fcs_ok = reason is None
                if fcs_ok and fers is not None:
                    probability = fers[idx]
                    if probability > 0.0 and rng_draw() < probability:
                        fcs_ok = False
                if fcs_ok:
                    n_delivered += 1
                    if for_me is None or not for_me[idx]:
                        rx_lanes = lanes[idx]
                        if rx_lanes[0] & ok_bit:
                            rx_lanes[ok_slot] += 1
                            continue
                else:
                    n_dropped += 1
                    rx_lanes = lanes[idx]
                    if rx_lanes[0] & fail_bit:
                        rx_lanes[TALLY_FCS_FAIL] += 1
                        continue
                # Scalar fallback: sync the clock, the air state and
                # the public counters first, so the upcall observes
                # exactly the per-item drain's state.
                self.ended = idx + 1
                t = due[idx]
                if t > clock._now:
                    clock._now = t
                if n_delivered:
                    if ctr_delivered is not None:
                        ctr_delivered.value += n_delivered
                    n_delivered = 0
                if n_dropped:
                    if ctr_dropped is not None:
                        ctr_dropped.value += n_dropped
                    n_dropped = 0
                self._hand_up(idx, fcs_ok, reason)
                upcall = idx
                break
            if upcall < 0:
                # Clean window: no upcall ran, so the boundary state the
                # window was computed from is unchanged and j is final.
                i = self.ended = j
                t = due[j - 1]
                if t > clock._now:
                    clock._now = t
                break
            i = upcall + 1
            if i == n:
                break
        if n_delivered and ctr_delivered is not None:
            ctr_delivered.value += n_delivered
        if n_dropped and ctr_dropped is not None:
            ctr_dropped.value += n_dropped
        if i == n:
            medium._live.remove(self)
        return i

    def _end_slice_scalar(self, batch, due: List[float]) -> int:
        """Per-item arrival-end drain for spans with no fast lanes.

        CSI-tagged or unparseable transmissions upcall for every
        attached receiver, so the windowed loop would recompute its
        boundary per item; this plain per-item drain is cheaper there.
        """
        i = batch.index
        n = len(due)
        medium = self.medium
        engine = medium.engine
        heap = engine._heap
        limit = engine._run_limit
        clock = self.clock
        radios = self.radios
        reasons = self.reasons
        fers = self.fers
        attached = self.attached
        ctr_delivered = self.ctr_delivered
        ctr_dropped = self.ctr_dropped
        rng_draw = medium._rng_draw
        while True:
            self.ended = i + 1
            if medium.detach_count == self.detaches or radios[i].name in attached:
                reason = reasons[i]
                fcs_ok = reason is None
                if fcs_ok and fers is not None:
                    probability = fers[i]
                    if probability > 0.0 and rng_draw() < probability:
                        fcs_ok = False
                if fcs_ok:
                    if ctr_delivered is not None:
                        ctr_delivered.value += 1
                elif ctr_dropped is not None:
                    ctr_dropped.value += 1
                self._hand_up(i, fcs_ok, reason)
            i += 1
            if i == n:
                medium._live.remove(self)
                return i
            t = due[i]
            if t > clock._now:
                # Upcalls may schedule events or stop the run, so the
                # heap head and stop flag are re-read every iteration.
                if (
                    t > limit
                    or engine._stopped
                    or (heap and t >= heap[0][0])
                ):
                    return i
                clock._now = t


class _RadioEntry:
    """Per-radio index record: channel bucket membership + position epoch."""

    __slots__ = ("radio", "name", "seq", "channel", "epoch", "static_pos", "last_pos")

    def __init__(
        self, radio: RadioPort, name: str, seq: int, channel: int, epoch: int
    ) -> None:
        self.radio = radio
        self.name = name
        self.seq = seq  # attachment order; buckets stay sorted by it
        self.channel = channel
        self.epoch = epoch
        self.static_pos: Optional[Position] = getattr(radio, "static_position", None)
        self.last_pos: Optional[Position] = self.static_pos


class _ChannelSoA:
    """Struct-of-arrays mirror of one channel bucket.

    Parallel contiguous numpy arrays over the bucket (in attachment
    order): antenna positions (NaN for mobiles, whose positions are
    re-read every transmission anyway), receive sensitivities, per-
    receiver noise floors and carrier frequencies (uniform today — one
    medium, one band — but carried per receiver so heterogeneous
    front-ends only have to change this constructor), attachment
    sequence numbers, and the static/mobile flag.  Rebuilt lazily
    whenever the channel's bucket version moves; ``entries`` snapshots
    the bucket so a rebuild can never race an attach/detach (those bump
    the version).

    The arrays snapshot ``rx_sensitivity_dbm`` per bucket version, which
    is why :class:`RadioPort` requires it constant while attached.
    """

    __slots__ = (
        "version",
        "entries",
        "count",
        "seqs",
        "sens_dbm",
        "noise_dbm",
        "freq_hz",
        "xyz",
        "static_mask",
        "mac_u64",
        "mac_list",
        "limit2_by_power",
    )

    def __init__(
        self,
        version: int,
        bucket: List[_RadioEntry],
        noise_floor_dbm: float,
        frequency_hz: float,
    ) -> None:
        self.version = version
        entries = list(bucket)
        self.entries = entries
        n = len(entries)
        self.count = n
        self.seqs = np.empty(n, dtype=np.int64)
        self.sens_dbm = np.empty(n, dtype=np.float64)
        self.xyz = np.empty((n, 3), dtype=np.float64)
        self.static_mask = np.empty(n, dtype=bool)
        #: Receiver MAC mirror for the batched-reception pre-filter: the
        #: address each radio answers to (``rx_mac_u64``, published by
        #: its AckEngine) as a uint64, ``_NO_MAC`` when unadvertised.
        #: Snapshot per bucket version like every other column;
        #: :meth:`Medium.note_addressing_changed` bumps the version when
        #: an address is (re)published after attach.
        self.mac_u64 = np.empty(n, dtype=np.uint64)
        xyz = self.xyz
        for i, e in enumerate(entries):
            self.seqs[i] = e.seq
            self.sens_dbm[i] = e.radio.rx_sensitivity_dbm
            mac = getattr(e.radio, "rx_mac_u64", None)
            self.mac_u64[i] = _NO_MAC if mac is None else mac
            pos = e.static_pos
            if pos is None:
                self.static_mask[i] = False
                xyz[i, 0] = xyz[i, 1] = xyz[i, 2] = math.nan
            else:
                self.static_mask[i] = True
                xyz[i, 0] = pos.x
                xyz[i, 1] = pos.y
                xyz[i, 2] = pos.z
        #: Python-int view of ``mac_u64`` so the cold delivery scan can
        #: copy addresses without per-element numpy boxing.
        self.mac_list: List[int] = self.mac_u64.tolist()
        self.noise_dbm = np.full(n, noise_floor_dbm)
        self.freq_hz = np.full(n, frequency_hz)
        #: power_dbm -> squared range-gate limit (slack included); the
        #: limit depends only on per-receiver constants and the transmit
        #: power, so it is derived once per (rebuild, power) instead of
        #: once per cold delivery resolution.
        self.limit2_by_power: Dict[float, np.ndarray] = {}

    def limit2(self, power_dbm: float) -> np.ndarray:
        cached = self.limit2_by_power.get(power_dbm)
        if cached is None:
            wavelengths = 299_792_458.0 / self.freq_hz
            dmax = (wavelengths / (4.0 * math.pi)) * 10.0 ** (
                (power_dbm - self.sens_dbm) / 20.0
            )
            np.maximum(dmax, 1.0, out=dmax)
            cached = dmax * dmax
            cached *= 1.0 + 1e-9
            cached += 1e-9
            self.limit2_by_power[power_dbm] = cached
        return cached


class Medium:
    """The broadcast medium binding radios together.

    Parameters
    ----------
    engine:
        Event engine used to schedule arrival start/end callbacks.
    frequency_hz:
        Carrier frequency used by the default path-loss model and by CSI
        models (2.437 GHz = channel 6 by default).
    path_loss_db:
        ``f(tx_pos, rx_pos) -> dB``.  Defaults to free space at
        ``frequency_hz``.  Must be a pure function of the two positions
        (the link-budget cache memoizes it per position epoch).
    fer:
        ``f(snr_db, rate_mbps, length_bytes) -> probability``; defaults to
        lossless above sensitivity.
    csi_model:
        ``f(tx_name, rx_name, time) -> complex ndarray`` giving the channel
        frequency response sampled at the reception instant, or ``None``.
    trace:
        Optional global :class:`FrameTrace` capturing every transmission.
    metrics:
        Optional :class:`~repro.telemetry.registry.MetricsRegistry`;
        defaults to the engine's registry, so instrumenting the engine
        instruments the medium too.  Maintains ``medium.frames.*``
        counters and the cumulative ``medium.airtime_s``.
    """

    def __init__(
        self,
        engine: Engine,
        frequency_hz: float = 2.437e9,
        path_loss_db: Optional[Callable[[Position, Position], float]] = None,
        fer: Optional[Callable[[float, float, int], float]] = None,
        csi_model: Optional[Callable[[str, str, float], Optional[np.ndarray]]] = None,
        trace: Optional[FrameTrace] = None,
        noise_floor_dbm: float = DEFAULT_NOISE_FLOOR_DBM,
        capture_threshold_db: float = DEFAULT_CAPTURE_THRESHOLD_DB,
        rng: Optional[np.random.Generator] = None,
        metrics=None,
    ) -> None:
        self.engine = engine
        self.metrics = (
            metrics if metrics is not None else getattr(engine, "metrics", None)
        )
        self._ctr_tx = None
        self._ctr_delivered = None
        self._ctr_dropped = None
        self._ctr_airtime = None
        if self.metrics is not None:
            self._ctr_tx = self.metrics.counter(
                "medium.frames.transmitted", "frames put on the air"
            )
            self._ctr_delivered = self.metrics.counter(
                "medium.frames.delivered", "arrivals handed up with FCS ok"
            )
            self._ctr_dropped = self.metrics.counter(
                "medium.frames.dropped",
                "arrivals corrupted (collision, half-duplex, FER)",
            )
            self._ctr_airtime = self.metrics.counter(
                "medium.airtime_s", "cumulative on-air seconds"
            )
        self.frequency_hz = frequency_hz
        self.noise_floor_dbm = noise_floor_dbm
        self.capture_threshold_db = capture_threshold_db
        self.trace = trace
        self._path_loss = path_loss_db or (
            lambda tx, rx: free_space_path_loss_db(tx, rx, self.frequency_hz)
        )
        self._fer = fer
        self._csi_model = csi_model
        self._rng = rng if rng is not None else np.random.default_rng(0)
        #: Block-buffered uniform draws for the FER coin flips.  A numpy
        #: ``Generator.random(n)`` call consumes exactly the same bit
        #: stream as ``n`` successive scalar ``random()`` calls, so
        #: refilling in blocks yields the identical draw sequence at a
        #: fraction of the per-call overhead.  The medium owns its
        #: generator (callers hand it a dedicated stream), so prefetching
        #: never steals draws from anyone else.
        self._rng_buf: List[float] = []
        self._rng_pos = 0
        self._radios: Dict[str, RadioPort] = {}
        #: Detaches so far.  An arrival span built since the last one
        #: knows all its receivers are attached and skips the per-arrival
        #: name lookup (see :meth:`_ArrivalSpan.end_slice`).
        self.detach_count = 0
        self._entries: Dict[str, _RadioEntry] = {}
        self._channels: Dict[int, List[_RadioEntry]] = {}
        self._attach_seq = 0
        #: Next epoch to hand a (re-)attaching radio of a given name; kept
        #: across detach so a re-attached radio never aliases stale cache
        #: entries computed for its previous life.
        self._epoch_reserve: Dict[str, int] = {}
        #: (tx_name, rx_name) -> (tx_epoch, rx_epoch, path_loss_db, delay_s)
        self._link_cache: Dict[Tuple[str, str], Tuple[int, int, float, float]] = {}
        #: Per-channel version counter: bumped on attach/detach/retune and
        #: whenever a member radio's position epoch bumps.  Guards the
        #: delivery-list cache below.
        self._bucket_version: Dict[int, int] = {}
        #: Per-channel changelog of bucket mutations since the last
        #: un-patchable one: ``(version_after_bump, op, entry)`` with op
        #: ``"+"`` (attach), ``"-"`` (detach) or ``"m"`` (receive MAC /
        #: lane list changed).  Lets a stale warm delivery list advance
        #: by replaying only the changed members instead of re-resolving
        #: the whole bucket — the dominant cold-path cause at city scale
        #: is lazy activation attaching/detaching a handful of radios
        #: between transmissions.  ``None`` means the channel saw a
        #: mutation the patcher can't replay (retune, reposition) and
        #: every stale list must resolve cold once.  Within one list the
        #: versions are consecutive, so coverage is a single index
        #: computation.
        self._bucket_log: Dict[int, Optional[list]] = {}
        #: Per-channel list of *mobile* member entries (static_pos None),
        #: re-read every transmission to detect movement.
        self._mobiles: Dict[int, List[_RadioEntry]] = {}
        #: (sender, channel, power_dbm) -> the resolved in-range *static*
        #: receiver list of the sender's last transmission on that channel
        #: at that power, sorted by arrival order (delay, then attachment
        #: order), as the 11-tuple (bucket_version, tx_epoch, delays,
        #: attach_seqs, radios, rssis, snrs, fer_lists, macs, lanes,
        #: mac_arr) of parallel lists, so a warm transmission reuses
        #: whole delivery arrays without re-deriving SNR.  Mobile
        #: receivers are deliberately excluded: they
        #: are re-resolved every transmission from the link-budget cache,
        #: so a moving receiver (the wardrive rig) no longer invalidates
        #: every sender's warm list.  The channel is part of the key
        #: because each channel's version counter is independent: a
        #: retuned sender must never validate an old channel's list
        #: against the new channel's counter.  While nothing in the
        #: bucket changes, a repeat transmission skips the whole
        #: per-receiver scan.  FIFO-capped at ``LINK_CACHE_MAX_ENTRIES``
        #: like the link and FER caches.
        self._delivery_cache: Dict[Tuple[str, int, float], tuple] = {}
        self.link_cache_hits = 0
        self.link_cache_misses = 0
        #: (snr, rate, length) -> frame-error probability.  Assumes the
        #: FER model is a pure function of its arguments (all built-ins
        #: are); cached link budgets make SNR values repeat exactly.
        self._fer_cache: Dict[Tuple[float, float, int], float] = {}
        #: Spans with arrivals on the air (between their first start and
        #: their last end), in start order: the medium's air state, read
        #: through each span's cursors (see :class:`_ArrivalSpan`).
        self._live: List[_ArrivalSpan] = []
        #: Arrival starts that found another arrival on their receiver's
        #: air and went through the capture model.  A plain attribute,
        #: not a registry counter, so metrics snapshots are unchanged.
        self.contended_starts = 0
        #: Radio name -> end of its transmission.  Pruned of ended ones
        #: by arrival starts, which read it for the half-duplex check.
        self._transmitting: Dict[str, float] = {}
        self.transmission_count = 0
        #: The vectorized range prefilter solves the default free-space
        #: model in the distance domain; a custom model disables it (the
        #: candidate scan then walks the whole bucket, still vectorized
        #: downstream).  ``_path_loss`` is fixed at construction, so this
        #: flag cannot go stale.
        self._free_space = path_loss_db is None
        #: channel -> _ChannelSoA mirror, rebuilt when the bucket version
        #: moves.
        self._soa_cache: Dict[int, _ChannelSoA] = {}
        #: Transmit taps (``add_transmit_observer``).  Called with each
        #: Transmission record after it is built but before delivery;
        #: observers must not mutate medium state.  The tiled partition
        #: runner uses one to count halo-origin cross-tile traffic
        #: without touching the delivery fast paths.
        self._tx_observers: List[Callable[[Transmission], None]] = []

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, radio: RadioPort) -> None:
        """Connect a radio; its name must be unique on this medium."""
        name = radio.name
        if name in self._radios:
            raise ValueError(f"radio {name!r} already attached")
        self._radios[name] = radio
        self._orphan(name)
        entry = _RadioEntry(
            radio,
            name,
            self._attach_seq,
            int(radio.channel),
            self._epoch_reserve.get(name, 0),
        )
        self._attach_seq += 1
        self._entries[name] = entry
        # Attach sequence numbers only grow, so appending keeps each
        # bucket sorted by attachment order — the iteration order the
        # pre-index medium had (dict insertion order filtered by channel).
        self._channels.setdefault(entry.channel, []).append(entry)
        if entry.static_pos is None:
            self._mobiles.setdefault(entry.channel, []).append(entry)
        self._bump_bucket(entry.channel, "+", entry)

    def _bump_bucket(self, channel: int, op: Optional[str] = None, entry=None) -> None:
        """Invalidate cached delivery lists targeting ``channel``.

        ``op``/``entry`` record the mutation in the channel changelog so
        stale warm lists can be patched instead of fully re-resolved;
        calling with no ``op`` poisons the log (full resolve required).
        """
        self._bucket_version[channel] = version = (
            self._bucket_version.get(channel, 0) + 1
        )
        if op is None:
            self._bucket_log[channel] = None
            return
        log = self._bucket_log.get(channel)
        if log is None:
            log = self._bucket_log[channel] = []
        log.append((version, op, entry))
        if len(log) > _BUCKET_LOG_MAX:
            del log[: len(log) - _BUCKET_LOG_MAX]

    def add_transmit_observer(self, observer: Callable[[Transmission], None]) -> None:
        """Register a read-only tap called with every :class:`Transmission`.

        Observers fire synchronously inside :meth:`transmit`, after the
        record is built and before delivery resolution.  They must not
        mutate medium state or consume the medium's RNG — the byte-
        equivalence contract requires a tapped run to produce the exact
        trace of an untapped one.
        """
        self._tx_observers.append(observer)

    def note_addressing_changed(self, radio_name: str) -> None:
        """Invalidate caches after ``radio_name`` changed its receive MAC
        or its lane list.

        An :class:`~repro.mac.ack_engine.AckEngine` publishes its MAC
        (``rx_mac_u64``) and a fresh lane list (``lanes``) onto the radio
        *after* the radio attached, so any SoA mirror or delivery list
        resolved in between carries a stale address and list.  Bumping
        the bucket version forces both to rebuild before the next
        classification.  Lane *masks* change in place inside the list,
        so they need no notice.
        """
        entry = self._entries.get(radio_name)
        if entry is not None:
            self._bump_bucket(entry.channel, "m", entry)

    def detach(self, radio_name: str) -> None:
        self.detach_count += 1
        entry = self._entries.pop(radio_name, None)
        if entry is not None:
            bucket = self._channels.get(entry.channel)
            if bucket is not None:
                bucket.remove(entry)
            mobiles = self._mobiles.get(entry.channel)
            if mobiles is not None and entry in mobiles:
                mobiles.remove(entry)
            self._bump_bucket(entry.channel, "-", entry)
            # Reserve a fresh epoch for any future radio with this name so
            # cached link budgets from this life can never be reused.  The
            # same epoch mismatch retires this sender's own stale delivery
            # lists if the name ever transmits again, so they are left to
            # FIFO eviction instead of scanning the cache here.
            self._epoch_reserve[radio_name] = entry.epoch + 1
        self._radios.pop(radio_name, None)
        self._orphan(radio_name)
        self._transmitting.pop(radio_name, None)

    def _orphan(self, name: str) -> None:
        """Take ``name``'s started arrivals off its air: a new life begins.

        Every attach and every detach of a name starts a fresh air state
        for it; arrivals that started before stay on the air of nobody.
        Arrivals that start after a detach share the air of the detached
        name with each other until the next attach or detach.
        """
        for span in self._live:
            k = span._on_air(name)
            if k >= 0:
                if span.orphans is None:
                    span.orphans = set()
                span.orphans.add(k)

    def retune(self, radio_name: str, channel: int) -> None:
        """Move a radio between channel buckets (no-op when unattached).

        Must be called whenever an attached radio's channel changes;
        :class:`~repro.phy.radio.Radio` calls it from its ``channel``
        setter.  The radio keeps its attachment order in the new bucket.
        """
        entry = self._entries.get(radio_name)
        if entry is None:
            return
        channel = int(channel)
        if entry.channel == channel:
            return
        old_channel = entry.channel
        old_bucket = self._channels.get(old_channel)
        if old_bucket is not None:
            old_bucket.remove(entry)
        mobile = entry.static_pos is None
        if mobile:
            old_mobiles = self._mobiles.get(old_channel)
            if old_mobiles is not None and entry in old_mobiles:
                old_mobiles.remove(entry)
        entry.channel = channel
        bucket = self._channels.setdefault(channel, [])
        # Insert preserving attachment order (retunes are rare; scans hot).
        lo, hi = 0, len(bucket)
        seq = entry.seq
        while lo < hi:
            mid = (lo + hi) // 2
            if bucket[mid].seq < seq:
                lo = mid + 1
            else:
                hi = mid
        bucket.insert(lo, entry)
        if mobile:
            mobiles = self._mobiles.setdefault(channel, [])
            lo, hi = 0, len(mobiles)
            while lo < hi:
                mid = (lo + hi) // 2
                if mobiles[mid].seq < seq:
                    lo = mid + 1
                else:
                    hi = mid
            mobiles.insert(lo, entry)
        self._bump_bucket(old_channel)
        self._bump_bucket(channel)

    def reposition(
        self, radio_name: str, static: Optional[Position]
    ) -> None:
        """Re-classify a radio whose position *provider* was replaced.

        ``static`` is the new fixed position, or ``None`` if the radio
        became mobile.  Cached link budgets and delivery lists involving
        the radio are invalidated; mobility-tracking membership is kept
        in sync.  No-op when unattached.
        :class:`~repro.phy.radio.Radio` calls this from its ``_position``
        setter, so code that swaps a radio's provider mid-simulation
        (e.g. the localization attack walking its dongle between anchors)
        never observes stale budgets.
        """
        entry = self._entries.get(radio_name)
        if entry is None:
            return
        entry.static_pos = static
        entry.last_pos = static
        entry.epoch += 1
        mobiles = self._mobiles.setdefault(entry.channel, [])
        if static is None:
            if entry not in mobiles:
                lo, hi = 0, len(mobiles)
                seq = entry.seq
                while lo < hi:
                    mid = (lo + hi) // 2
                    if mobiles[mid].seq < seq:
                        lo = mid + 1
                    else:
                        hi = mid
                mobiles.insert(lo, entry)
        elif entry in mobiles:
            mobiles.remove(entry)
        self._bump_bucket(entry.channel)

    @property
    def radio_names(self) -> List[str]:
        return sorted(self._radios)

    def has_radio(self, name: str) -> bool:
        """O(1) membership check (``radio_names`` sorts the whole set)."""
        return name in self._radios

    def __contains__(self, name: str) -> bool:
        return name in self._radios

    def radio(self, name: str) -> RadioPort:
        return self._radios[name]

    @property
    def link_cache_size(self) -> int:
        return len(self._link_cache)

    def invalidate_link_cache(self) -> None:
        """Drop every cached link budget (e.g. after swapping models)."""
        self._link_cache.clear()
        self._delivery_cache.clear()
        self._fer_cache.clear()

    # ------------------------------------------------------------------
    # Channel state queries
    # ------------------------------------------------------------------
    def _observed_position(
        self, entry: _RadioEntry, radio: RadioPort, time: float
    ) -> Position:
        """Current position with the same epoch discipline as transmit().

        Static radios return their pinned position; mobile radios are
        re-read, and an observed move bumps the epoch exactly like the
        per-transmission prescan does, so query-path and delivery-path
        budgets can never disagree about where a radio is.
        """
        static = entry.static_pos
        if static is not None:
            return static
        position = radio.current_position(time)
        last = entry.last_pos
        if position is not last and position != last:
            entry.last_pos = position
            entry.epoch += 1
        return position

    def rssi_between(self, tx_name: str, rx_name: str, time: float) -> float:
        """Would-be RSSI of a 20 dBm transmission between two radios.

        Resolved through the same epoch-keyed link-budget store
        ``transmit()`` uses, so an ad-hoc query returns exactly the loss
        a delivery would see (including frozen shadowing for stateful
        path-loss models) instead of re-invoking the model out of band.
        Unattached radios fall back to a fresh model call — they have no
        epoch to key a cache entry on.
        """
        tx = self._radios[tx_name]
        rx = self._radios[rx_name]
        tx_entry = self._entries.get(tx_name)
        rx_entry = self._entries.get(rx_name)
        if tx_entry is None or rx_entry is None:
            loss = self._path_loss(
                tx.current_position(time), rx.current_position(time)
            )
            return 20.0 - loss
        tx_position = self._observed_position(tx_entry, tx, time)
        rx_position = self._observed_position(rx_entry, rx, time)
        loss, _ = self._link_budget(
            tx_name, tx_entry.epoch, tx_position, rx_entry, rx_position
        )
        return 20.0 - loss

    def is_busy_for(self, radio_name: str, cca_threshold_dbm: float = -82.0) -> bool:
        """Carrier-sense verdict: any ongoing arrival above the CCA level?

        Reads the same per-span RSSI arrays the delivery path filled in.
        """
        for span in self._live:
            k = span._on_air(radio_name)
            if k >= 0 and span.rssis[k] >= cca_threshold_dbm:
                return True
        return False

    def is_transmitting(self, radio_name: str) -> bool:
        end = self._transmitting.get(radio_name)
        return end is not None and end > self.engine.now

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------
    def _rng_draw(self) -> float:
        """Next uniform [0, 1) draw — the FER coin flip.

        Identical sequence to calling ``self._rng.random()`` directly
        (block refills consume the same bit stream), but ~10x cheaper
        per draw.  Arrival ends draw through here, in arrival order.
        """
        pos = self._rng_pos
        buf = self._rng_buf
        if pos == len(buf):
            buf = self._rng_buf = self._rng.random(1024).tolist()
            pos = 0
        self._rng_pos = pos + 1
        return buf[pos]

    def rng_fingerprint(self) -> int:
        """CRC of the RNG stream position (generator state + buffer
        cursor).  Two media have drawn identical FER-coin sequences iff
        their fingerprints match — the partition supervisor uses this to
        validate a relaunched tile's deterministic replay.
        """
        key = (
            f"{self._rng_pos}/{len(self._rng_buf)}|"
            f"{self._rng.bit_generator.state!r}"
        )
        return zlib.crc32(key.encode())

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(
        self,
        sender: RadioPort,
        frame: object,
        duration: float,
        power_dbm: float,
        rate_mbps: float,
    ) -> Transmission:
        """Put ``frame`` on the air from ``sender`` for ``duration`` seconds.

        Returns the :class:`Transmission` record.  Arrival events at every
        in-range same-channel radio are scheduled on the engine.
        """
        if duration <= 0.0:
            raise ValueError(f"duration must be positive, got {duration!r}")
        engine = self.engine
        now = engine.clock._now
        sender_name = sender.name
        channel = sender.channel
        entry = self._entries.get(sender_name)
        if entry is not None and entry.channel != channel:
            # Self-heal for RadioPorts that mutate a plain channel
            # attribute instead of calling retune().
            self.retune(sender_name, channel)
        if entry is None:
            # Unattached senders are legal (they just cannot receive);
            # with no epoch to key on, their links bypass every cache.
            tx_position = sender.current_position(now)
            tx_epoch = -1
        else:
            static = entry.static_pos
            if static is not None:
                tx_position = static
            else:
                tx_position = sender.current_position(now)
                last = entry.last_pos
                if tx_position is not last and tx_position != last:
                    # Mobile radios never appear in cached (static-only)
                    # delivery lists, so movement only bumps the epoch —
                    # invalidating cached link budgets through this radio
                    # — and leaves every warm delivery list valid.
                    entry.last_pos = tx_position
                    entry.epoch += 1
            tx_epoch = entry.epoch
        transmission = Transmission(
            sender=sender_name,
            frame=frame,
            start=now,
            duration=duration,
            power_dbm=power_dbm,
            rate_mbps=rate_mbps,
            channel=channel,
            tx_position=tx_position,
        )
        self.transmission_count += 1
        if self._tx_observers:
            for observer in self._tx_observers:
                observer(transmission)
        ctr = self._ctr_tx
        if ctr is not None:
            ctr.value += 1
        ctr = self._ctr_airtime
        if ctr is not None:
            ctr.value += duration
        # Half duplex: transmitting deafens the sender's own receiver.
        self._transmitting[sender_name] = max(
            self._transmitting.get(sender_name, 0.0), now + duration
        )
        for span in self._live:
            k = span._on_air(sender_name)
            if k >= 0:
                span.reasons[k] = CorruptionReason.RECEIVER_TRANSMITTING

        if self.trace is not None:
            self.trace.add(
                time=now,
                source=str(getattr(frame, "trace_source", lambda: sender_name)()),
                destination=str(getattr(frame, "trace_destination", lambda: "?")()),
                info=str(getattr(frame, "trace_info", lambda: type(frame).__name__)()),
                channel=channel,
                length=getattr(frame, "wire_length", lambda: None)(),
            )

        if self._channels.get(channel):
            self._deliver(
                engine,
                now,
                sender_name,
                tx_epoch,
                tx_position,
                channel,
                power_dbm,
                transmission,
                duration,
            )
        return transmission

    # ------------------------------------------------------------------
    # Delivery (struct-of-arrays)
    # ------------------------------------------------------------------
    def _channel_soa(self, channel: int) -> _ChannelSoA:
        """The channel's SoA mirror, rebuilt iff the bucket version moved."""
        version = self._bucket_version.get(channel, 0)
        soa = self._soa_cache.get(channel)
        if soa is None or soa.version != version:
            soa = _ChannelSoA(
                version,
                self._channels.get(channel) or [],
                self.noise_floor_dbm,
                self.frequency_hz,
            )
            self._soa_cache[channel] = soa
        return soa

    def _link_budget(
        self,
        sender_name: str,
        tx_epoch: int,
        tx_position: Position,
        rx: _RadioEntry,
        rx_position: Position,
    ) -> Tuple[float, float]:
        """``(path loss dB, propagation delay s)`` of one link.

        Looked up in, or computed into, the epoch-keyed link-budget cache
        (FIFO-capped); ``tx_epoch < 0`` — an unattached sender — bypasses
        the cache and the hit/miss tallies.  Under the default free-space
        model the loss and the delay share one ``distance_to()`` result,
        bit-identical to ``free_space_path_loss_db`` plus
        ``propagation_delay_to``.
        """
        if tx_epoch >= 0:
            key = (sender_name, rx.name)
            cached = self._link_cache.get(key)
            if cached is not None and cached[0] == tx_epoch and cached[1] == rx.epoch:
                self.link_cache_hits += 1
                return cached[2], cached[3]
        if self._free_space:
            distance = tx_position.distance_to(rx_position)
            wavelength = 299_792_458.0 / self.frequency_hz
            loss = 20.0 * math.log10(4.0 * math.pi * max(distance, 1.0) / wavelength)
            delay = distance / 299_792_458.0
        else:
            loss = self._path_loss(tx_position, rx_position)
            delay = tx_position.propagation_delay_to(rx_position)
        if tx_epoch >= 0:
            cache = self._link_cache
            if len(cache) >= LINK_CACHE_MAX_ENTRIES:
                cache.pop(next(iter(cache)))
            cache[key] = (tx_epoch, rx.epoch, loss, delay)
            self.link_cache_misses += 1
        return loss, delay

    def _fer_probability(self, snr: float, rate: float, length: int) -> float:
        """Frame-error probability, memoized per ``(snr, rate, length)``.

        The FER model is assumed pure (all built-ins are); cached link
        budgets make SNR values repeat exactly.
        """
        key = (snr, rate, length)
        probability = self._fer_cache.get(key)
        if probability is None:
            probability = self._fer(snr, rate, length)
            fer_cache = self._fer_cache
            if len(fer_cache) >= LINK_CACHE_MAX_ENTRIES:
                fer_cache.pop(next(iter(fer_cache)))
            fer_cache[key] = probability
        return probability

    def _cache_delivery(self, key: Tuple[str, int, float], delivery: tuple) -> None:
        delivery_cache = self._delivery_cache
        if len(delivery_cache) >= LINK_CACHE_MAX_ENTRIES:
            delivery_cache.pop(next(iter(delivery_cache)))
        delivery_cache[key] = delivery

    def _patch_delivery(
        self,
        cached: tuple,
        version: int,
        channel: int,
        sender_name: str,
        tx_epoch: int,
        tx_position: Position,
        power_dbm: float,
    ) -> Optional[tuple]:
        """Advance a stale delivery list by replaying the bucket changelog.

        Returns the re-cached 11-tuple, or ``None`` when the changelog
        cannot cover the gap (poisoned, trimmed, or absent) and a full
        cold resolution is required.  The replay produces exactly the
        list a cold resolution would: additions get the same scalar link
        budget through the same cache and the same ``(delay, attach
        seq)`` binary insert the mobile merge uses (unique seqs make
        that order identical to the full sort), removals and addressing
        updates locate members by attachment seq.  Only static members
        matter — mobiles are re-resolved every transmission — and only
        attach/detach/addressing mutations are replayable; position and
        channel changes poison the log.
        """
        log = self._bucket_log.get(channel)
        if log is None:
            return None
        idx = cached[0] + 1 - log[0][0]
        if idx < 0:
            return None
        delays = list(cached[2])
        seqs = list(cached[3])
        radios = list(cached[4])
        rssis = list(cached[5])
        snrs = list(cached[6])
        macs = list(cached[8])
        lanes = list(cached[9])
        noise_floor = self.noise_floor_dbm
        for _v, op, e in log[idx:]:
            if e.name == sender_name or e.static_pos is None:
                continue  # the sender itself / a mobile: never listed
            if op == "+":
                radio = e.radio
                loss, delay = self._link_budget(
                    sender_name, tx_epoch, tx_position, e, e.static_pos
                )
                rssi = power_dbm - loss
                if rssi < radio.rx_sensitivity_dbm:
                    continue
                seq = e.seq
                lo, hi = 0, len(delays)
                while lo < hi:
                    mid = (lo + hi) // 2
                    if delays[mid] < delay or (
                        delays[mid] == delay and seqs[mid] < seq
                    ):
                        lo = mid + 1
                    else:
                        hi = mid
                delays.insert(lo, delay)
                seqs.insert(lo, seq)
                radios.insert(lo, radio)
                rssis.insert(lo, rssi)
                snrs.insert(lo, rssi - noise_floor)
                rx_mac = getattr(radio, "rx_mac_u64", None)
                macs.insert(lo, _NO_MAC if rx_mac is None else rx_mac)
                lanes.insert(lo, getattr(radio, "lanes", _NO_LANES))
            else:
                try:
                    k = seqs.index(e.seq)
                except ValueError:
                    continue  # was out of range for this sender
                if op == "-":
                    del delays[k]
                    del seqs[k]
                    del radios[k]
                    del rssis[k]
                    del snrs[k]
                    del macs[k]
                    del lanes[k]
                else:  # "m": receive MAC / lane list changed
                    radio = e.radio
                    rx_mac = getattr(radio, "rx_mac_u64", None)
                    macs[k] = _NO_MAC if rx_mac is None else rx_mac
                    lanes[k] = getattr(radio, "lanes", _NO_LANES)
        mac_arr = np.array(macs, dtype=np.uint64) if len(macs) > 64 else None
        fresh = (
            version,
            tx_epoch,
            delays,
            seqs,
            radios,
            rssis,
            snrs,
            {},
            macs,
            lanes,
            mac_arr,
        )
        self._cache_delivery((sender_name, channel, power_dbm), fresh)
        return fresh

    def _resolve_static(
        self,
        version: int,
        sender_name: str,
        tx_epoch: int,
        tx_position: Position,
        channel: int,
        power_dbm: float,
    ) -> tuple:
        """Cold resolution of the in-range *static* receivers, as an 11-tuple.

        One vectorized range gate over the channel's SoA mirror picks the
        candidate receivers; the survivors get the exact scalar link
        budget (numpy's transcendental kernels are 1 ULP off libm on some
        inputs, and seeded traces are bit-compared, so the scalar model
        calls stay authoritative).  One ``np.lexsort`` (a tuple sort for
        small lists) orders the list by (delay, attach seq).
        """
        soa = self._channel_soa(channel)
        soa_macs = soa.mac_list
        if soa.count and self._free_space:
            # Vectorized range gate.  In exact arithmetic the
            # free-space in-range test  power − loss(d) ≥ sens  is
            # d ≤ dmax = (λ/4π)·10^((power−sens)/20)  with loss
            # clamped below 1 m (clamping dmax up to 1 m only admits
            # extra candidates).  Both sides here are float-rounded,
            # so the comparison gets ~1e-9 relative + absolute slack
            # — about a million ULPs wider than the rounding error —
            # and survivors are re-checked with the exact scalar
            # math below: admitting extra is wasted work, never a
            # wrong verdict, and nothing the scalar math accepts can
            # be excluded.  Mobiles carry NaN positions, and NaN
            # comparisons are False, so they fall out automatically
            # (they are re-resolved per transmission anyway).
            diff = soa.xyz - (tx_position.x, tx_position.y, tx_position.z)
            d2 = np.einsum("ij,ij->i", diff, diff)
            entries = soa.entries
            candidates = [
                (entries[j], soa_macs[j])
                for j in np.flatnonzero(d2 <= soa.limit2(power_dbm))
            ]
        else:
            candidates = [
                (e, soa_macs[j])
                for j, e in enumerate(soa.entries)
                if e.static_pos is not None
            ]
        c_targets: List[tuple] = []
        for rx, rx_mac in candidates:
            if rx.name == sender_name:
                continue
            radio = rx.radio
            loss, delay = self._link_budget(
                sender_name, tx_epoch, tx_position, rx, rx.static_pos
            )
            rssi = power_dbm - loss
            if rssi < radio.rx_sensitivity_dbm:
                continue
            c_targets.append(
                (delay, rx.seq, radio, rssi, rx_mac, getattr(radio, "lanes", _NO_LANES))
            )
        n = len(c_targets)
        mac_arr = None
        if n <= 64:
            # Tuple sort: identical (delay, seq) order to the lexsort
            # below (seqs are unique so later fields never compare),
            # and cheaper than five numpy round-trips at typical
            # neighbourhood sizes.
            c_targets.sort()
            delays = []
            seqs = []
            radios = []
            rssis = []
            snrs = []
            macs = []
            lanes = []
            noise_floor = self.noise_floor_dbm
            for delay, seq, radio, rssi, rx_mac, rx_lanes in c_targets:
                delays.append(delay)
                seqs.append(seq)
                radios.append(radio)
                rssis.append(rssi)
                snrs.append(rssi - noise_floor)
                macs.append(rx_mac)
                lanes.append(rx_lanes)
        else:
            c_delays, c_seqs, c_radios, c_rssis, c_macs, c_lanes = zip(*c_targets)
            delay_arr = np.asarray(c_delays)
            order = np.lexsort((np.asarray(c_seqs), delay_arr))
            delays = delay_arr[order].tolist()
            seqs = [c_seqs[k] for k in order]
            radios = [c_radios[k] for k in order]
            rssi_arr = np.asarray(c_rssis)[order]
            rssis = rssi_arr.tolist()
            # IEEE-exact: elementwise double subtraction rounds
            # identically to the scalar `rssi - noise_floor`.
            snrs = (rssi_arr - self.noise_floor_dbm).tolist()
            macs = [c_macs[k] for k in order]
            lanes = [c_lanes[k] for k in order]
            # Large static lists get a numpy view of the MAC column
            # so lane classification is one vectorized comparison.
            mac_arr = np.array(macs, dtype=np.uint64)
        return (
            version, tx_epoch, delays, seqs, radios, rssis, snrs, {}, macs, lanes, mac_arr
        )

    def _deliver(
        self,
        engine: Engine,
        now: float,
        sender_name: str,
        tx_epoch: int,
        tx_position: Position,
        channel: int,
        power_dbm: float,
        transmission: Transmission,
        duration: float,
    ) -> None:
        """Resolve and schedule a whole delivery list, struct-of-arrays style.

        Stage 1: the sender's cached static list on this channel at this
        power — warm as is, patched from the bucket changelog, or
        resolved cold (:meth:`_resolve_static`); an unattached sender
        (``tx_epoch < 0``) always resolves cold and caches nothing.

        Stage 2 (every transmission): frame-error probabilities are
        derived from the SNR array; mobile receivers are re-resolved and
        merge-inserted; the whole list is scheduled as one
        :class:`_ArrivalSpan` behind two ``EventBatch`` entries.
        """
        version = self._bucket_version.get(channel, 0)
        cached_delivery = None
        if tx_epoch >= 0:
            delivery_key = (sender_name, channel, power_dbm)
            cached_delivery = self._delivery_cache.get(delivery_key)
            if cached_delivery is not None:
                if cached_delivery[1] != tx_epoch:
                    cached_delivery = None
                elif cached_delivery[0] != version:
                    cached_delivery = self._patch_delivery(
                        cached_delivery,
                        version,
                        channel,
                        sender_name,
                        tx_epoch,
                        tx_position,
                        power_dbm,
                    )
            if cached_delivery is not None:
                self.link_cache_hits += len(cached_delivery[2])
        if cached_delivery is None:
            cached_delivery = self._resolve_static(
                version, sender_name, tx_epoch, tx_position, channel, power_dbm
            )
            if tx_epoch >= 0:
                self._cache_delivery(delivery_key, cached_delivery)
        delays = cached_delivery[2]
        seqs = cached_delivery[3]
        radios = cached_delivery[4]
        rssis = cached_delivery[5]
        snrs = cached_delivery[6]
        fer_lists = cached_delivery[7]
        macs = cached_delivery[8]
        lanes = cached_delivery[9]
        mac_arr = cached_delivery[10]
        fers: Optional[List[float]] = None
        if self._fer is not None:
            # Per-receiver frame-error probabilities for the static list,
            # derived through the (snr, rate, length) memo and cached on
            # the delivery entry per (rate, length), so a warm
            # transmission reuses the whole list.  The RNG draw that
            # applies a probability happens at the arrival end, in
            # arrival order.
            rx_cache = transmission.rx_cache
            if rx_cache is None:
                rx_cache = transmission.rx_cache = {}
            length = rx_cache.get("len")
            if length is None:
                getter = getattr(transmission.frame, "wire_length", None)
                length = (getter() or 0) if getter is not None else 0
                rx_cache["len"] = length
            rate = transmission.rate_mbps
            fers = fer_lists.get((rate, length))
            if fers is None:
                fer_probability = self._fer_probability
                fers = [fer_probability(snr, rate, length) for snr in snrs]
                if len(fer_lists) >= 8:
                    fer_lists.pop(next(iter(fer_lists)))
                fer_lists[(rate, length)] = fers
        mobiles = self._mobiles.get(channel)
        if mobiles:
            mobile_targets = []
            for rx in mobiles:
                if rx.name == sender_name:
                    continue
                radio = rx.radio
                rx_position = radio.current_position(now)
                last = rx.last_pos
                if rx_position is not last and rx_position != last:
                    rx.last_pos = rx_position
                    rx.epoch += 1
                loss, delay = self._link_budget(
                    sender_name, tx_epoch, tx_position, rx, rx_position
                )
                rssi = power_dbm - loss
                if rssi < radio.rx_sensitivity_dbm:
                    continue
                # MAC / lane capture happens at merge-insert below, so
                # out-of-range mobiles never pay for it.
                mobile_targets.append((delay, rx.seq, radio, rssi))
            if mobile_targets:
                # Merge-insert by (delay, attach_seq): identical order to
                # a concatenate-then-sort (seqs are unique, so the sort
                # never compares further fields).  The cached lists stay
                # untouched; the merged copies are span-private.
                delays = list(delays)
                seqs = list(seqs)
                radios = list(radios)
                rssis = list(rssis)
                snrs = list(snrs)
                macs = list(macs)
                lanes = list(lanes)
                mac_arr = None  # merged copies diverge from the cached array
                if fers is not None:
                    fers = list(fers)
                noise_floor = self.noise_floor_dbm
                for delay, seq, radio, rssi in mobile_targets:
                    lo, hi = 0, len(delays)
                    while lo < hi:
                        mid = (lo + hi) // 2
                        if delays[mid] < delay or (
                            delays[mid] == delay and seqs[mid] < seq
                        ):
                            lo = mid + 1
                        else:
                            hi = mid
                    delays.insert(lo, delay)
                    seqs.insert(lo, seq)
                    radios.insert(lo, radio)
                    rssis.insert(lo, rssi)
                    rx_mac = getattr(radio, "rx_mac_u64", None)
                    macs.insert(lo, _NO_MAC if rx_mac is None else rx_mac)
                    lanes.insert(lo, getattr(radio, "lanes", _NO_LANES))
                    snr = rssi - noise_floor
                    snrs.insert(lo, snr)
                    if fers is not None:
                        fers.insert(lo, self._fer_probability(snr, rate, length))
        if not delays:
            return
        span = _ArrivalSpan(
            self, transmission, radios, rssis, snrs, fers, macs, lanes, mac_arr
        )
        engine.post_batch(EventBatch(engine, span.begin_slice, now, 0.0, delays))
        engine.post_batch(EventBatch(engine, span.end_slice, now, duration, delays))

    # ------------------------------------------------------------------
    # Capture model
    # ------------------------------------------------------------------
    def _resolve_overlap(
        self, company: List[Tuple[_ArrivalSpan, int]], span: _ArrivalSpan, i: int
    ) -> None:
        """Apply the capture model between arrival ``i`` of ``span`` and
        the ``(span, index)`` arrivals already on its receiver's air."""
        live = []
        strongest = -math.inf
        for other in company:
            other_span, j = other
            if other_span.reasons[j] is not None:
                continue
            rssi = other_span.rssis[j]
            live.append(other)
            if rssi > strongest:
                strongest = rssi
        if not live:
            return
        new_rssi = span.rssis[i]
        if new_rssi >= strongest + self.capture_threshold_db:
            for other, j in live:
                other.reasons[j] = CorruptionReason.CAPTURED_BY_STRONGER
        elif new_rssi <= strongest - self.capture_threshold_db:
            span.reasons[i] = CorruptionReason.LOCKED_ON_STRONGER
        else:
            span.reasons[i] = CorruptionReason.COLLISION
            for other, j in live:
                other.reasons[j] = CorruptionReason.COLLISION
