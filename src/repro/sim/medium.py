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
per attached radio), so the medium keeps three structures that make the
common city-scale case — thousands of *stationary* radios — cheap:

* a **per-channel radio index**: radios are bucketed by channel, in
  attachment order, so a transmission only ever touches same-channel
  radios.  Radios that retune must notify the medium (:meth:`retune`);
  :class:`~repro.phy.radio.Radio` does this automatically through its
  ``channel`` property.
* a **pair-budget memo** on the radio entries: path loss and
  propagation delay of each evaluated link, kept while both radios stay
  attached and in place.  Under the default free-space model the
  distance is bit-symmetric, so one evaluation serves both directions
  and is stored on both endpoints.  A detach, a reposition, or a mobile
  radio (``static_position is None``, re-read every transmission)
  observed somewhere new drops that radio's budgets on both ends.
* **live delivery lists**: each attached sender keeps, per transmit
  power, the in-range *static* receivers of its channel in arrival
  order.  Under free space the walk that pushes a static radio into
  its neighbours' lists at attach builds its own at ``tx_power_dbm``;
  any other list is resolved cold at its first transmission.  From
  then on ``attach``, ``detach``, ``retune``, ``reposition`` and
  ``note_addressing_changed`` push each change straight into the lists
  it affects.  A sender's lists die with it, and with any move of it.

The memo requires ``path_loss_db`` to be a pure function of the two
positions, which all built-in models are.  A *stateful* model (e.g.
:class:`~repro.channel.propagation.ShadowedPathLoss`, which draws a
shadowing offset the first time it sees a link) is evaluated once per
link while the link is memoized, and the medium keeps that first budget
even after the model evicted the link.  The order in which the medium
first evaluates links — at a cold resolution, at an attach push, or at
an ad-hoc query — is not part of its contract: a stateful model may
deal its draws to different links from one revision to the next.

Delivery
--------
Every transmission takes one delivery path:

* a cold resolution (:meth:`Medium._resolve_static`, the walk an
  attach push takes too) goes through the channel bucket in attachment
  order behind a range gate (free-space model only: a conservative
  squared-distance bound, :meth:`Medium._range2`, so every receiver the
  exact scalar math could accept passes it), takes the survivors'
  exact scalar link budgets and sorts them by (delay, attach seq);
* a live list (:class:`_Delivery`) holds **parallel columns** (delays,
  attach seqs, radios, RSSIs, MACs, lane lists) rather than per-receiver
  tuples, so a warm transmission hands them to its arrivals wholesale;
  a push into a list that a transmission already handed out copies it
  first, so arrivals in flight never see it change;
* frame-error probabilities are derived per list from those columns,
  and all arrivals are folded into one :class:`_ArrivalSpan` carried by
  two :class:`~repro.sim.engine.EventBatch` heap entries (arrival
  starts and arrival ends), which drain in slices through the reception
  lanes.

An unattached sender (legal: it just cannot receive) has no entry to
keep lists or budgets on, so its delivery list is resolved the same way
every time and kept nowhere.

Per-pair path loss and propagation delay always come from the same
scalar model calls.  Two checks pin the behaviour:
``tests/test_golden_digests.py`` compares seeded scenario runs against
checked-in sha256 digests of their traces and outputs, and a hypothesis
fuzzer (``tests/test_medium_differential.py``) runs random small worlds,
plus scripted dense and churning fields, against
``tests/reference_medium.py``, a cache-free per-receiver loop with one
engine event per arrival instant.

One contract the lists add for :class:`RadioPort` implementors:
``rx_sensitivity_dbm`` must stay constant while the radio is attached
(detach/re-attach to change it) — live lists keep the in-range verdicts
made with it.
"""

from __future__ import annotations

import enum
import math
import zlib
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from operator import attrgetter
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
        and their link budgets are memoized for as long as both ends
        stay attached and in place.
    ``channel`` **changes** must be reported via
        :meth:`Medium.retune`; a radio that silently mutates a plain
        ``channel`` attribute after attaching will be indexed under its
        old channel.  :class:`~repro.phy.radio.Radio` wraps ``channel``
        in a property that notifies its medium automatically.
    ``rx_mac_u64`` / ``lanes``
        The receive MAC as a 48-bit integer and the lane list
        ``[mask, fcs_fail, not_for_me, group, sources]`` (see
        :data:`LANE_FCS_FAIL`), read when a radio joins a delivery list.
        Arrivals whose lane bit is set in ``lanes[0]`` are tallied in
        the list instead of handed to ``on_reception``.  Replacing
        either attribute must be reported via
        :meth:`Medium.note_addressing_changed`; the mask and the source
        set may change in place at any time.
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
    """An on-air frame as the medium sees it."""

    sender: str
    frame: object
    start: float
    duration: float
    power_dbm: float
    rate_mbps: float
    channel: int
    tx_position: Position

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
#: ``[mask, fcs_fail, not_for_me, group, sources]`` (``Radio.lanes``).
#: Bit ``c`` of ``mask`` is the receiver's promise that an arrival in
#: lane ``c`` has no effect beyond one count in the matching tally, so
#: the medium bumps that tally and builds no ``Reception``.  A clear bit
#: sends the arrival down the scalar path.
LANE_FCS_FAIL = 0  # frame corrupted (collision, half-duplex, FER coin)
LANE_NOT_FOR_ME = 1  # clean unicast addressed to a different MAC
LANE_GROUP = 2  # clean group-addressed frame without a keyed lane (below)
#: Clean group-addressed frames of each ``(ftype, subtype)`` (2-bit type,
#: 4-bit subtype) have a lane of their own, so a receiver can promise
#: passivity per frame type: see :func:`group_lane`.
_GROUP_LANE_BASE = 3
#: Clean group-addressed probe requests for any network (empty SSID, the
#: frame's ``is_wildcard_probe`` hook) have a lane apart from the other
#: probe requests: an AP that ignores them can promise passivity there
#: and still answer probes for its own SSID.
LANE_WILDCARD_PROBE = _GROUP_LANE_BASE + 64
#: Clean non-control frames whose transmitter (the frame's ``src_u64``
#: hook) is in the receiver's source set (slot :data:`SOURCE_SET`): the
#: sources a promiscuous receiver's sniffer does nothing for.  Tested
#: only for arrivals that no other lane took, and tallied as
#: :data:`TALLY_NOT_FOR_ME`, which at a promiscuous receiver is the same
#: scalar effect.
LANE_KNOWN_SOURCE = LANE_WILDCARD_PROBE + 1
#: Every group lane, keyed or not.
GROUP_LANES_MASK = (
    (1 << LANE_GROUP)
    | (((1 << 64) - 1) << _GROUP_LANE_BASE)
    | (1 << LANE_WILDCARD_PROBE)
)

#: Tally slots of a lane list (slot 0 is the mask).
TALLY_FCS_FAIL = 1
TALLY_NOT_FOR_ME = 2
TALLY_GROUP = 3
#: Slot of a lane list holding the set :data:`LANE_KNOWN_SOURCE` tests
#: (read only while that lane's bit is set).
SOURCE_SET = 4

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

#: Sentinel for "this radio advertises no receive MAC" in the MAC
#: mirrors; no 48-bit destination can ever equal it.
_NO_MAC = 0xFFFF_FFFF_FFFF_FFFF

#: Group/multicast bit of a 48-bit MAC viewed as a big-endian integer
#: (the LSB of the first address byte).
_GROUP_BIT = 1 << 40


class _ArrivalSpan:
    """Every arrival of one transmission, as parallel columns.

    The medium resolves a transmission's whole delivery list up front —
    parallel lists of radios, RSSIs and frame-error
    probabilities — and schedules *one* span behind two
    :class:`~repro.sim.engine.EventBatch` heap entries.  The span is the
    *slice handler* of both (``begin_slice`` / ``end_slice``): each takes
    over the engine's drain for a contiguous run of due arrivals, and the
    end slice routes each arrival through the lane pre-filter before any
    :class:`Reception` exists.  Lanes are classified lazily, once per
    span, from the frame's destination address (``dest_u64``) against
    the per-receiver MAC mirror carried in ``macs``; each arrival's lane
    is then tested against its receiver's published lane list
    (``lanes``).

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
        "fers",
        "reasons",
        # Implicit air state (see the class docstring).
        "begun",
        "ended",
        "orphans",
        "index",
        "detaches",
        # Reception lane state: per-receiver MAC mirror (48-bit ints,
        # _NO_MAC when unknown), per-receiver lane lists (see
        # LANE_FCS_FAIL), and the lazily computed verdicts.
        "macs",
        "lanes",
        "lane_mode",
        "for_me",
        "group_bit",
        "source",
        # Per-batch absolute due times (`base + offset + shift`, computed
        # with the engine's exact left-associated float adds), built the
        # first time a window stops short of the batch's last item, so
        # window boundaries are bisections instead of per-item arithmetic.
        "due_begin",
        "due_end",
    )

    def __init__(
        self,
        medium: "Medium",
        transmission: Transmission,
        radios: List[RadioPort],
        rssis: List[float],
        fers: Optional[List[float]],
        macs: List[int],
        lanes: list,
    ) -> None:
        self.medium = medium
        self.transmission = transmission
        self.radios = radios
        self.rssis = rssis
        self.fers = fers
        self.reasons: List[Optional[CorruptionReason]] = [None] * len(radios)
        self.begun = 0
        self.ended = 0
        self.orphans: Optional[set] = None
        self.index: Optional[Dict[str, int]] = None
        # Every receiver is attached now; only a later detach can change
        # that, so end slices check names only once the count moves.
        self.detaches = medium.detach_count
        self.macs = macs
        self.lanes = lanes
        self.lane_mode = _LANES_UNSET
        self.for_me: Optional[List[bool]] = None
        self.group_bit = 0
        self.source = -1  # the frame's src_u64, computed on first need
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
        (:func:`group_lane`), or a wildcard probe request's in
        :data:`LANE_WILDCARD_PROBE`; a unicast destination is compared
        against the receiver-MAC mirror, splitting the span into for-me
        (scalar) and ``LANE_NOT_FOR_ME`` arrivals.
        """
        mode = _LANES_SCALAR
        if self.medium._csi_model is None:
            frame = self.transmission.frame
            hook = getattr(frame, "dest_u64", None)
            dest = hook() if hook is not None else None
            if dest is not None:
                if dest & _GROUP_BIT:
                    ftype = getattr(frame, "ftype", None)
                    if ftype is None:
                        lane = LANE_GROUP
                    elif frame.is_wildcard_probe():
                        lane = LANE_WILDCARD_PROBE
                    else:
                        lane = group_lane(ftype, frame.subtype)
                    self.group_bit = 1 << lane
                    mode = _LANES_GROUP
                else:
                    self.for_me = [m == dest for m in self.macs]
                    mode = _LANES_UNICAST
        self.lane_mode = mode

    def _known_source(self, sources) -> bool:
        """True if the frame's transmitter is in ``sources``."""
        source = self.source
        if source == -1:
            hook = getattr(self.transmission.frame, "src_u64", None)
            source = self.source = hook() if hook is not None else None
        return source is not None and source in sources

    def _hand_up(self, i: int, fcs_ok: bool, reason) -> None:
        """Scalar path for arrival ``i``: build the Reception and hand it up."""
        transmission = self.transmission
        radio = self.radios[i]
        rssi = self.rssis[i]
        medium = self.medium
        now = medium.engine.clock._now
        csi = None
        csi_model = medium._csi_model
        if csi_model is not None:
            csi = csi_model(transmission.sender, radio.name, now)
        while_transmitting = reason is CorruptionReason.RECEIVER_TRANSMITTING
        radio.on_reception(
            Reception(
                transmission.frame,
                transmission,
                rssi,
                rssi - medium.noise_floor_dbm,
                transmission.start,
                now,
                fcs_ok,
                (reason is not None) and not while_transmitting,
                while_transmitting,
                csi,
            )
        )

    def _window(self, batch, end: bool, i: int, n: int, engine) -> int:
        """End index of the contiguous due run starting at ``i``.

        Encodes the engine drain's yield conditions: items process while
        they are within the run limit and strictly before the next heap
        event (none of which can change between items unless an upcall
        runs).  When the batch's last item meets both and the run is not
        stopped, the whole remainder is due and no per-item due time is
        needed.  Otherwise the batch's due times are built once
        (``due_end`` / ``due_begin``, by ``end``) and the boundary is two
        bisections over them.  The first item is always due — the engine
        popped the batch at its time — and exact-time ties with the last
        processed item always process, exactly as
        :class:`~repro.sim.engine.EventBatch` specifies for slice handlers.
        """
        due = self.due_end if end else self.due_begin
        heap = engine._heap
        if due is None:
            offsets = batch.offsets
            base = batch.base
            shift = batch.shift
            if not engine._stopped:
                last = base + offsets[-1] + shift
                if last <= engine._run_limit and not (heap and last >= heap[0][0]):
                    return n
            due = [base + off + shift for off in offsets]
            if end:
                self.due_end = due
            else:
                self.due_begin = due
        if engine._stopped:
            j = i + 1
        else:
            j = bisect_right(due, engine._run_limit, i, n)
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
        base = batch.base
        shift = batch.shift
        medium = self.medium
        j = self._window(batch, False, i, n, medium.engine)
        reasons = self.reasons
        transmitting = medium._transmitting
        if transmitting:
            start = base + offsets[i] + shift
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
                    if k is not None and i <= k < j and tx_end > base + offsets[k] + shift:
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
        clock = medium.engine.clock
        t = base + offsets[j - 1] + shift
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
        produces.  A clean arrival no lane bit took is tested against
        its receiver's source set before it falls back, if its mask has
        :data:`LANE_KNOWN_SOURCE`.  A span with no fast lanes (a CSI
        model installed, or an unparseable frame) takes the same loop
        with every lane bit clear, so every attached receiver gets its
        upcall.
        """
        if self.lane_mode == _LANES_UNSET:
            self._classify()
        lane_mode = self.lane_mode
        offsets = batch.offsets
        i = batch.index
        n = len(offsets)
        base = batch.base
        shift = batch.shift
        medium = self.medium
        engine = medium.engine
        clock = engine.clock
        heap = engine._heap
        limit = engine._run_limit
        radios = self.radios
        reasons = self.reasons
        fers = self.fers
        attached = medium._entries
        lanes = self.lanes
        for_me = self.for_me
        fail_bit = 1 << LANE_FCS_FAIL
        source_bit = 1 << LANE_KNOWN_SOURCE
        if lane_mode == _LANES_GROUP:
            ok_bit = self.group_bit
            ok_slot = TALLY_GROUP
        elif lane_mode == _LANES_UNICAST:
            ok_bit = 1 << LANE_NOT_FOR_ME
            ok_slot = TALLY_NOT_FOR_ME
        else:  # no fast lanes: no mask bit can match
            ok_bit = fail_bit = source_bit = 0
            ok_slot = TALLY_GROUP
        ctr_delivered = medium._ctr_delivered
        ctr_dropped = medium._ctr_dropped
        n_delivered = 0
        n_dropped = 0
        rng_draw = medium._rng_draw
        first = True
        while True:
            if first:
                first = False
            else:
                t = base + offsets[i] + shift
                if t > clock._now and (
                    t > limit
                    or engine._stopped
                    or (heap and t >= heap[0][0])
                ):
                    break
            j = self._window(batch, True, i, n, engine)
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
                    rx_lanes = lanes[idx]
                    if (for_me is None or not for_me[idx]) and rx_lanes[0] & ok_bit:
                        rx_lanes[ok_slot] += 1
                        continue
                    if rx_lanes[0] & source_bit and self._known_source(
                        rx_lanes[SOURCE_SET]
                    ):
                        rx_lanes[TALLY_NOT_FOR_ME] += 1
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
                t = base + offsets[idx] + shift
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
                t = base + offsets[j - 1] + shift
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


#: Sort key of attach-ordered entry lists (channel buckets, mobiles).
_BY_SEQ = attrgetter("seq")


def _arrival_slot(delays: List[float], seqs: List[int], delay: float, seq: int) -> int:
    """Index at which an arrival sorts into a delivery list by (delay, attach seq)."""
    k = bisect_left(delays, delay)
    n = len(delays)
    while k < n and delays[k] == delay and seqs[k] < seq:
        k += 1  # exact delay ties are rare
    return k


def _addressing(radio: RadioPort) -> Tuple[int, list]:
    """A receiver's MAC mirror value and lane list, as delivery lists hold them."""
    mac = getattr(radio, "rx_mac_u64", None)
    return (_NO_MAC if mac is None else mac), getattr(radio, "lanes", _NO_LANES)


class _RadioEntry:
    """Per-radio index record: bucket membership, pair budgets, delivery lists.

    ``links`` memoizes path loss and delay per peer entry: ``links[peer]``
    is the ``(loss_db, delay_s)`` budget of the link from this radio to
    ``peer``.  Under free space the distance is bit-symmetric, so one
    tuple is stored on both endpoints, and only between static radios:
    a mobile radio's budgets are recomputed with the same formula and
    it keeps no lists (a moving rig would drop them at its next move).
    Under a custom model the peer keeps a ``None`` marker instead, so
    either endpoint can drop the pair.  ``lists`` maps a transmit power
    to this sender's live :class:`_Delivery` on its channel; under free
    space a static radio gets the one at its ``tx_power_dbm`` when it
    joins the channel.  Both die with the entry (detach), and with a
    move (reposition, or a mobile radio observed elsewhere).
    """

    __slots__ = ("radio", "name", "seq", "channel", "static_pos", "last_pos", "links", "lists")

    def __init__(self, radio: RadioPort, name: str, seq: int, channel: int) -> None:
        self.radio = radio
        self.name = name
        self.seq = seq  # attachment order; buckets stay sorted by it
        self.channel = channel
        self.static_pos: Optional[Position] = getattr(radio, "static_position", None)
        self.last_pos: Optional[Position] = self.static_pos
        self.links: Dict["_RadioEntry", Optional[Tuple[float, float]]] = {}
        self.lists: Dict[float, "_Delivery"] = {}

    def forget(self) -> None:
        """Drop this radio's pair budgets, on both endpoints, and its lists."""
        for peer in self.links:
            if peer is not self:
                peer.links.pop(self, None)
        self.links = {}
        self.lists = {}

    def observe(self, position: Position) -> None:
        """Record a mobile radio's current position; a move drops its
        budgets and lists."""
        last = self.last_pos
        if position is not last and position != last:
            self.last_pos = position
            if self.links or self.lists:
                self.forget()


class _Delivery:
    """One sender's live delivery list on its channel at one transmit power.

    Parallel columns over the in-range *static* receivers, in arrival
    order (delay, then attach seq): delays, attach seqs, radios, RSSIs,
    MAC mirror values and lane lists.  ``fers`` memoizes the
    frame-error column per ``(rate, length)``.

    The medium pushes every attach, detach, retune, reposition and
    addressing change into the lists it affects, column by column
    (:meth:`Medium._push_in`, :meth:`Medium._pull_out`).  A transmission
    hands the columns to its :class:`_ArrivalSpan` and ``EventBatch`` by
    reference and marks them ``shared``, so the first push after it
    copies them (:meth:`writable`): at most one copy per transmission,
    and the arrivals in flight never see a list change under them.
    """

    __slots__ = (
        "power", "delays", "seqs", "radios", "rssis", "macs", "lanes",
        "fers", "shared",
    )

    def __init__(
        self,
        power: float,
        delays: List[float],
        seqs: List[int],
        radios: List[RadioPort],
        rssis: List[float],
        macs: List[int],
        lanes: list,
    ) -> None:
        self.power = power
        self.delays = delays
        self.seqs = seqs
        self.radios = radios
        self.rssis = rssis
        self.macs = macs
        self.lanes = lanes
        self.fers: Dict[Tuple[float, int], List[float]] = {}
        self.shared = False

    def writable(self) -> bool:
        """Prepare the columns for a push; True when they had to be copied.

        Resets the derived ``fers`` memo (a span keeps the columns it
        already read).
        """
        if self.fers:
            self.fers = {}
        if not self.shared:
            return False
        self.shared = False
        self.delays = list(self.delays)
        self.seqs = list(self.seqs)
        self.radios = list(self.radios)
        self.rssis = list(self.rssis)
        self.macs = list(self.macs)
        self.lanes = list(self.lanes)
        return True


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
        (the medium memoizes it per pair of attached radios).
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
        #: Detaches so far.  An arrival span built since the last one
        #: knows all its receivers are attached and skips the per-arrival
        #: name lookup (see :meth:`_ArrivalSpan.end_slice`).
        self.detach_count = 0
        #: Attached radios by name, in attachment order.
        self._entries: Dict[str, _RadioEntry] = {}
        self._channels: Dict[int, List[_RadioEntry]] = {}
        self._attach_seq = 0
        #: Per-channel list of *mobile* member entries (static_pos None),
        #: re-read every transmission to detect movement.
        self._mobiles: Dict[int, List[_RadioEntry]] = {}
        #: Link-budget memo tallies: a delivery-list entry reused or a
        #: budget found in the pair memo is a hit, a budget an attached
        #: radio evaluates (at a transmission or at its attach) a miss.
        self.link_cache_hits = 0
        self.link_cache_misses = 0
        #: Pushes that had to copy a delivery list first, because a
        #: transmission since the last copy handed it to its arrival span
        #: (:meth:`_Delivery.writable`).  A plain attribute like
        #: ``contended_starts``.
        self.held_copies = 0
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
        #: The range gate of cold resolutions and attach pushes solves the
        #: default free-space model in the distance domain; a custom model
        #: disables it (both then walk every static radio of the bucket).
        #: ``_path_loss`` is fixed at construction, so this flag cannot go
        #: stale.
        self._free_space = path_loss_db is None
        #: (power_dbm, sensitivity_dbm) -> squared free-space range with
        #: slack (:meth:`_range2`).
        self._reach2: Dict[Tuple[float, float], float] = {}
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
        if name in self._entries:
            raise ValueError(f"radio {name!r} already attached")
        self._orphan(name)
        entry = _RadioEntry(radio, name, self._attach_seq, int(radio.channel))
        self._attach_seq += 1
        self._entries[name] = entry
        # Attach sequence numbers only grow, so appending keeps each
        # bucket sorted by attachment order — the iteration order the
        # pre-index medium had (dict insertion order filtered by channel).
        self._channels.setdefault(entry.channel, []).append(entry)
        if entry.static_pos is None:
            self._mobiles.setdefault(entry.channel, []).append(entry)
        else:
            self._push_in(entry)

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
        """Update delivery lists after ``radio_name`` changed its receive
        MAC or its lane list.

        An :class:`~repro.mac.ack_engine.AckEngine` publishes its MAC
        (``rx_mac_u64``) and a fresh lane list (``lanes``) onto the radio
        *after* the radio attached, so every live list that already
        holds the radio gets both written in.  Lane *masks* change in
        place inside the list, so they need no notice.
        """
        entry = self._entries.get(radio_name)
        if entry is None:
            return
        mac, lanes = _addressing(entry.radio)
        for delivery, k in self._holding(entry):
            self.held_copies += delivery.writable()
            delivery.macs[k] = mac
            delivery.lanes[k] = lanes

    def detach(self, radio_name: str) -> None:
        self.detach_count += 1
        entry = self._entries.pop(radio_name, None)
        if entry is not None:
            self._pull_out(entry)
            entry.forget()
            self._channels[entry.channel].remove(entry)
            if entry.static_pos is None:
                self._mobiles[entry.channel].remove(entry)
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
        setter.  The radio keeps its attachment order in the new bucket,
        leaves the lists of the old channel and joins those of the new
        one; its own lists served the old channel and go.
        """
        entry = self._entries.get(radio_name)
        if entry is None:
            return
        channel = int(channel)
        if entry.channel == channel:
            return
        self._pull_out(entry)
        entry.lists = {}
        old_channel = entry.channel
        self._channels[old_channel].remove(entry)
        mobile = entry.static_pos is None
        if mobile:
            self._mobiles[old_channel].remove(entry)
        entry.channel = channel
        # Insert preserving attachment order (retunes are rare; scans hot).
        insort(self._channels.setdefault(channel, []), entry, key=_BY_SEQ)
        if mobile:
            insort(self._mobiles.setdefault(channel, []), entry, key=_BY_SEQ)
        else:
            self._push_in(entry)

    def reposition(
        self, radio_name: str, static: Optional[Position]
    ) -> None:
        """Re-classify a radio whose position *provider* was replaced.

        ``static`` is the new fixed position, or ``None`` if the radio
        became mobile.  The radio leaves every delivery list, drops its
        pair budgets and its own lists, and — if static — is pushed back
        into the lists it now reaches; mobility-tracking membership is
        kept in sync.  No-op when unattached.
        :class:`~repro.phy.radio.Radio` calls this from its ``_position``
        setter, so code that swaps a radio's provider mid-simulation
        (e.g. the localization attack walking its dongle between anchors)
        never observes stale budgets.
        """
        entry = self._entries.get(radio_name)
        if entry is None:
            return
        self._pull_out(entry)
        entry.forget()
        was_mobile = entry.static_pos is None
        entry.static_pos = static
        entry.last_pos = static
        if static is None:
            if not was_mobile:
                insort(self._mobiles.setdefault(entry.channel, []), entry, key=_BY_SEQ)
        else:
            if was_mobile:
                self._mobiles[entry.channel].remove(entry)
            self._push_in(entry)

    # ------------------------------------------------------------------
    # Pushes into live delivery lists
    # ------------------------------------------------------------------
    def _push_in(self, entry: _RadioEntry) -> None:
        """Insert static ``entry`` into every live list on its channel it is
        in range of and, under free space, build its own list at
        ``tx_power_dbm`` (receivers that never send included), in one
        walk (:meth:`_resolve_static`).  Without one, or under a custom
        model, its first transmission resolves its list cold."""
        power = getattr(entry.radio, "tx_power_dbm", None) if self._free_space else None
        delivery = self._resolve_static(entry, entry.static_pos, entry.channel, power, push=True)
        if delivery is not None:
            entry.lists[power] = delivery

    def _range2(self, power_dbm: float, sensitivity_dbm: float) -> float:
        """Squared free-space range of one (power, sensitivity) pair, with slack.

        In exact arithmetic the free-space in-range test
        ``power - loss(d) >= sens`` is ``d <= dmax =
        (lambda / 4 pi) * 10^((power - sens) / 20)``, with the loss
        clamped below 1 m (clamping ``dmax`` up to 1 m only admits more).
        Both sides of ``d2 <= _range2(...)`` are float-rounded, so the
        limit gets 1e-9 relative and absolute slack, about a million
        ULPs wider than the rounding error.  Whoever passes the gate is
        re-checked with the exact scalar link budget: the slack can
        admit extra candidates, never exclude one the scalar math
        accepts.
        """
        key = (power_dbm, sensitivity_dbm)
        limit2 = self._reach2.get(key)
        if limit2 is None:
            wavelength = 299_792_458.0 / self.frequency_hz
            dmax = max(
                (wavelength / (4.0 * math.pi))
                * 10.0 ** ((power_dbm - sensitivity_dbm) / 20.0),
                1.0,
            )
            limit2 = self._reach2[key] = dmax * dmax * (1.0 + 1e-9) + 1e-9
        return limit2

    def _holding(self, entry: _RadioEntry):
        """``(delivery, index)`` of every live list that holds ``entry``.

        A list holds a receiver only through a budget from its sender,
        so the candidates are ``entry``'s memo peers on its channel, and
        the memoized delay locates it by bisection.
        """
        if entry.static_pos is None:
            return  # mobiles are merged per transmission, never listed
        channel = entry.channel
        seq = entry.seq
        sensitivity = entry.radio.rx_sensitivity_dbm
        for sender in entry.links:
            lists = sender.lists
            if not lists or sender.channel != channel or sender is entry:
                continue
            budget = sender.links.get(entry)
            if budget is None:
                continue
            loss, delay = budget
            for delivery in lists.values():
                if delivery.power - loss >= sensitivity:
                    seqs = delivery.seqs
                    k = _arrival_slot(delivery.delays, seqs, delay, seq)
                    if k < len(seqs) and seqs[k] == seq:
                        yield delivery, k

    def _pull_out(self, entry: _RadioEntry) -> None:
        """Remove ``entry`` from every live list that holds it."""
        for delivery, k in self._holding(entry):
            self.held_copies += delivery.writable()
            del delivery.delays[k]
            del delivery.seqs[k]
            del delivery.radios[k]
            del delivery.rssis[k]
            del delivery.macs[k]
            del delivery.lanes[k]

    @property
    def radio_names(self) -> List[str]:
        return sorted(self._entries)

    def has_radio(self, name: str) -> bool:
        """O(1) membership check (``radio_names`` sorts the whole set)."""
        return name in self._entries

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def radio(self, name: str) -> RadioPort:
        return self._entries[name].radio

    # ------------------------------------------------------------------
    # Channel state queries
    # ------------------------------------------------------------------
    def _observed_position(self, entry: _RadioEntry, time: float) -> Position:
        """Current position with the same move discipline as transmit().

        Static radios return their pinned position; mobile radios are
        re-read, and an observed move drops their budgets exactly like
        the per-transmission prescan does, so query-path and delivery-
        path budgets can never disagree about where a radio is.
        """
        static = entry.static_pos
        if static is not None:
            return static
        position = entry.radio.current_position(time)
        entry.observe(position)
        return position

    def rssi_between(self, tx_name: str, rx_name: str, time: float) -> float:
        """Would-be RSSI of a 20 dBm transmission between two attached radios.

        Resolved through the same pair-budget memo ``transmit()`` uses,
        so an ad-hoc query returns exactly the loss a delivery would see
        (including frozen shadowing for stateful path-loss models)
        instead of re-invoking the model out of band.  Raises
        :class:`KeyError` naming a radio that is not attached.
        """
        entries = []
        for name in (tx_name, rx_name):
            entry = self._entries.get(name)
            if entry is None:
                raise KeyError(f"radio {name!r} is not attached to this medium")
            entries.append(entry)
        tx, rx = entries
        tx_position = self._observed_position(tx, time)
        rx_position = self._observed_position(rx, time)
        loss, _ = self._link_budget(tx, tx_position, rx, rx_position)
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
            # with no entry to keep them on, their links bypass the memo.
            tx_position = sender.current_position(now)
        else:
            tx_position = entry.static_pos
            if tx_position is None:
                # Mobile radios never appear in (static-only) delivery
                # lists, so a move drops only this radio's own budgets
                # and lists; under free space it keeps none.
                tx_position = sender.current_position(now)
                if not self._free_space:
                    entry.observe(tx_position)
        transmission = Transmission(
            sender_name, frame, now, duration, power_dbm, rate_mbps, channel, tx_position
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
        transmitting = self._transmitting
        end = now + duration
        if transmitting.get(sender_name, 0.0) < end:
            transmitting[sender_name] = end
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
                entry,
                tx_position,
                channel,
                power_dbm,
                transmission,
                duration,
            )
        return transmission

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _link_budget(
        self,
        tx: Optional[_RadioEntry],
        tx_position: Position,
        rx: _RadioEntry,
        rx_position: Position,
    ) -> Tuple[float, float]:
        """``(path loss dB, propagation delay s)`` of one link.

        Looked up in, or computed into, the pair-budget memo on the two
        entries (see :class:`_RadioEntry`); an unattached sender
        (``tx is None``) bypasses the memo and the hit/miss tallies, and
        so, under free space, does a link with a mobile endpoint.
        """
        if tx is not None:
            budget = tx.links.get(rx)
            if budget is not None:
                self.link_cache_hits += 1
                return budget
        if self._free_space:
            budget = self._free_space_budget(tx_position, rx_position)
            if tx is None or tx.static_pos is None or rx.static_pos is None:
                return budget
            tx.links[rx] = rx.links[tx] = budget
        else:
            budget = (
                self._path_loss(tx_position, rx_position),
                tx_position.propagation_delay_to(rx_position),
            )
            if tx is not None:
                tx.links[rx] = budget
                rx.links.setdefault(tx, None)
        if tx is not None:
            self.link_cache_misses += 1
        return budget

    def _free_space_budget(self, tx_position: Position, rx_position: Position):
        """``(loss, delay)`` of a free-space link between two positions."""
        dx = tx_position.x - rx_position.x
        dy = tx_position.y - rx_position.y
        dz = tx_position.z - rx_position.z
        return self._free_space_link(dx ** 2 + dy ** 2 + dz ** 2)

    def _free_space_link(self, d2: float):
        """``(loss, delay)`` of a free-space link of squared length ``d2``,
        summed from ``** 2`` terms as ``distance_to`` sums them:
        ``free_space_path_loss_db`` plus ``propagation_delay_to`` bit for
        bit, and bit-symmetric."""
        distance = math.sqrt(d2)
        wavelength = 299_792_458.0 / self.frequency_hz
        loss = 20.0 * math.log10(4.0 * math.pi * max(distance, 1.0) / wavelength)
        return loss, distance / 299_792_458.0

    def _resolve_static(
        self,
        entry: Optional[_RadioEntry],
        tx_position: Position,
        channel: int,
        power_dbm: Optional[float],
        push: bool = False,
    ) -> Optional[_Delivery]:
        """One walk of the channel bucket, in attachment order: the cold
        resolution of the in-range *static* receivers at ``power_dbm``
        (``None``: no list) and, with ``push``, the insertion of static
        ``entry`` into every live list that reaches it.

        Mobiles are skipped (merged per transmission instead), except
        that under a custom model a mobile sender's lists take pushes.
        Under free space the squared-distance gate of :meth:`_range2`,
        hoisted per (power, sensitivity), first skips the pairs neither
        list can take, and each other pair's exact budget is computed
        once (:meth:`_free_space_link`) and stored on both ends (a
        retuned radio reads the budgets it kept).  Under a custom model
        every link goes through :meth:`_link_budget`, in bucket order.
        """
        free_space = self._free_space
        own: Optional[List[tuple]] = None if power_dbm is None else []
        x, y, z = tx_position.x, tx_position.y, tx_position.z
        links = entry.links if entry is not None else None
        memo = links or None
        range2 = self._range2
        if push:
            radio = entry.radio
            sensitivity = radio.rx_sensitivity_dbm
            seq = entry.seq
            mac, lanes = _addressing(radio)
        own_sens = own_limit = push_power = push_limit = None
        hits = misses = 0
        for peer in self._channels.get(channel) or ():
            peer_position = peer.static_pos
            if peer is entry:
                continue
            lists = peer.lists if push else None
            near = False
            if not free_space:
                if lists:  # a push: the link from this sender to entry
                    loss, delay = self._link_budget(peer, peer.last_pos, entry, tx_position)
                elif own is not None and peer_position is not None:
                    loss, delay = self._link_budget(entry, tx_position, peer, peer_position)
                    near = True
                    peer_sens = peer.radio.rx_sensitivity_dbm
                else:
                    continue
            else:
                if peer_position is None:
                    continue  # mobiles keep no lists and join none
                dx = x - peer_position.x
                dy = y - peer_position.y
                dz = z - peer_position.z
                d2 = dx ** 2 + dy ** 2 + dz ** 2
                if own is not None:
                    peer_sens = peer.radio.rx_sensitivity_dbm
                    if peer_sens != own_sens:
                        own_sens = peer_sens
                        own_limit = range2(power_dbm, peer_sens)
                    near = d2 <= own_limit
                if not near:
                    for peer_power in lists or ():
                        if peer_power != push_power:
                            push_power = peer_power
                            push_limit = range2(peer_power, sensitivity)
                        if d2 <= push_limit:
                            break
                    else:
                        continue  # out of reach both ways
                budget = memo.get(peer) if memo is not None else None
                if budget is None:
                    budget = self._free_space_link(d2)
                    if links is not None:
                        links[peer] = peer.links[entry] = budget
                        misses += 1
                else:
                    hits += 1
                loss, delay = budget
            if near:
                rssi = power_dbm - loss
                if rssi >= peer_sens:
                    own.append((delay, peer.seq, peer.radio, rssi))
            for delivery in lists.values() if lists else ():
                rssi = delivery.power - loss
                if rssi < sensitivity:
                    continue
                self.held_copies += delivery.writable()
                delays = delivery.delays
                k = _arrival_slot(delays, delivery.seqs, delay, seq)
                delays.insert(k, delay)
                delivery.seqs.insert(k, seq)
                delivery.radios.insert(k, radio)
                delivery.rssis.insert(k, rssi)
                delivery.macs.insert(k, mac)
                delivery.lanes.insert(k, lanes)
        self.link_cache_hits += hits
        self.link_cache_misses += misses
        if own is None:
            return None
        own.sort()  # by (delay, attach seq): seqs are unique, so nothing later
        columns = [list(column) for column in zip(*own)] or [[], [], [], []]
        addressing = [_addressing(radio) for radio in columns[2]]
        macs = [pair[0] for pair in addressing]
        return _Delivery(power_dbm, *columns, macs, [pair[1] for pair in addressing])

    def _deliver(
        self,
        engine: Engine,
        now: float,
        entry: Optional[_RadioEntry],
        tx_position: Position,
        channel: int,
        power_dbm: float,
        transmission: Transmission,
        duration: float,
    ) -> None:
        """Resolve and schedule a whole delivery list.

        Stage 1: the sender's live static list on its channel at this
        power (:class:`_Delivery`), built at attach or resolved cold on
        first use (:meth:`_resolve_static`) and kept up to date by pushes;
        an unattached sender (``entry`` None), and under free space a
        mobile one, resolves cold every time and keeps nothing.

        Stage 2 (every transmission): frame-error probabilities are
        derived from the SNR array; mobile receivers are re-resolved and
        merge-inserted into span-private copies; the whole list is
        scheduled as one :class:`_ArrivalSpan` behind two
        ``EventBatch`` entries.
        """
        free_space = self._free_space
        if entry is None or (free_space and entry.static_pos is None):
            delivery = self._resolve_static(None, tx_position, channel, power_dbm)
        else:
            delivery = entry.lists.get(power_dbm)
            if delivery is None:
                delivery = entry.lists[power_dbm] = self._resolve_static(
                    entry, tx_position, channel, power_dbm
                )
            else:
                self.link_cache_hits += len(delivery.delays)
        delays = delivery.delays
        seqs = delivery.seqs
        radios = delivery.radios
        rssis = delivery.rssis
        macs = delivery.macs
        lanes = delivery.lanes
        fers: Optional[List[float]] = None
        if self._fer is not None:
            # Per-receiver frame-error probabilities for the static list,
            # kept on the list per (rate, length) until its next push.
            # The RNG draw that applies a probability happens at the
            # arrival end, in arrival order.
            getter = getattr(transmission.frame, "wire_length", None)
            length = (getter() or 0) if getter is not None else 0
            rate = transmission.rate_mbps
            fer_lists = delivery.fers
            fers = fer_lists.get((rate, length))
            if fers is None:
                fer = self._fer
                noise_floor = self.noise_floor_dbm
                fers = [fer(rssi - noise_floor, rate, length) for rssi in rssis]
                if len(fer_lists) >= 8:
                    fer_lists.pop(next(iter(fer_lists)))
                fer_lists[(rate, length)] = fers
        for rx in self._mobiles.get(channel) or ():
            if rx is entry:
                continue
            radio = rx.radio
            rx_position = radio.current_position(now)
            if free_space:
                loss, delay = self._free_space_budget(tx_position, rx_position)
            else:
                rx.observe(rx_position)
                loss, delay = self._link_budget(entry, tx_position, rx, rx_position)
            rssi = power_dbm - loss
            if rssi < radio.rx_sensitivity_dbm:
                continue
            if radios is delivery.radios:
                # Merge-insert by (delay, attach seq) into span-private
                # copies (seqs are unique, so this is a sort's order);
                # the live list stays untouched.
                delays, seqs, radios = list(delays), list(seqs), list(radios)
                rssis, macs, lanes = list(rssis), list(macs), list(lanes)
                if fers is not None:
                    fers = list(fers)
            seq = rx.seq
            k = _arrival_slot(delays, seqs, delay, seq)
            delays.insert(k, delay)
            seqs.insert(k, seq)
            radios.insert(k, radio)
            rssis.insert(k, rssi)
            rx_mac, rx_lanes = _addressing(radio)
            macs.insert(k, rx_mac)
            lanes.insert(k, rx_lanes)
            if fers is not None:
                fers.insert(k, self._fer(rssi - self.noise_floor_dbm, rate, length))
        if not delays:
            return
        span = _ArrivalSpan(self, transmission, radios, rssis, fers, macs, lanes)
        if radios is delivery.radios:
            delivery.shared = True  # the span reads the live columns in place
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
