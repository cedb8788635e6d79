"""The Section 3 wardriving pipeline: discover → inject → verify.

The paper's survey implementation is a three-thread Scapy program on a
vehicle-mounted dongle: thread 1 sniffs and appends unseen MACs to a
target list, thread 2 sends fake frames to listed targets, thread 3
verifies the ACKs.  The event-driven equivalent here runs one
discover/inject/verify unit per channel (a wardriving rig with one
monitor dongle on each of channels 1/6/11), with the injector serializing
probes per dongle so ACK attribution by timing stays unambiguous.

Targets that fail all probe attempts while the vehicle is still moving
past them are re-queued and retried on later passes — the reason the
survey converges to the paper's 100 % response rate even though street
links drop frames.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.probe import PoliteWiFiProbe, ProbeResult
from repro.devices.dongle import MonitorDongle
from repro.mac.addresses import ATTACKER_FAKE_MAC, MacAddress
from repro.sim.engine import Engine
from repro.sim.world import DriveRoute
from repro.survey.city import SURVEY_CHANNELS, SyntheticCity
from repro.survey.results import SurveyResults
from repro.survey.scanner import DiscoveredDevice, PassiveScanner


@dataclass
class WardriveConfig:
    """Pipeline tuning."""

    fake_source: MacAddress = ATTACKER_FAKE_MAC
    probe_attempts: int = 4
    max_probe_rounds: int = 6
    injector_tick: float = 0.004
    #: ``"event"`` (default) wakes the injector only at tick-grid points
    #: that follow a state change (discovery, probe completion, channel
    #: hop) — thousands of events per survey instead of a fixed-rate
    #: poll's hundreds of thousands.  ``"poll"`` keeps the original
    #: fixed-rate loop.  Both serve targets at identical grid times and
    #: produce byte-identical seeded traces (pinned by tests).
    injector_mode: str = "event"
    vehicle_speed_mps: float = 11.0
    rig_height_m: float = 1.8  # dongle on the roof of the vehicle
    #: ``"multi"`` mounts one dongle per survey channel (a Kismet-style
    #: rig); ``"hopping"`` mounts a single dongle that cycles channels —
    #: the paper's actual hardware (one RTL8812AU).
    rig_mode: str = "multi"
    hop_dwell_s: float = 0.25


@dataclass
class _TargetState:
    record: DiscoveredDevice
    rounds: int = 0
    verified: bool = False


class WardrivePipeline:
    """Run the full survey over a synthetic city."""

    def __init__(
        self,
        city: SyntheticCity,
        config: Optional[WardriveConfig] = None,
    ) -> None:
        self.city = city
        self.engine: Engine = city.engine
        self.config = config if config is not None else WardriveConfig()
        self.route: Optional[DriveRoute] = None
        self._units: List[tuple] = []  # (dongle, probe) pairs
        self._queues: Dict[int, List[_TargetState]] = {}
        self._targets: Dict[MacAddress, _TargetState] = {}
        #: MACs another tile already verified (``apply_external_evidence``
        #: before this pipeline discovered them).
        self._preverified: set = set()
        self.results = SurveyResults()
        self._running = False
        if self.config.injector_mode not in ("event", "poll"):
            raise ValueError(
                f"unknown injector mode {self.config.injector_mode!r}"
            )
        self._event_mode = self.config.injector_mode == "event"
        #: Event-mode state: the next unserved point of the injector tick
        #: grid (the same ``start + 0.1 + k*tick`` chain of floats the
        #: polling loop accumulates), and the grid time a wake is already
        #: scheduled for (dedupe).
        self._grid = 0.0
        self._armed_at: Optional[float] = None
        self._build_rig()
        self.scanner = PassiveScanner(
            [dongle for dongle, _ in self._units],
            vendor_db=city.vendor_db,
            on_discovery=self._on_discovery,
        )

    # ------------------------------------------------------------------
    # Rig construction
    # ------------------------------------------------------------------
    def _vehicle_position(self, time: float):
        assert self.route is not None
        return self.route.position_at(time, self.config.rig_height_m)

    def _build_rig(self) -> None:
        rng = np.random.default_rng(self.city.config.seed ^ 0xD0D6)
        if self.config.rig_mode not in ("multi", "hopping"):
            raise ValueError(f"unknown rig mode {self.config.rig_mode!r}")
        channels = (
            SURVEY_CHANNELS if self.config.rig_mode == "multi" else SURVEY_CHANNELS[:1]
        )
        for index, channel in enumerate(channels):
            mac_tail = bytes([0x02, 0xDD, 0x00, 0x00, 0x00, 0x10 + index])
            dongle = MonitorDongle(
                mac=MacAddress(mac_tail),
                medium=self.city.medium,
                position=self._vehicle_position,
                rng=rng,
                channel=channel,
                rx_sensitivity_dbm=-95.0,  # wardriving rigs run good antennas
            )
            self._units.append(
                (
                    dongle,
                    PoliteWiFiProbe(
                        dongle,
                        fake_source=self.config.fake_source,
                        attempts=self.config.probe_attempts,
                    ),
                )
            )
        for channel in SURVEY_CHANNELS:
            self._queues[channel] = []

    def _start_hopping(self) -> None:
        """Cycle the single dongle over the survey channels."""
        dongle = self._units[0][0]
        state = {"index": 0}

        def hop() -> None:
            if not self._running:
                return
            state["index"] = (state["index"] + 1) % len(SURVEY_CHANNELS)
            dongle.radio.channel = SURVEY_CHANNELS[state["index"]]
            self.engine.call_after(self.config.hop_dwell_s, hop)
            if self._event_mode:
                # The queue served just changed; the newly parked-on
                # channel may have waiting targets.
                self._arm_injector()

        self.engine.call_after(self.config.hop_dwell_s, hop)

    # ------------------------------------------------------------------
    # Stage 1: discovery
    # ------------------------------------------------------------------
    def _on_discovery(self, record: DiscoveredDevice) -> None:
        state = _TargetState(record=record)
        self._targets[record.mac] = state
        if record.mac in self._preverified:
            # A neighbouring tile already probed this device and relayed
            # the ACK evidence (apply_external_evidence): record the
            # verdict instead of burning probe airtime on a duplicate.
            state.verified = True
            self.results.probed.add(record.mac)
            self.results.responded.add(record.mac)
            return
        self._queues.setdefault(record.channel, []).append(state)
        if self._event_mode:
            self._arm_injector()

    def apply_external_evidence(self, mac: MacAddress, responded: bool) -> None:
        """Adopt another pipeline's probe verdict for ``mac``.

        The partition layer calls this at epoch boundaries when a
        neighbouring tile probed a device this pipeline also covers (the
        device sits in both tiles' halos).  The verdict is merged into
        :attr:`results` exactly as if this pipeline had probed the
        device itself; a queued target is dropped (probing again would
        only duplicate airtime), and a device not discovered yet is
        remembered so :meth:`_on_discovery` skips enqueueing it later.
        Only positive verdicts are adopted for undiscovered devices —
        a neighbour's *failed* probe must not stop this tile (which may
        be closer) from trying.
        """
        mac = MacAddress(mac)
        state = self._targets.get(mac)
        if state is None:
            if responded:
                self._preverified.add(mac)
            return
        if responded:
            if not state.verified:
                state.verified = True
                self.results.probed.add(mac)
                self.results.responded.add(mac)
            self._dequeue(state)

    def _dequeue(self, state: _TargetState) -> None:
        queue = self._queues.get(state.record.channel)
        if queue is not None and state in queue:
            queue.remove(state)

    # ------------------------------------------------------------------
    # Stages 2+3: inject + verify (one serialized unit per channel)
    # ------------------------------------------------------------------
    #
    # The injector serves targets at fixed grid times (start + 0.1 +
    # k*tick).  "poll" mode realizes the grid literally: one self-
    # re-arming engine event per unit per tick, ~hundreds of thousands of
    # no-op events per survey.  "event" mode (default) keeps the exact
    # same grid but only wakes at grid points that *follow a state
    # change*, because between changes a tick provably does nothing:
    #
    # * the queue and the monitor's busy flag only change at discovery,
    #   probe completion, and channel hop — each of those arms a wake at
    #   the first grid point strictly after it fires;
    # * a full probe cycle (attempts x (response window + retry pause),
    #   ~3 ms at the default settings) is shorter than the 4 ms tick, so
    #   the polling loop never observed a mid-cycle state either;
    # * mutators are scheduled closer to their fire time than a tick's
    #   full period, so at a shared fire time the poll tick's sequence
    #   number always sorted first — meaning a poll tick never saw
    #   same-time mutations, exactly like a wake armed strictly earlier.
    #
    # One wake serves every unit in unit order, matching poll mode's
    # per-unit ticks (scheduled unit 0 first) at equal times.
    def _arm_injector(self) -> None:
        """Schedule a wake at the first grid point after ``now`` (event mode)."""
        if not self._running:
            return
        now = self.engine.now
        tick = self.config.injector_tick
        grid = self._grid
        # Left-associated accumulation: visits exactly the float values
        # the polling loop's per-tick `now + tick` chain produces.
        while grid <= now:
            grid += tick
        self._grid = grid
        if self._armed_at != grid:
            self._armed_at = grid
            self.engine.post(grid, self._injector_wake)

    def _injector_wake(self) -> None:
        self._armed_at = None
        self._grid += self.config.injector_tick
        if not self._running:
            return
        for unit_index in range(len(self._units)):
            self._tick_unit(unit_index)

    def _injector_tick(self, unit_index: int) -> None:
        if not self._running:
            return
        self._tick_unit(unit_index)
        self.engine.call_after(
            self.config.injector_tick, lambda: self._injector_tick(unit_index)
        )

    def _tick_unit(self, unit_index: int) -> None:
        dongle, probe = self._units[unit_index]
        # A hopping rig serves whatever channel it is parked on right now.
        channel = dongle.radio.channel
        queue = self._queues.get(channel, [])
        if not probe.monitor.busy and queue:
            state = queue.pop(0)
            state.rounds += 1
            self.results.probed.add(state.record.mac)
            probe.probe_async(
                state.record.mac,
                lambda result, s=state: self._on_probe_result(s, result),
            )

    def _on_probe_result(self, state: _TargetState, result: ProbeResult) -> None:
        if result.responded:
            state.verified = True
            self.results.responded.add(state.record.mac)
        elif state.rounds < self.config.max_probe_rounds:
            # Back of its channel's queue; the vehicle may be closer (or a
            # hopping rig back on-channel) on a later pass.
            self._queues[state.record.channel].append(state)
        if self._event_mode:
            # The monitor freed up (and a failed target may have been
            # re-queued): the next queued target is servable at the next
            # grid point.
            self._arm_injector()

    # ------------------------------------------------------------------
    # Drive
    # ------------------------------------------------------------------
    def begin(
        self,
        duration_s: Optional[float] = None,
        route: Optional[DriveRoute] = None,
    ) -> float:
        """Arm the survey and return its end time (``engine.now`` base).

        Splitting :meth:`run` into begin / caller-driven
        ``engine.run_until`` / :meth:`finish` lets the partition layer
        advance the survey in epoch slices and exchange cross-tile
        evidence at the boundaries.  :meth:`run` composes the three, so
        the single-process path is unchanged.
        """
        self.route = route if route is not None else self.city.survey_route(
            self.config.vehicle_speed_mps
        )
        if duration_s is None:
            duration_s = self.route.duration + 10.0
        self._duration_s = duration_s
        self._running = True
        self.city.start(self.route)
        if self.config.rig_mode == "hopping":
            self._start_hopping()
        if self._event_mode:
            # Same first fire time as poll mode's call_after(0.1, ...).
            grid = self.engine.now + 0.1
            self._grid = grid
            self._armed_at = grid
            self.engine.post(grid, self._injector_wake)
        else:
            for unit_index in range(len(self._units)):
                self.engine.call_after(
                    0.1, lambda i=unit_index: self._injector_tick(i)
                )
        return self.engine.now + duration_s

    def finish(self) -> SurveyResults:
        """Tear down after the engine reached the end time; aggregate."""
        self._running = False
        self.city.stop()
        self.results.discovered = list(self.scanner.devices.values())
        self.results.duration_s = self._duration_s
        return self.results

    def run(
        self,
        duration_s: Optional[float] = None,
        route: Optional[DriveRoute] = None,
    ) -> SurveyResults:
        """Execute the survey; returns the aggregated results."""
        end_time = self.begin(duration_s, route)
        self.engine.run_until(end_time)
        return self.finish()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_targets(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def checkpoint_state(self) -> Dict[str, int]:
        """Compact digest of the pipeline's verdict state.

        The partition supervisor snapshots this at every epoch barrier
        and compares a relaunched worker's deterministic replay against
        the dead incarnation's last report.  Counts catch coarse drift;
        ``digest`` (a CRC over the sorted probed/responded/pre-verified
        MAC sets) catches same-size different-content divergence.  Small
        by construction — it crosses a pipe every epoch.
        """
        blob = b"|".join(
            b",".join(sorted(mac.bytes for mac in macs))
            for macs in (
                self.results.probed,
                self.results.responded,
                self._preverified,
            )
        )
        return {
            "discovered": len(self.scanner.devices),
            "probed": len(self.results.probed),
            "responded": len(self.results.responded),
            "pending": self.pending_targets(),
            "digest": zlib.crc32(blob),
        }

    def verification_rate(self) -> float:
        if not self._targets:
            return 0.0
        return sum(1 for s in self._targets.values() if s.verified) / len(
            self._targets
        )
