"""A short, cache-free reference for :class:`repro.sim.medium.Medium`.

The production medium resolves delivery lists through link-budget and
delivery-list caches, numpy channel mirrors, arrival spans and reception
lanes.  This module states the same delivery rules as one loop over the
receivers per transmission, with one engine event per instant at which
arrivals start or end.  It always hands a full :class:`Reception` to
``radio.on_reception``.  Tests run both and compare everything observable.

The rules, in the order they apply:

* a frame reaches every other radio on the sender's channel whose RSSI
  (``power - path loss``) is at least its sensitivity, after the
  propagation delay, ordered by (delay, attach order);
* a radio whose own transmission is still on the air when an arrival
  starts, or that starts transmitting during one, corrupts it
  (half duplex);
* overlapping arrivals at one radio collide unless one is stronger by the
  capture threshold, in which case the stronger one survives;
* at the arrival end a receiver detached in the meantime gets nothing; a
  clean arrival then flips the FER coin (one draw from the medium RNG,
  only when the error probability is positive), and the CSI model, if
  any, tags the reception.

Event timing follows :class:`repro.sim.engine.EventBatch`: arrivals due
at the same instant run back to back in one event (even when a handler
stops the engine between them), and the next later instant of the same
transmission is posted only after them, so it loses exact-time ties to
anything already queued.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.sim.medium import (
    DEFAULT_CAPTURE_THRESHOLD_DB,
    DEFAULT_NOISE_FLOOR_DBM,
    CorruptionReason,
    Reception,
    Transmission,
    free_space_path_loss_db,
)


class _Arrival:
    """One frame at one receiver: RSSI plus the corruption reason, if any."""

    __slots__ = ("radio", "rssi", "reason", "ongoing")

    def __init__(self, radio, rssi: float) -> None:
        self.radio = radio
        self.rssi = rssi
        self.reason = None
        self.ongoing: List[_Arrival] = []


class ReferenceMedium:
    """Drop-in :class:`~repro.sim.medium.Medium` with no caches and no lanes."""

    def __init__(
        self,
        engine,
        frequency_hz: float = 2.437e9,
        path_loss_db=None,
        fer=None,
        csi_model=None,
        trace=None,
        noise_floor_dbm: float = DEFAULT_NOISE_FLOOR_DBM,
        capture_threshold_db: float = DEFAULT_CAPTURE_THRESHOLD_DB,
        rng=None,
        metrics=None,
    ) -> None:
        self.engine = engine
        self.frequency_hz = frequency_hz
        self.noise_floor_dbm = noise_floor_dbm
        self.capture_threshold_db = capture_threshold_db
        self.trace = trace
        if metrics is None:
            metrics = getattr(engine, "metrics", None)
        self.metrics = metrics
        self._path_loss = path_loss_db or (
            lambda tx, rx: free_space_path_loss_db(tx, rx, frequency_hz)
        )
        self._fer = fer
        self._csi_model = csi_model
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._radios: Dict[str, object] = {}  # insertion order = attach order
        self._ongoing: Dict[str, List[_Arrival]] = {}
        self._transmitting: Dict[str, float] = {}
        self.transmission_count = 0
        self._counters = {}
        if self.metrics is not None:
            for name in ("transmitted", "delivered", "dropped"):
                self._counters[name] = self.metrics.counter(f"medium.frames.{name}")
            self._counters["airtime"] = self.metrics.counter("medium.airtime_s")

    # -- radios ----------------------------------------------------------
    def attach(self, radio) -> None:
        if radio.name in self._radios:
            raise ValueError(f"radio {radio.name!r} already attached")
        self._radios[radio.name] = radio
        self._ongoing[radio.name] = []

    def detach(self, name: str) -> None:
        self._radios.pop(name, None)
        self._ongoing.pop(name, None)
        self._transmitting.pop(name, None)

    def retune(self, name: str, channel: int) -> None:
        """Channels are read live from the radios."""

    def reposition(self, name: str, static) -> None:
        """Positions are read live from the radios."""

    def note_addressing_changed(self, name: str) -> None:
        """Nothing is cached, so nothing goes stale."""

    def has_radio(self, name: str) -> bool:
        return name in self._radios

    __contains__ = has_radio

    @property
    def radio_names(self) -> List[str]:
        return sorted(self._radios)

    def radio(self, name: str):
        return self._radios[name]

    # -- queries ---------------------------------------------------------
    def rssi_between(self, tx_name: str, rx_name: str, time: float) -> float:
        tx, rx = self._radios[tx_name], self._radios[rx_name]
        loss = self._path_loss(tx.current_position(time), rx.current_position(time))
        return 20.0 - loss

    def is_busy_for(self, name: str, cca_threshold_dbm: float = -82.0) -> bool:
        return any(a.rssi >= cca_threshold_dbm for a in self._ongoing.get(name, ()))

    def is_transmitting(self, name: str) -> bool:
        end = self._transmitting.get(name)
        return end is not None and end > self.engine.now

    # -- transmission ----------------------------------------------------
    def _count(self, name: str, amount=1) -> None:
        counter = self._counters.get(name)
        if counter is not None:
            counter.value += amount

    def transmit(self, sender, frame, duration, power_dbm, rate_mbps) -> Transmission:
        if duration <= 0.0:
            raise ValueError(f"duration must be positive, got {duration!r}")
        now = self.engine.now
        tx_position = sender.current_position(now)
        transmission = Transmission(
            sender.name, frame, now, duration, power_dbm, rate_mbps, sender.channel,
            tx_position,
        )
        self.transmission_count += 1
        self._count("transmitted")
        self._count("airtime", duration)
        self._transmitting[sender.name] = max(
            self._transmitting.get(sender.name, 0.0), now + duration
        )
        for arrival in self._ongoing.get(sender.name, ()):
            arrival.reason = CorruptionReason.RECEIVER_TRANSMITTING
        if self.trace is not None:
            self.trace.add(
                time=now,
                source=str(getattr(frame, "trace_source", lambda: sender.name)()),
                destination=str(getattr(frame, "trace_destination", lambda: "?")()),
                info=str(getattr(frame, "trace_info", lambda: type(frame).__name__)()),
                channel=sender.channel,
                length=getattr(frame, "wire_length", lambda: None)(),
            )
        targets = []
        for seq, radio in enumerate(self._radios.values()):
            if radio.name == sender.name or radio.channel != sender.channel:
                continue
            rx_position = radio.current_position(now)
            rssi = power_dbm - self._path_loss(tx_position, rx_position)
            if rssi >= radio.rx_sensitivity_dbm:
                delay = tx_position.propagation_delay_to(rx_position)
                targets.append((delay, seq, radio, rssi))
        targets.sort(key=lambda target: target[:2])
        arrivals = [_Arrival(radio, rssi) for _, _, radio, rssi in targets]
        starts = [now + delay for delay, _, _, _ in targets]
        self._post_in_order(starts, lambda i: self._arrival_start(arrivals[i]))
        self._post_in_order(
            [start + duration for start in starts],
            lambda i: self._arrival_end(arrivals[i], transmission),
        )
        return transmission

    def _post_in_order(self, times: List[float], fire: Callable[[int], None]) -> None:
        """Run ``fire(i)`` at ``times[i]`` (sorted), one posted event per instant."""
        engine = self.engine

        def run(i: int) -> None:
            due = times[i]
            while i < len(times) and times[i] == due:
                fire(i)
                i += 1
            if i < len(times):
                engine.post(times[i], lambda: run(i))

        if times:
            engine.post(times[0], lambda: run(0))

    def _arrival_start(self, arrival: _Arrival) -> None:
        name = arrival.radio.name
        ongoing = self._ongoing.setdefault(name, [])
        tx_end = self._transmitting.get(name)
        if tx_end is not None and tx_end > self.engine.now:
            arrival.reason = CorruptionReason.RECEIVER_TRANSMITTING
        live = [a for a in ongoing if a.reason is None]
        if live:
            strongest = max(a.rssi for a in live)
            if arrival.rssi >= strongest + self.capture_threshold_db:
                for other in live:
                    other.reason = CorruptionReason.CAPTURED_BY_STRONGER
            elif arrival.rssi <= strongest - self.capture_threshold_db:
                arrival.reason = CorruptionReason.LOCKED_ON_STRONGER
            else:
                arrival.reason = CorruptionReason.COLLISION
                for other in live:
                    other.reason = CorruptionReason.COLLISION
        ongoing.append(arrival)
        arrival.ongoing = ongoing

    def _arrival_end(self, arrival: _Arrival, transmission: Transmission) -> None:
        if arrival in arrival.ongoing:
            arrival.ongoing.remove(arrival)
        radio = arrival.radio
        if radio.name not in self._radios:
            return  # detached mid-flight
        snr = arrival.rssi - self.noise_floor_dbm
        fcs_ok = arrival.reason is None
        if fcs_ok and self._fer is not None:
            length = getattr(transmission.frame, "wire_length", lambda: 0)() or 0
            probability = self._fer(snr, transmission.rate_mbps, length)
            if probability > 0.0 and self._rng.random() < probability:
                fcs_ok = False
        self._count("delivered" if fcs_ok else "dropped")
        now = self.engine.now
        csi = None
        if self._csi_model is not None:
            csi = self._csi_model(transmission.sender, radio.name, now)
        while_transmitting = arrival.reason is CorruptionReason.RECEIVER_TRANSMITTING
        radio.on_reception(
            Reception(
                transmission.frame, transmission, arrival.rssi, snr, transmission.start,
                now, fcs_ok, arrival.reason is not None and not while_transmitting,
                while_transmitting, csi,
            )
        )

