"""Half-duplex radio state machine.

A :class:`Radio` is the glue between a device and the shared medium.  It
owns the antenna position (static, or a callable for the wardriving
vehicle), the TX power, the channel, and the awake/asleep/transmitting
state that the power model (:mod:`repro.devices.power_model`) integrates
over time to produce the Figure 6 consumption curve.

Frame semantics live one layer up: the radio delivers every finished
:class:`~repro.sim.medium.Reception` to its ``frame_handler`` (normally
the MAC's ACK engine) and, while asleep, delivers nothing — which is how
the power-save threshold of ~10 packets/s emerges in the battery-drain
experiment.

Arrivals the MAC promised to ignore never become a ``Reception``: the
MAC publishes a lane mask (:meth:`Radio.publish_lanes`) and the medium
counts those arrivals in the radio's lane list instead.  The radio
zeroes the mask while asleep, so a sleeping radio's arrivals always take
:meth:`Radio.on_reception` and its sleep drop.
"""

from __future__ import annotations

import enum
from typing import Callable, Container, List, Optional, Union

from repro.phy.plcp import frame_airtime
from repro.sim.medium import (
    SOURCE_SET,
    TALLY_FCS_FAIL,
    TALLY_GROUP,
    TALLY_NOT_FOR_ME,
    Medium,
    Reception,
    Transmission,
)
from repro.sim.world import Position

PositionProvider = Union[Position, Callable[[float], Position]]


class RadioState(enum.Enum):
    """Power-relevant radio states."""

    SLEEP = "sleep"
    IDLE = "idle"  # awake, listening
    TX = "tx"


#: Module-level aliases: the sleep check runs once per finished arrival,
#: the TX/IDLE switch twice per transmission, and an enum-member
#: attribute lookup there is measurable at wardrive scale.
_SLEEP = RadioState.SLEEP
_TX = RadioState.TX
_IDLE = RadioState.IDLE


class Radio:
    """One 802.11 radio on a medium.

    A radio joins no medium by itself: its owner attaches it
    (``medium.attach(radio)``).  :class:`~repro.devices.base.Device`
    does so once its ACK engine has published the receive MAC and lane
    list, so the radio enters every delivery list with both final.

    Parameters
    ----------
    name:
        Unique identifier on the medium (we use the device's MAC string).
    medium:
        The shared :class:`~repro.sim.medium.Medium` it sends on.
    position:
        Either a fixed :class:`Position` or a ``f(time) -> Position``
        callable for mobile radios.
    channel:
        802.11 channel number.
    tx_power_dbm / rx_sensitivity_dbm:
        Link-budget endpoints; defaults are typical for consumer gear.
    """

    def __init__(
        self,
        name: str,
        medium: Medium,
        position: PositionProvider,
        channel: int = 6,
        tx_power_dbm: float = 20.0,
        rx_sensitivity_dbm: float = -92.0,
    ) -> None:
        self.name = name
        self.medium = medium
        self._channel = int(channel)
        self.tx_power_dbm = tx_power_dbm
        self.rx_sensitivity_dbm = rx_sensitivity_dbm
        self._position = position  # property setter fills static_position
        self._state = RadioState.IDLE
        self._state_listeners: List[Callable[[RadioState, float], None]] = []
        self._frame_handler: Optional[Callable[[Reception], None]] = None
        #: Receive MAC as a 48-bit big-endian integer, published by the
        #: ACK engine for the medium's lane pre-filter;
        #: ``None`` until a MAC layer claims the radio.
        self.rx_mac_u64: Optional[int] = None
        #: ``[mask, fcs_fail, not_for_me, group, sources]``: the lane
        #: mask the medium tests each arrival against (0 while asleep),
        #: the tallies it bumps for the arrivals the mask lets it
        #: consume, and the source set of ``LANE_KNOWN_SOURCE`` (or
        #: ``None``).  A MAC layer claims a fresh list (:meth:`claim_lanes`).
        self.lanes: list = [0, 0, 0, 0, None]
        #: The published mask, kept while asleep to restore on waking.
        self._lane_mask = 0
        self.frames_sent = 0
        self._frames_delivered = 0
        self.frames_dropped_asleep = 0

    # ------------------------------------------------------------------
    # RadioPort protocol
    # ------------------------------------------------------------------
    @property
    def channel(self) -> int:
        return self._channel

    @channel.setter
    def channel(self, channel: int) -> None:
        """Retune; the medium's per-channel index is kept in sync."""
        channel = int(channel)
        if channel == self._channel:
            return
        self._channel = channel
        self.medium.retune(self.name, channel)

    @property
    def _position(self) -> PositionProvider:
        return self._position_provider

    @_position.setter
    def _position(self, provider: PositionProvider) -> None:
        """Swapping the provider re-classifies the radio with the medium.

        ``static_position`` is the fast-path promise to the medium: a
        non-None value means ``current_position`` returns this exact
        Position until the provider is replaced again, so the medium can
        cache the radio's link budgets.  Code that takes over a radio's
        position mid-simulation (the localization attack walking its
        dongle between anchors) assigns ``_position`` and the caches are
        invalidated here.
        """
        self._position_provider = provider
        static = None if callable(provider) else provider
        self.static_position: Optional[Position] = static
        medium = getattr(self, "medium", None)
        if medium is not None:
            # A no-op until the radio is attached.
            medium.reposition(self.name, static)

    def current_position(self, time: float) -> Position:
        provider = self._position_provider
        if callable(provider):
            return provider(time)
        return provider

    @property
    def frame_handler(self) -> Optional[Callable[[Reception], None]]:
        return self._frame_handler

    @frame_handler.setter
    def frame_handler(self, handler: Optional[Callable[[Reception], None]]) -> None:
        # The published mask was a promise about the previous handler;
        # whoever installs the new one publishes afresh.
        self._frame_handler = handler
        self.publish_lanes(0)

    @property
    def frames_delivered(self) -> int:
        """Arrivals delivered awake: handed up, or tallied in the lanes."""
        lanes = self.lanes
        return (
            self._frames_delivered
            + lanes[TALLY_FCS_FAIL]
            + lanes[TALLY_NOT_FOR_ME]
            + lanes[TALLY_GROUP]
        )

    def claim_lanes(self) -> list:
        """Give a new MAC layer a fresh lane list, with an empty mask.

        The previous list's tallies fold into ``frames_delivered``; its
        mask is zeroed, so arrivals already in flight with the old list
        take the scalar path to the new handler.  The caller reports the
        change (:meth:`Medium.note_addressing_changed`) so delivery lists
        pick up the new list.
        """
        old = self.lanes
        old[0] = 0
        self._frames_delivered += (
            old[TALLY_FCS_FAIL] + old[TALLY_NOT_FOR_ME] + old[TALLY_GROUP]
        )
        self.lanes = lanes = [0, 0, 0, 0, None]
        self._lane_mask = 0
        return lanes

    def publish_lanes(
        self, mask: int, sources: Optional[Container[int]] = None
    ) -> None:
        """Set the lane mask: bit ``c`` lets the medium tally lane ``c``.

        See :data:`repro.sim.medium.LANE_FCS_FAIL`.  Only the MAC layer
        behind ``frame_handler`` may publish a mask, and only for lanes
        whose entire scalar effect is the matching tally.  ``sources``
        is the set :data:`~repro.sim.medium.LANE_KNOWN_SOURCE` tests,
        published by reference: its owner may grow it in place.
        """
        self._lane_mask = mask
        lanes = self.lanes
        lanes[0] = 0 if self._state is _SLEEP else mask
        lanes[SOURCE_SET] = sources

    def on_reception(self, reception: Reception) -> None:
        """Medium callback: route a finished arrival to the MAC."""
        if self._state is _SLEEP:
            self.frames_dropped_asleep += 1
            return
        self._frames_delivered += 1
        handler = self._frame_handler
        if handler is not None:
            handler(reception)

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    @property
    def state(self) -> RadioState:
        return self._state

    @property
    def is_awake(self) -> bool:
        return self._state is not RadioState.SLEEP

    @property
    def is_transmitting(self) -> bool:
        return self._state is RadioState.TX

    def add_state_listener(self, listener: Callable[[RadioState, float], None]) -> None:
        """Subscribe to state changes (power accounting hooks in here)."""
        self._state_listeners.append(listener)

    def _set_state(self, state: RadioState) -> None:
        if state is self._state:
            return
        self._state = state
        # Asleep, every arrival is dropped: no lane may count it.
        self.lanes[0] = 0 if state is _SLEEP else self._lane_mask
        listeners = self._state_listeners
        if listeners:
            now = self.medium.engine.clock._now
            for listener in listeners:
                listener(state, now)

    def sleep(self) -> None:
        """Power the radio down; incoming frames are lost while asleep."""
        if self._state is RadioState.TX:
            raise RuntimeError("cannot sleep while transmitting")
        self._set_state(RadioState.SLEEP)

    def wake(self) -> None:
        """Power the radio up into the listening state."""
        if self._state is RadioState.SLEEP:
            self._set_state(RadioState.IDLE)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(
        self,
        frame: object,
        rate_mbps: float,
        length_bytes: Optional[int] = None,
    ) -> Transmission:
        """Send ``frame`` at ``rate_mbps``; airtime derives from its length.

        A sleeping radio transparently wakes to transmit (matching how
        power-save clients wake to send) and returns to the listening state
        when the frame ends; the caller decides when to sleep again.
        """
        if length_bytes is None:
            getter = getattr(frame, "wire_length", None)
            if getter is None:
                raise ValueError(
                    "frame has no wire_length(); pass length_bytes explicitly"
                )
            length_bytes = getter()
        duration = frame_airtime(length_bytes, rate_mbps)
        self._set_state(_TX)
        transmission = self.medium.transmit(
            self, frame, duration, self.tx_power_dbm, rate_mbps
        )
        self.frames_sent += 1
        # post() rather than call_after(): the handle is never cancelled,
        # and both allocate exactly one sequence number.
        engine = self.medium.engine
        engine.post(engine.clock._now + duration, self._tx_done)
        return transmission

    def _tx_done(self) -> None:
        if self._state is _TX:
            self._set_state(_IDLE)
