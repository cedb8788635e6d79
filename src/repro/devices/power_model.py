"""Radio power accounting (the instrument behind Figure 6).

The paper measures an ESP8266's draw with a power meter while fake frames
arrive at increasing rates: ~10 mW with no attack (power save working),
a jump to ~230 mW once >10 packets/s pin the radio awake, and a linear
climb to ~360 mW at 900 packets/s — 35× the idle draw.

We reproduce the measurement by integrating a state-machine power model
over simulated time:

* each radio state has a steady draw (sleep / idle-listen / transmit);
* receiving a frame costs the RX-active increment over idle for the
  frame's airtime;
* each frame *addressed to the device* additionally costs a fixed
  processing energy (interrupt, driver, MAC bookkeeping) — the dominant
  per-packet term on a microcontroller-class device.

The ESP8266 profile is calibrated to the paper's three anchor points
(10 mW sleep-average, ~230 mW pinned, ~360 mW at 900 pkt/s); the *shape*
of the resulting curve — flat, knee at the power-save threshold, then
linear — is produced by the mechanics, not hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.phy.radio import Radio, RadioState

#: Radio states in slot order; ``tuple.index`` finds a member by identity
#: without hashing it.
_STATES = tuple(RadioState)


@dataclass(frozen=True)
class PowerProfile:
    """Steady-state draws (milliwatts) and per-frame energies (microjoules)."""

    name: str
    sleep_mw: float
    idle_mw: float
    rx_active_mw: float
    tx_mw: float
    per_frame_processing_uj: float

    def state_power_mw(self, state: RadioState) -> float:
        if state is RadioState.SLEEP:
            return self.sleep_mw
        if state is RadioState.TX:
            return self.tx_mw
        return self.idle_mw


#: ESP8266-class low-power IoT module, calibrated to the paper's anchors.
ESP8266_PROFILE = PowerProfile(
    name="ESP8266",
    sleep_mw=5.0,
    idle_mw=224.0,
    rx_active_mw=280.0,
    tx_mw=420.0,
    per_frame_processing_uj=139.0,
)

#: Mains-powered AP/laptop class (used where absolute numbers don't matter).
MAINS_PROFILE = PowerProfile(
    name="mains",
    sleep_mw=500.0,
    idle_mw=1200.0,
    rx_active_mw=1500.0,
    tx_mw=2200.0,
    per_frame_processing_uj=20.0,
)


class EnergyAccountant:
    """Integrates a radio's power over simulated time.

    Subscribe it to a radio (it registers itself as a state listener) and
    feed it per-frame events; then ask for total energy or the average
    power over a window — the quantity Figure 6 plots.
    """

    def __init__(self, radio: Radio, profile: PowerProfile) -> None:
        self.radio = radio
        self.profile = profile
        self._engine = radio.medium.engine
        self._state = radio.state
        self._state_since = self._engine.now
        self._steady_energy_mj = 0.0
        self._event_energy_mj = 0.0
        self._window_start = self._engine.now
        self.frames_received = 0
        self.frames_processed = 0
        # The current state's slot in _times and its draw, resolved once
        # per state change: keying a dict by the enum would run its
        # Python-level __hash__ on every accrual.
        self._times = [0.0] * len(_STATES)
        self._slot = _STATES.index(self._state)
        self._power_mw = profile.state_power_mw(self._state)
        radio.add_state_listener(self._on_state_change)

    @property
    def time_in_state(self) -> Dict[RadioState, float]:
        """Seconds spent in each radio state during the current window."""
        return dict(zip(_STATES, self._times))

    # ------------------------------------------------------------------
    # Event hooks
    # ------------------------------------------------------------------
    def _on_state_change(self, state: RadioState, time: float) -> None:
        self._accrue(time)
        self._state = state
        self._slot = _STATES.index(state)
        self._power_mw = self.profile.state_power_mw(state)
        self._state_since = time

    def _accrue(self, now: float) -> None:
        elapsed = now - self._state_since
        if elapsed <= 0.0:
            return
        self._times[self._slot] += elapsed
        self._steady_energy_mj += self._power_mw * elapsed
        self._state_since = now

    def note_frame_received(self, airtime: float, addressed_to_us: bool) -> None:
        """Charge RX-active energy (and processing energy if it's ours)."""
        self.frames_received += 1
        delta_mw = self.profile.rx_active_mw - self.profile.idle_mw
        self._event_energy_mj += max(delta_mw, 0.0) * airtime
        if addressed_to_us:
            self.frames_processed += 1
            self._event_energy_mj += self.profile.per_frame_processing_uj * 1e-3

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------
    def energy_mj(self, now: Optional[float] = None) -> float:
        """Total energy in millijoules since construction (or window reset)."""
        now = self._engine.now if now is None else now
        self._accrue(now)
        return self._steady_energy_mj + self._event_energy_mj

    def average_power_mw(self, now: Optional[float] = None) -> float:
        """Mean draw since the start of the current measurement window."""
        now = self._engine.now if now is None else now
        window = now - self._window_start
        if window <= 0.0:
            return self.profile.state_power_mw(self._state)
        return self.energy_mj(now) / window

    def reset_window(self) -> None:
        """Start a fresh measurement window (between sweep points)."""
        now = self._engine.now
        self._accrue(now)
        self._steady_energy_mj = 0.0
        self._event_energy_mj = 0.0
        self._window_start = now
        self.frames_received = 0
        self.frames_processed = 0
        self._times = [0.0] * len(_STATES)

    def duty_cycle(self, state: RadioState, now: Optional[float] = None) -> float:
        """Fraction of the window spent in ``state``."""
        now = self._engine.now if now is None else now
        self._accrue(now)
        window = now - self._window_start
        if window <= 0.0:
            return 0.0
        return self._times[_STATES.index(state)] / window
