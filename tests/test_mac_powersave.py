"""Power-save controller: the state machine the battery attack exploits."""

import pytest

from repro.mac.powersave import PowerSaveConfig, PowerSaveController
from repro.phy.radio import Radio, RadioState
from repro.sim.world import Position
from tests.conftest import attached


@pytest.fixture
def radio(medium):
    return attached(Radio("ps-radio", medium, Position(0, 0)))


@pytest.fixture
def controller(radio, engine):
    return PowerSaveController(radio, engine, PowerSaveConfig())


class TestSleepWakeCycle:
    def test_sleeps_after_listen_window(self, engine, radio, controller):
        controller.start()
        engine.run_until(0.05)
        assert radio.state is RadioState.SLEEP

    def test_wakes_for_dtim(self, engine, radio, controller):
        controller.start()
        config = controller.config
        # Just after the first DTIM the radio should be awake.
        engine.run_until(config.dtim_interval + 0.001)
        assert radio.is_awake
        # Between DTIMs (after the listen window) it sleeps again.
        engine.run_until(config.dtim_interval + config.listen_window + 0.01)
        assert radio.state is RadioState.SLEEP

    def test_mostly_asleep_when_idle(self, engine, radio, controller):
        from repro.devices.power_model import ESP8266_PROFILE, EnergyAccountant

        accountant = EnergyAccountant(radio, ESP8266_PROFILE)
        controller.start()
        engine.run_until(10.0)
        assert accountant.duty_cycle(RadioState.SLEEP) > 0.9

    def test_stop_keeps_radio_awake(self, engine, radio, controller):
        controller.start()
        engine.run_until(0.05)
        assert radio.state is RadioState.SLEEP
        controller.stop()
        assert radio.is_awake
        engine.run_until(5.0)
        assert radio.is_awake


class TestActivityPinning:
    def test_activity_extends_awake_period(self, engine, radio, controller):
        controller.start()
        engine.run_until(0.002)
        controller.note_activity()
        # Within the idle timeout the radio must stay awake.
        engine.run_until(0.002 + controller.config.idle_timeout * 0.9)
        assert radio.is_awake

    def test_sustained_activity_prevents_sleep(self, engine, radio, controller):
        """The battery-drain mechanism: activity faster than the idle
        timeout pins the radio awake indefinitely."""
        controller.start()
        interval = controller.config.idle_timeout / 2.0

        def poke():
            controller.note_activity()
            engine.call_after(interval, poke)

        engine.call_after(0.001, poke)
        engine.run_until(5.0)
        assert radio.is_awake
        assert controller.sleeps == 0 or controller.wakeups > 0

    def test_activity_ignored_when_disabled(self, engine, radio, controller):
        controller.note_activity()  # before start: no effect, no crash
        assert radio.is_awake

    def test_pinning_rate_matches_paper_knee(self):
        # ~10 packets/s with the default 100 ms inactivity timeout.
        assert PowerSaveConfig().pinning_rate_pps == pytest.approx(10.0)


class TestDtimSchedule:
    def test_dtim_interval_is_beacon_times_period(self):
        config = PowerSaveConfig(beacon_interval=0.1, dtim_period=3)
        assert config.dtim_interval == pytest.approx(0.3)

    def test_wakeup_count_over_time(self, engine, radio, controller):
        controller.start()
        engine.run_until(10.0)
        expected = 10.0 / controller.config.dtim_interval
        assert controller.wakeups == pytest.approx(expected, abs=3)

    def test_no_frozen_time_loop(self, engine, radio, controller):
        """Regression: float rounding in the DTIM schedule once pinned the
        event loop at a frozen simulation time (next_dtim == now)."""
        controller.start()
        engine.run_until(60.0)  # would hang before the fix
        assert engine.now == 60.0
