"""Energy accounting and battery arithmetic (Figure 6 substrate)."""

import pytest

from repro.devices.battery import (
    BLINK_XT2,
    LOGITECH_CIRCLE2,
    Battery,
    BatteryPoweredCamera,
)
from repro.devices.power_model import ESP8266_PROFILE, EnergyAccountant, PowerProfile
from repro.phy.radio import Radio, RadioState
from repro.sim.world import Position
from tests.conftest import attached


@pytest.fixture
def radio(medium):
    return attached(Radio("power-radio", medium, Position(0, 0)))


@pytest.fixture
def accountant(radio):
    return EnergyAccountant(radio, ESP8266_PROFILE)


class TestProfiles:
    def test_state_power_mapping(self):
        profile = ESP8266_PROFILE
        assert profile.state_power_mw(RadioState.SLEEP) == profile.sleep_mw
        assert profile.state_power_mw(RadioState.IDLE) == profile.idle_mw
        assert profile.state_power_mw(RadioState.TX) == profile.tx_mw

    def test_esp_profile_ordering(self):
        profile = ESP8266_PROFILE
        assert profile.sleep_mw < profile.idle_mw < profile.rx_active_mw < profile.tx_mw


class TestAccounting:
    def test_idle_energy_integrates(self, engine, radio, accountant):
        engine.run_until(2.0)
        # 2 s at idle power.
        assert accountant.energy_mj() == pytest.approx(
            2.0 * ESP8266_PROFILE.idle_mw, rel=1e-6
        )

    def test_sleep_cheaper_than_idle(self, engine, radio, accountant):
        radio.sleep()
        engine.run_until(2.0)
        assert accountant.energy_mj() == pytest.approx(
            2.0 * ESP8266_PROFILE.sleep_mw, rel=1e-6
        )

    def test_average_power(self, engine, radio, accountant):
        engine.run_until(1.0)
        radio.sleep()
        engine.run_until(3.0)
        # 1 s idle + 2 s sleep.
        expected = (ESP8266_PROFILE.idle_mw + 2 * ESP8266_PROFILE.sleep_mw) / 3.0
        assert accountant.average_power_mw() == pytest.approx(expected, rel=1e-6)

    def test_per_frame_energies(self, engine, radio, accountant):
        engine.run_until(1.0)
        accountant.reset_window()
        accountant.note_frame_received(airtime=64e-6, addressed_to_us=True)
        accountant.note_frame_received(airtime=64e-6, addressed_to_us=False)
        engine.run_until(2.0)
        rx_extra = 2 * 64e-6 * (ESP8266_PROFILE.rx_active_mw - ESP8266_PROFILE.idle_mw)
        processing = ESP8266_PROFILE.per_frame_processing_uj * 1e-3
        expected = 1.0 * ESP8266_PROFILE.idle_mw + rx_extra + processing
        assert accountant.energy_mj() == pytest.approx(expected, rel=1e-6)
        assert accountant.frames_received == 2
        assert accountant.frames_processed == 1

    def test_reset_window(self, engine, radio, accountant):
        engine.run_until(1.0)
        accountant.reset_window()
        assert accountant.energy_mj() == pytest.approx(0.0, abs=1e-9)

    def test_duty_cycle(self, engine, radio, accountant):
        engine.run_until(1.0)
        radio.sleep()
        engine.run_until(4.0)
        assert accountant.duty_cycle(RadioState.SLEEP) == pytest.approx(0.75)
        assert accountant.duty_cycle(RadioState.IDLE) == pytest.approx(0.25)

    def test_time_in_state_tracks(self, engine, radio, accountant):
        radio.sleep()
        engine.run_until(5.0)
        radio.wake()
        engine.run_until(6.0)
        accountant.energy_mj()  # force accrual
        assert accountant.time_in_state[RadioState.SLEEP] == pytest.approx(5.0)


class TestBattery:
    def test_drain(self):
        battery = Battery(1000.0)
        battery.drain(power_mw=100.0, hours=5.0)
        assert battery.remaining_mwh == pytest.approx(500.0)

    def test_drain_clamps_at_zero(self):
        battery = Battery(100.0)
        battery.drain(power_mw=1000.0, hours=1.0)
        assert battery.remaining_mwh == 0.0
        assert battery.is_depleted

    def test_lifetime(self):
        assert Battery(2400.0).lifetime_hours(360.0) == pytest.approx(6.67, abs=0.01)

    def test_infinite_lifetime_at_zero_draw(self):
        assert Battery(100.0).lifetime_hours(0.0) == float("inf")

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Battery(0.0)

    def test_negative_drain_rejected(self):
        with pytest.raises(ValueError):
            Battery(100.0).drain(-1.0, 1.0)


class TestCameraProjections:
    """Section 4.2's arithmetic: 6.7 h and 16.7 h under a 360 mW attack."""

    def test_circle2_drains_in_6_7_hours(self):
        assert LOGITECH_CIRCLE2.hours_under_attack(360.0) == pytest.approx(6.67, abs=0.01)

    def test_xt2_drains_in_16_7_hours(self):
        assert BLINK_XT2.hours_under_attack(360.0) == pytest.approx(16.67, abs=0.01)

    def test_capacities_match_paper(self):
        assert LOGITECH_CIRCLE2.capacity_mwh == 2400.0
        assert BLINK_XT2.capacity_mwh == 6000.0

    def test_advertised_idle_power_is_sub_2mw(self):
        # "3 months" / "2 years" claims imply ~1 mW average duty-cycled draw.
        assert LOGITECH_CIRCLE2.advertised_average_power_mw < 2.0
        assert BLINK_XT2.advertised_average_power_mw < 1.0

    def test_reduction_factor_is_hundreds(self):
        assert LOGITECH_CIRCLE2.lifetime_reduction_factor(360.0) > 100.0
        assert BLINK_XT2.lifetime_reduction_factor(360.0) > 500.0
