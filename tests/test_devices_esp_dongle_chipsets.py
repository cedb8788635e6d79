"""ESP models, the monitor dongle, and the Table 1 chipset profiles."""

import numpy as np
import pytest

from repro.channel.csi import CsiChannelModel, MultipathChannel
from repro.channel.motion import StillMotion
from repro.core.injector import FakeFrameInjector
from repro.devices import dongle as dongle_module
from repro.devices.access_point import AccessPoint
from repro.devices.base import DeviceKind
from repro.devices.chipsets import TABLE1_DEVICES, build_lab_device
from repro.devices.dongle import MonitorDongle, RawPsdu
from repro.devices.esp import Esp32CsiSniffer, Esp8266Device
from repro.devices.station import Station
from repro.mac import serialization
from repro.mac.addresses import ATTACKER_FAKE_MAC, MacAddress
from repro.mac.frames import NullDataFrame
from repro.mac.serialization import serialize
from repro.phy.crc import append_fcs
from repro.scenario import run_scenario
from repro.sim.engine import Engine
from repro.sim.medium import Medium
from repro.sim.world import Position

from tests.conftest import attached, fresh_mac


class TestMonitorDongle:
    def test_never_acks(self, engine, medium, rng, make_station):
        dongle = MonitorDongle(
            mac=fresh_mac(), medium=medium, position=Position(5, 0), rng=rng
        )
        station = make_station()
        # A frame addressed *to the dongle's own MAC*: monitor mode still
        # doesn't answer.
        station.radio.transmit(
            NullDataFrame(addr1=dongle.mac, addr2=station.mac), 6.0
        )
        engine.run_until(0.1)
        assert dongle.ack_engine.stats.acks_sent == 0

    def test_hears_everything(self, engine, medium, rng, make_station):
        dongle = MonitorDongle(
            mac=fresh_mac(), medium=medium, position=Position(5, 0), rng=rng
        )
        heard = []
        dongle.add_listener(lambda frame, reception: heard.append(frame))
        station = make_station()
        other = NullDataFrame(
            addr1=MacAddress("02:99:99:99:99:99"), addr2=station.mac
        )
        station.radio.transmit(other, 6.0)
        engine.run_until(0.1)
        assert len(heard) == 1  # not addressed to the dongle, heard anyway

    def test_inject_bytes_path(self, engine, medium, rng, make_station):
        dongle = MonitorDongle(
            mac=fresh_mac(), medium=medium, position=Position(5, 0), rng=rng
        )
        station = make_station()
        psdu = serialize(NullDataFrame(addr1=station.mac, addr2=ATTACKER_FAKE_MAC))
        dongle.inject_bytes(psdu)
        engine.run_until(0.1)
        assert station.ack_engine.stats.acks_sent == 1

    def test_malformed_bytes_dropped_silently(self, engine, medium, rng, make_station):
        dongle = MonitorDongle(
            mac=fresh_mac(), medium=medium, position=Position(5, 0), rng=rng
        )
        station = make_station()
        dongle.inject_bytes(b"\xff" * 30)  # not a valid frame (FCS fails)
        engine.run_until(0.1)
        assert station.ack_engine.stats.acks_sent == 0

    def test_bad_fcs_injection_not_acked(self, engine, medium, rng, make_station):
        dongle = MonitorDongle(
            mac=fresh_mac(), medium=medium, position=Position(5, 0), rng=rng
        )
        station = make_station()
        psdu = bytearray(serialize(NullDataFrame(addr1=station.mac, addr2=ATTACKER_FAKE_MAC)))
        psdu[-1] ^= 0x01  # a well-formed frame for the station, one FCS bit off
        dongle.inject_bytes(bytes(psdu))
        engine.run_until(0.1)
        stats = station.ack_engine.stats
        assert (stats.frames_seen, stats.fcs_failures, stats.acks_sent) == (1, 1, 0)

    def test_reserved_frame_type_dropped_as_malformed(
        self, engine, medium, rng, make_station
    ):
        # Frame type 3 is reserved.  With a valid FCS the bytes reach the
        # parser, which must reject them like any other malformed frame
        # instead of aborting the run.
        dongle = MonitorDongle(
            mac=fresh_mac(), medium=medium, position=Position(5, 0), rng=rng
        )
        station = make_station()
        psdu = append_fcs(bytes([0x0C, 0, 0, 0]) + station.mac.bytes)
        assert RawPsdu(psdu).parsed() is None
        dongle.inject_bytes(psdu)
        engine.run_until(0.1)
        stats = station.ack_engine.stats
        assert (stats.frames_seen, stats.fcs_failures, stats.acks_sent) == (1, 1, 0)

    @staticmethod
    def _flood(engine, medium, rng, make_station, monkeypatch, inject):
        """25 fake frames to a station, overheard by a listening bystander;
        ``inject(attacker, frame)`` puts each on the air.  Returns the
        victim, what the bystander overheard and every ``deserialize``
        call."""
        calls = []
        deserialize = serialization.deserialize

        def counting(psdu, *args, **kwargs):
            calls.append(psdu)
            return deserialize(psdu, *args, **kwargs)

        monkeypatch.setattr(dongle_module, "deserialize", counting)
        monkeypatch.setattr(serialization, "deserialize", counting)
        victim = make_station()
        bystander = MonitorDongle(
            mac=fresh_mac(), medium=medium, position=Position(3, 0), rng=rng
        )
        overheard = []
        bystander.add_listener(lambda frame, reception: overheard.append(frame))
        attacker = MonitorDongle(
            mac=fresh_mac(), medium=medium, position=Position(5, 0), rng=rng
        )
        injector = FakeFrameInjector(attacker)
        for k in range(25):
            engine.call_at(
                1e-3 * k, lambda: inject(attacker, injector.craft_null(victim.mac))
            )
        engine.run_until(0.1)
        return victim, overheard, calls

    def test_flood_parses_each_injected_psdu_once(
        self, engine, medium, rng, make_station, monkeypatch
    ):
        # The victim, a bystander whose sniffer hears everything, and the
        # capture trace all read one parse per injected PSDU.
        victim, overheard, calls = self._flood(
            engine, medium, rng, make_station, monkeypatch,
            lambda attacker, frame: attacker.inject_bytes(serialize(frame)),
        )
        assert len(calls) == 25
        assert victim.ack_engine.stats.acks_sent == 25
        # The bystander overheard every fake frame and every ACK.
        assert len(overheard) == 2 * 25

    def test_typed_injection_parses_nothing(
        self, engine, medium, rng, make_station, monkeypatch
    ):
        victim, overheard, calls = self._flood(
            engine, medium, rng, make_station, monkeypatch,
            lambda attacker, frame: attacker.inject(frame),
        )
        assert calls == []
        assert victim.ack_engine.stats.acks_sent == 25
        assert len(overheard) == 2 * 25

    def test_typed_and_byte_floods_are_indistinguishable(self, monkeypatch):
        # The battery flood through typed frames and through their wire
        # bytes: same ACKs, same power floats, same capture trace.
        def flood():
            result = run_scenario(
                "battery", seed=3, params={"rates_pps": [0, 900], "duration_s": 0.5},
                quiet=True, trace=True,
            )
            return result.outputs, result.ctx.trace.to_jsonl()

        typed_outputs, typed_trace = flood()
        monkeypatch.setattr(
            MonitorDongle, "inject",
            lambda self, frame, rate_mbps=6.0: self.inject_bytes(serialize(frame), rate_mbps),
        )
        byte_outputs, byte_trace = flood()
        assert typed_outputs["acks_transmitted"] > 400
        assert typed_outputs == byte_outputs
        assert typed_trace == byte_trace

    def test_raw_psdu_trace_hooks(self):
        frame = NullDataFrame(
            addr1=MacAddress("02:01:02:03:04:05"), addr2=ATTACKER_FAKE_MAC
        )
        raw = RawPsdu(serialize(frame))
        assert raw.trace_source() == str(ATTACKER_FAKE_MAC)
        assert "Null function" in raw.trace_info()
        assert RawPsdu(b"garbage").trace_info() == "Malformed frame"


class TestEsp8266:
    def test_defaults(self, engine, medium, rng):
        esp = Esp8266Device(
            mac=fresh_mac(), medium=medium, position=Position(0, 0), rng=rng
        )
        assert esp.vendor == "Espressif"
        assert esp.accountant is not None
        assert esp.power_save is not None

    def test_power_save_cycle(self, engine, medium, rng):
        esp = Esp8266Device(
            mac=fresh_mac(), medium=medium, position=Position(0, 0), rng=rng
        )
        esp.enter_power_save()
        engine.run_until(5.0)
        assert esp.accountant.average_power_mw() < 20.0  # ~10 mW idle
        esp.leave_power_save()
        assert esp.radio.is_awake


def _csi_medium(engine, sniffer_name, victim_name):
    model = CsiChannelModel()
    medium = Medium(engine, csi_model=model)
    return medium, model


class TestEsp32Sniffer:
    def test_collects_ack_csi(self, engine, rng):
        medium, csi_model = _csi_medium(engine, "esp", "victim")
        victim = Station(
            mac=MacAddress("f2:6e:0b:00:00:01"),
            medium=medium,
            position=Position(0, 0),
            rng=rng,
        )
        esp = Esp32CsiSniffer(
            mac=fresh_mac(),
            medium=medium,
            position=Position(6, 0),
            rng=rng,
            expected_ack_ra=ATTACKER_FAKE_MAC,
        )
        csi_model.register_link(
            str(victim.mac),
            str(esp.mac),
            MultipathChannel(
                Position(0, 0), Position(6, 0), np.random.default_rng(0),
                motion=StillMotion(),
            ),
        )
        for index in range(5):
            frame = NullDataFrame(addr1=victim.mac, addr2=ATTACKER_FAKE_MAC)
            frame.sequence = index
            engine.call_at(index * 0.01, lambda f=frame: esp.inject(f))
        engine.run_until(1.0)
        ack_samples = [s for s in esp.samples if s.is_ack]
        assert len(ack_samples) == 5
        assert all(s.csi.shape == (52,) for s in ack_samples)

    def test_ignores_other_acks(self, engine, rng):
        medium, _ = _csi_medium(engine, "esp", "victim")
        esp = Esp32CsiSniffer(
            mac=fresh_mac(), medium=medium, position=Position(6, 0), rng=rng,
            expected_ack_ra=ATTACKER_FAKE_MAC,
        )
        from repro.mac.frames import AckFrame
        from repro.phy.radio import Radio

        other = attached(Radio("other-tx", medium, Position(0, 0)))
        other.transmit(AckFrame(MacAddress("02:31:41:59:26:53")), 6.0)
        engine.run_until(0.1)
        assert esp.samples == []

    def test_drops_samples_without_csi(self, engine, rng):
        medium = Medium(engine)  # no CSI model at all
        esp = Esp32CsiSniffer(
            mac=fresh_mac(), medium=medium, position=Position(6, 0), rng=rng,
            expected_ack_ra=ATTACKER_FAKE_MAC,
        )
        from repro.mac.frames import AckFrame
        from repro.phy.radio import Radio

        tx = attached(Radio("tx", medium, Position(0, 0)))
        tx.transmit(AckFrame(ATTACKER_FAKE_MAC), 6.0)
        engine.run_until(0.1)
        assert esp.samples == []
        assert esp.samples_dropped_no_csi == 1


class TestChipsets:
    def test_table1_has_five_devices(self):
        assert len(TABLE1_DEVICES) == 5
        names = [profile.device_name for profile in TABLE1_DEVICES]
        assert "MSI GE62 laptop" in names
        assert "Google Wifi AP" in names

    def test_modules_match_paper(self):
        modules = {p.device_name: p.wifi_module for p in TABLE1_DEVICES}
        assert modules["MSI GE62 laptop"] == "Intel AC 3160"
        assert modules["Ecobee3 thermostat"] == "Atheros"
        assert modules["Surface Pro 2017"] == "Marvel 88W8897"
        assert modules["Samsung Galaxy S8"] == "Murata KM5D18098"
        assert modules["Google Wifi AP"] == "Qualcomm IPQ 4019"

    def test_build_station_and_ap(self, engine, medium, rng):
        laptop = build_lab_device(TABLE1_DEVICES[0], medium, Position(0, 0), rng)
        assert isinstance(laptop, Station)
        ap = build_lab_device(TABLE1_DEVICES[4], medium, Position(5, 0), rng)
        assert isinstance(ap, AccessPoint)
        assert ap.behavior.deauth_on_unknown

    def test_all_lab_devices_are_polite(self, engine, medium, rng):
        """Table 1's result: every chipset ACKs the fake frame."""
        from repro.core.probe import PoliteWiFiProbe

        devices = [
            build_lab_device(profile, medium, Position(float(i * 3), 0), rng)
            for i, profile in enumerate(TABLE1_DEVICES)
        ]
        dongle = MonitorDongle(
            mac=fresh_mac(), medium=medium, position=Position(5, 5), rng=rng
        )
        probe = PoliteWiFiProbe(dongle)
        for device in devices:
            assert probe.probe(device.mac).responded, device.vendor
