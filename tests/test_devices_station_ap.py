"""Station ⇄ AccessPoint integration: join, keys, data, quirks."""

import itertools

import pytest

from repro.devices.access_point import ApBehavior
from repro.devices.station import StationState
from repro.mac.addresses import ATTACKER_FAKE_MAC, MacAddress
from repro.mac.frames import NullDataFrame
from repro.sim.engine import Engine

from tests.conftest import associate


class TestAssociation:
    def test_full_wpa2_join(self, engine, make_station, make_ap):
        ap = make_ap()
        station = make_station(x=3.0)
        associate(engine, station, ap)
        assert ap.is_associated(station.mac)
        assert station.session is not None

    def test_both_sides_agree_on_temporal_key(self, engine, make_station, make_ap):
        ap = make_ap()
        station = make_station(x=3.0)
        associate(engine, station, ap)
        record = ap._associations[station.mac]
        assert record.session is not None
        assert record.session.temporal_key == station.session.temporal_key

    def test_encrypted_data_flows(self, engine, make_station, make_ap):
        ap = make_ap()
        station = make_station(x=3.0)
        associate(engine, station, ap)
        payloads = []
        ap.data_handler = lambda payload, frame: payloads.append(payload)
        station.send_data(b"sensor reading 42")
        engine.run_until(engine.now + 0.5)
        assert payloads == [b"sensor reading 42"]

    def test_ap_to_station_data(self, engine, make_station, make_ap):
        ap = make_ap()
        station = make_station(x=3.0)
        associate(engine, station, ap)
        payloads = []
        station.data_handler = lambda payload, frame: payloads.append(payload)
        ap.send_data(station.mac, b"push notification")
        engine.run_until(engine.now + 0.5)
        assert payloads == [b"push notification"]

    def test_bad_passphrase_fails_fast_at_construction(self, make_ap):
        """Lazy PMK derivation must not defer the 802.11i length check: a
        misconfigured scenario should die at setup, not mid-handshake."""
        with pytest.raises(ValueError, match="8..63"):
            make_ap(passphrase="short")
        with pytest.raises(ValueError, match="8..63"):
            make_ap(passphrase="x" * 64)
        make_ap(passphrase=None)  # open network stays legal

    def test_open_network_join(self, engine, make_station, make_ap):
        ap = make_ap(ssid="OpenNet", passphrase=None)
        station = make_station(x=3.0)
        station.connect(ap.mac, "OpenNet", passphrase=None)
        engine.run_until(engine.now + 1.0)
        assert station.state is StationState.ASSOCIATED
        assert station.session is None  # no keys on an open network
        assert ap.is_associated(station.mac)

    def test_keepalive_null_frames(self, engine, make_station, make_ap, trace):
        ap = make_ap()
        station = make_station(x=3.0)
        station.start_keepalive(interval=0.2)
        associate(engine, station, ap)
        engine.run_until(engine.now + 1.0)
        nulls = trace.filter(
            lambda r: "Null function" in r.info and r.source == str(station.mac)
        )
        assert len(nulls) >= 3


class TestBeaconingAndProbing:
    def test_beacons_broadcast(self, engine, make_ap, trace):
        ap = make_ap()
        ap.start_beaconing()
        engine.run_until(1.0)
        beacons = trace.filter(lambda r: "Beacon" in r.info)
        assert len(beacons) >= 8

    def test_stop_beaconing(self, engine, make_ap, trace):
        ap = make_ap()
        ap.start_beaconing()
        engine.run_until(0.5)
        ap.stop_beaconing()
        count = trace.count_info("Beacon")
        engine.run_until(2.0)
        assert trace.count_info("Beacon") <= count + 1

    def test_restart_within_an_interval_keeps_one_beacon_loop(
        self, engine, make_ap, trace
    ):
        ap = make_ap(behavior=ApBehavior(beacon_interval=1.0))
        ap.start_beaconing()
        ap.stop_beaconing()
        ap.start_beaconing()  # the first loop's tick is still queued
        engine.run_until(10.0)
        assert trace.count_info("Beacon") == 10

    def test_restart_within_an_interval_keeps_one_probe_loop(
        self, engine, make_station, trace
    ):
        station = make_station()
        station.start_probing(2.0)
        station.stop_probing()
        station.start_probing(2.0)
        engine.run_until(20.0)
        assert trace.count_info("Probe Request") == 10

    def test_lone_ap_posts_three_events_per_beacon(
        self, engine, make_ap, monkeypatch
    ):
        # Tick, DCF backoff and end of airtime: fire-and-forget posts,
        # none with a cancellable Event handle (Engine.call_at).
        handles = []
        call_at = Engine.call_at
        monkeypatch.setattr(
            Engine, "call_at",
            lambda self, time, callback: handles.append(callback)
            or call_at(self, time, callback),
        )
        ap = make_ap(behavior=ApBehavior(beacon_interval=0.1))
        ap.start_beaconing()
        engine.run(max_events=300)
        assert ap.radio.frames_sent == 100
        assert engine.events_scheduled == 3 * 100 + 1  # the next tick waits
        assert handles == []

    def test_sequence_counter_wraps_through_zero(self, engine, medium, make_ap):
        ap = make_ap(behavior=ApBehavior(beacon_interval=0.1))
        ap._sequence = itertools.count(4094)
        sent = []
        medium.add_transmit_observer(lambda tx: sent.append(tx.frame.sequence))
        ap.start_beaconing()
        engine.run_until(0.35)
        assert sent == [4094, 4095, 0, 1]

    def test_probe_request_answered(self, engine, make_station, make_ap, trace):
        ap = make_ap()
        station = make_station(x=3.0)
        station.probe_scan()
        engine.run_until(0.5)
        responses = trace.filter(lambda r: "Probe Response" in r.info)
        assert len(responses) == 1

    def test_probe_for_other_ssid_ignored(self, engine, make_station, make_ap, trace):
        make_ap(ssid="MyNet")
        station = make_station(x=3.0)
        from repro.mac.frames import ProbeRequestFrame

        probe = ProbeRequestFrame(addr2=station.mac, ssid="SomeoneElse")
        station.send(probe)
        engine.run_until(0.5)
        assert trace.count_info("Probe Response") == 0


class TestSection21Quirks:
    """The AP behaviours the paper observed — none of which stop ACKs."""

    def test_deauth_on_unknown_fires(self, engine, make_ap, make_dongle, trace):
        ap = make_ap(behavior=ApBehavior(deauth_on_unknown=True))
        attacker = make_dongle()
        fake = NullDataFrame(addr1=ap.mac, addr2=ATTACKER_FAKE_MAC)
        attacker.inject(fake)
        engine.run_until(1.0)
        deauths = trace.filter(lambda r: "Deauthentication" in r.info)
        # 1 original + 2 retries (never ACKed by the monitor-mode attacker):
        # the three identical-SN rows of Figure 3.
        assert len(deauths) == 3
        sequence_numbers = {r.info.split("SN=")[1] for r in deauths}
        assert len(sequence_numbers) == 1

    def test_deauthing_ap_still_acks(self, engine, make_ap, make_dongle, trace):
        ap = make_ap(behavior=ApBehavior(deauth_on_unknown=True))
        attacker = make_dongle()
        attacker.inject(NullDataFrame(addr1=ap.mac, addr2=ATTACKER_FAKE_MAC))
        engine.run_until(1.0)
        assert ap.ack_engine.stats.acks_sent == 1
        assert trace.count_info("Acknowledgement") >= 1

    def test_deauth_rate_limited(self, engine, make_ap, make_dongle, trace):
        ap = make_ap(behavior=ApBehavior(deauth_on_unknown=True, deauth_cooldown=10.0))
        attacker = make_dongle()
        for index in range(5):
            frame = NullDataFrame(addr1=ap.mac, addr2=ATTACKER_FAKE_MAC)
            frame.sequence = index + 1
            engine.call_at(index * 0.01, lambda f=frame: attacker.inject(f))
        engine.run_until(1.0)
        assert ap.deauth_bursts_sent == 1
        assert ap.ack_engine.stats.acks_sent == 5  # but every frame ACKed

    def test_blocklist_does_not_stop_acks(self, engine, make_ap, make_dongle):
        """'This experiment destroyed the last hope of preventing this
        attack.'"""
        ap = make_ap()
        ap.block(ATTACKER_FAKE_MAC)
        attacker = make_dongle()
        acks = []
        attacker.add_listener(
            lambda frame, reception: acks.append(frame) if frame.is_ack else None
        )
        attacker.inject(NullDataFrame(addr1=ap.mac, addr2=ATTACKER_FAKE_MAC))
        engine.run_until(0.5)
        assert len(acks) == 1  # the PHY answered...
        assert ap.blocked_frames_dropped == 1  # ...the MAC filter ran too late

    def test_blocklisted_station_cannot_associate(self, engine, make_station, make_ap):
        ap = make_ap()
        station = make_station(x=3.0)
        ap.block(station.mac)
        station.connect(ap.mac, ap.ssid, ap._passphrase)
        engine.run_until(engine.now + 2.0)
        assert station.state is not StationState.ASSOCIATED


class TestDeauthAttackAndPmf:
    def test_forged_deauth_drops_station(self, engine, make_station, make_ap, make_dongle):
        ap = make_ap()
        station = make_station(x=3.0)
        associate(engine, station, ap)
        attacker = make_dongle()
        from repro.mac.frames import DeauthFrame

        forged = DeauthFrame(addr1=station.mac, addr2=ap.mac, addr3=ap.mac)
        attacker.inject(forged)
        engine.run_until(engine.now + 0.5)
        assert station.state is StationState.IDLE

    def test_pmf_station_ignores_forged_deauth(
        self, engine, make_station, make_ap, make_dongle
    ):
        ap = make_ap()
        station = make_station(x=3.0, pmf_enabled=True)
        associate(engine, station, ap)
        attacker = make_dongle()
        from repro.mac.frames import DeauthFrame

        forged = DeauthFrame(addr1=station.mac, addr2=ap.mac, addr3=ap.mac)
        attacker.inject(forged)
        engine.run_until(engine.now + 0.5)
        assert station.state is StationState.ASSOCIATED
        assert station.deauth_ignored_pmf == 1

    def test_pmf_station_still_acks_fake_frames(
        self, engine, make_station, make_dongle
    ):
        """802.11w protects management frames; the ACK path is untouched."""
        station = make_station(pmf_enabled=True)
        attacker = make_dongle()
        acks = []
        attacker.add_listener(
            lambda frame, reception: acks.append(frame) if frame.is_ack else None
        )
        attacker.inject(NullDataFrame(addr1=station.mac, addr2=ATTACKER_FAKE_MAC))
        engine.run_until(0.5)
        assert len(acks) == 1
