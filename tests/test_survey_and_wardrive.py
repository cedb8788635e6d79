"""The synthetic city, the passive scanner, and a small-scale wardrive."""

from collections import Counter

import numpy as np
import pytest

from repro.core.wardrive import WardriveConfig, WardrivePipeline
from repro.devices.access_point import ApBehavior
from repro.devices.base import DeviceKind
from repro.mac.ack_engine import AckEngineStats
from repro.mac.addresses import MacAddress
from repro.mac.frames import DataFrame
from repro.phy.radio import Radio
from repro.survey.city import CityConfig, SyntheticCity
from repro.survey.results import SurveyResults
from repro.survey.scanner import PassiveScanner
from repro.sim.engine import Engine
from repro.sim.medium import SOURCE_SET, TALLY_NOT_FOR_ME, Medium


def _small_city(seed=2020, scale=0.02):
    """~100-node city: big enough to exercise every code path, small
    enough for unit tests.  The full-scale run lives in the benchmark."""
    engine = Engine()
    medium = Medium(engine)
    config = CityConfig(
        seed=seed,
        blocks_x=3,
        blocks_y=2,
        block_m=80.0,
        population_scale=scale,
        keep_all_vendors=False,
        beacon_interval=0.3,
        client_probe_interval=1.5,
    )
    return SyntheticCity(engine, medium, config)


class TestCityGeneration:
    def test_population_scales(self):
        city = _small_city(scale=0.02)  # keep_all_vendors=False
        assert 60 <= city.population <= 180

    def test_vendor_floor_keeps_diversity(self):
        config = CityConfig(population_scale=0.02, keep_all_vendors=True)
        city = SyntheticCity(Engine(), Medium(Engine()), config)
        assert len({s.vendor for s in city.specs}) == 186

    def test_full_scale_population_is_5328(self):
        config = CityConfig(population_scale=1.0)
        city = SyntheticCity(Engine(), Medium(Engine()), config)
        # Careful: separate engines above would be a bug in user code, but
        # generation only needs the medium reference.
        assert city.population == 5328
        assert len(city.ap_specs) == 3805
        assert len(city.client_specs) == 1523

    def test_vendors_drawn_from_census(self):
        city = _small_city()
        vendors = {spec.vendor for spec in city.specs}
        assert vendors <= set(city.vendor_db.vendors())

    def test_macs_unique(self):
        city = _small_city(scale=0.05)
        macs = [spec.mac for spec in city.specs]
        assert len(set(macs)) == len(macs)

    def test_macs_carry_vendor_ouis(self):
        city = _small_city()
        for spec in city.specs[:50]:
            assert city.vendor_db.vendor_of(spec.mac) == spec.vendor

    def test_clients_attached_to_ap_channel(self):
        city = _small_city()
        ap_channels = {spec.mac: spec.channel for spec in city.ap_specs}
        for client in city.client_specs:
            assert client.bssid in ap_channels
            assert client.channel == ap_channels[client.bssid]

    def test_deterministic_generation(self):
        a = _small_city(seed=5)
        b = _small_city(seed=5)
        assert [s.mac for s in a.specs] == [s.mac for s in b.specs]

    def test_survey_route_covers_grid(self):
        city = _small_city()
        route = city.survey_route()
        assert route.duration > 10.0


class TestLazyActivation:
    def test_devices_near_vehicle_activate(self):
        city = _small_city(scale=0.05)
        route = city.survey_route(speed_mps=10.0)
        city.start(route)
        city.engine.run_until(10.0)
        assert city.active_count() > 0
        city.stop()
        assert city.active_count() == 0

    def test_coverage_grows_with_drive(self):
        city = _small_city(scale=0.05)
        route = city.survey_route(speed_mps=15.0)
        city.start(route)
        city.engine.run_until(5.0)
        early = city.coverage()
        city.engine.run_until(route.duration)
        late = city.coverage()
        city.stop()
        assert late >= early
        assert late > 0.5


class TestScanner:
    def test_discovers_beaconing_ap(self, engine, medium, rng, make_ap, make_dongle):
        ap = make_ap()
        dongle = make_dongle()
        scanner = PassiveScanner([dongle])
        ap.start_beaconing()
        engine.run_until(1.0)
        assert scanner.count(DeviceKind.ACCESS_POINT) == 1
        assert ap.mac in scanner.devices

    def test_discovers_probing_client(self, engine, make_station, make_dongle):
        station = make_station()
        dongle = make_dongle()
        scanner = PassiveScanner([dongle])
        station.start_probing(interval=0.3)
        engine.run_until(1.0)
        assert scanner.count(DeviceKind.CLIENT) == 1

    def test_discovery_callback_fires_once_per_device(
        self, engine, make_ap, make_dongle
    ):
        ap = make_ap()
        dongle = make_dongle()
        discoveries = []
        PassiveScanner([dongle], on_discovery=discoveries.append)
        ap.start_beaconing()
        engine.run_until(2.0)
        assert len(discoveries) == 1

    def test_kind_upgrade_to_ap(self, engine, make_ap, make_station, make_dongle):
        """A MAC first seen sending data is reclassified once it beacons."""
        ap = make_ap()
        dongle = make_dongle()
        scanner = PassiveScanner([dongle])
        # The AP first sends a unicast data frame (from_ds=False to fake
        # ambiguity), then starts beaconing.
        frame = DataFrame(
            addr1=MacAddress("02:31:00:00:00:01"), addr2=ap.mac, body=b"x"
        )
        ap.send(frame)
        engine.run_until(0.2)
        assert scanner.devices[ap.mac].kind is DeviceKind.CLIENT
        ap.start_beaconing()
        engine.run_until(1.0)
        assert scanner.devices[ap.mac].kind is DeviceKind.ACCESS_POINT

    def test_a_client_is_heard_until_its_first_beacon(
        self, engine, make_ap, make_dongle
    ):
        # The scanner ignores a source once it has recorded it as an AP:
        # a MAC recorded as a client keeps reaching it (its frames could
        # still prove it an AP), the first beacon upgrades it, and only
        # the later beacons are tallied at the dongle.
        ap = make_ap(behavior=ApBehavior(beacon_interval=0.1))
        dongle = make_dongle()
        scanner = PassiveScanner([dongle])
        ap.send(DataFrame(addr1=MacAddress("02:31:00:00:00:01"), addr2=ap.mac, body=b"x"))
        engine.run_until(0.2)
        stats = dongle.ack_engine.stats
        assert scanner.devices[ap.mac].kind is DeviceKind.CLIENT
        assert stats.frames_seen > 1  # the data frame and its retries
        assert dongle.radio.lanes[TALLY_NOT_FOR_ME] == 0
        heard = stats.frames_seen
        ap.start_beaconing()
        engine.run_until(1.0)
        beacons = dongle.ack_engine.stats.frames_seen - heard
        assert scanner.devices[ap.mac].kind is DeviceKind.ACCESS_POINT
        assert beacons == 8
        assert dongle.radio.lanes[TALLY_NOT_FOR_ME] == beacons - 1

    def test_a_listener_without_a_promise_hears_every_frame(
        self, engine, make_ap, make_dongle
    ):
        ap = make_ap(behavior=ApBehavior(beacon_interval=0.1))
        dongle = make_dongle()
        scanner = PassiveScanner([dongle])
        heard = []
        dongle.add_listener(lambda frame, reception: heard.append(frame))
        ap.start_beaconing()
        engine.run_until(1.0)
        assert scanner.count(DeviceKind.ACCESS_POINT) == 1
        assert dongle.radio.lanes[SOURCE_SET] is None
        assert dongle.radio.lanes[TALLY_NOT_FOR_ME] == 0
        assert len(heard) == dongle.ack_engine.stats.frames_seen == 10


class TestWardrivePipeline:
    @pytest.fixture(scope="class")
    def survey_results(self):
        city = _small_city(scale=0.02)
        pipeline = WardrivePipeline(
            city,
            WardriveConfig(probe_attempts=4, max_probe_rounds=8),
        )
        results = pipeline.run()
        return city, pipeline, results

    def test_no_static_radio_memoizes_a_budget_to_the_moving_rig(self):
        # Under free space a mobile radio's budgets are recomputed on
        # every transmission, and the rig resolves its own sends cold.
        city = _small_city(scale=0.02)
        pipeline = WardrivePipeline(city, WardriveConfig())
        medium = city.medium
        seen = []

        def look() -> None:
            entries = list(medium._entries.values())
            rig = [entry for entry in entries if entry.static_pos is None]
            held = sum(
                peer.static_pos is None for entry in entries for peer in entry.links
            )
            rig_memo = sum(len(entry.links) + len(entry.lists) for entry in rig)
            seen.append((len(entries) - len(rig), held, rig_memo))

        for k in range(1, 20):
            city.engine.call_at(2.0 * k, look)
        pipeline.run()
        assert sum(static for static, _, _ in seen) > 100  # mid-drive looks
        assert [(held, memo) for _, held, memo in seen] == [(0, 0)] * len(seen)

    def test_the_rig_hands_up_only_what_it_does_not_know(self, monkeypatch):
        # Frames from an AP the scanner has recorded are tallied at the
        # rig, never handed up: its dongles take the scalar path only for
        # frames without a source (the ACKs the probes elicit) and frames
        # of sources not known as APs yet (each discovery among them).
        # The rig's counters read as when every frame was handed up.
        city = _small_city(scale=0.02)
        pipeline = WardrivePipeline(city, WardriveConfig())
        scanner = pipeline.scanner
        rig = {dongle.radio for dongle, _ in pipeline._units}
        handed_up = Counter()
        on_reception = Radio.on_reception

        def count(radio, reception):
            if radio in rig:
                source = reception.frame.src_u64()
                if source is None:
                    handed_up["no source"] += 1
                elif source in scanner._ap_sources:
                    handed_up["known AP"] += 1
                else:
                    handed_up["unknown"] += 1
            on_reception(radio, reception)

        monkeypatch.setattr(Radio, "on_reception", count)
        results = pipeline.run()
        assert [
            (dongle.ack_engine.stats, dongle.radio.frames_delivered)
            for dongle, _ in pipeline._units
        ] == [
            (AckEngineStats(frames_seen=3306, fcs_failures=131), 3306),
            (AckEngineStats(frames_seen=3566, fcs_failures=25), 3566),
            (AckEngineStats(frames_seen=4259, fcs_failures=245), 4259),
        ]
        assert handed_up["known AP"] == 0
        assert len(scanner.devices) == len(results.responded) == 91
        assert handed_up["no source"] >= len(results.responded)  # one ACK each
        assert handed_up["unknown"] >= len(scanner.devices)
        assert sum(handed_up.values()) < 0.1 * (3306 + 3566 + 4259)

    def test_discovers_most_of_the_city(self, survey_results):
        city, pipeline, results = survey_results
        reachable = sum(1 for spec in city.specs if spec.ever_activated)
        assert results.total_discovered >= 0.8 * reachable

    def test_every_probed_device_responded(self, survey_results):
        """The paper's headline: 5,328/5,328.  At unit scale: all probed
        devices ACK."""
        city, pipeline, results = survey_results
        assert len(results.probed) > 0
        assert results.response_rate == 1.0
        assert results.non_responders() == []

    def test_both_kinds_discovered(self, survey_results):
        city, pipeline, results = survey_results
        assert results.count(DeviceKind.ACCESS_POINT) > 0
        assert results.count(DeviceKind.CLIENT) > 0

    def test_vendor_census_renders(self, survey_results):
        city, pipeline, results = survey_results
        table = results.to_table(top=5)
        assert "WiFi Client Device" in table
        assert "Total" in table


class TestSurveyResults:
    def test_empty_results(self):
        results = SurveyResults()
        assert results.response_rate == 0.0
        assert results.vendor_census(DeviceKind.CLIENT) == []
