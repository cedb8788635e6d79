"""The tiled partition layer (``repro.sim.partition``).

Pins the contract ``docs/partitioning.md`` documents: tile geometry is
total and activation-cell aligned, halos capture everything a tile's
owned devices can interact with, the bus delivers in an order
independent of worker placement, ``tiles=1`` is byte-identical to the
single-process path, and aggregates do not move across tile x worker
counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.wardrive import WardriveConfig, WardrivePipeline
from repro.devices.base import DeviceKind
from repro.mac.addresses import MacAddress
from repro.scenario.context import SimContext
from repro.scenario.registry import run_scenario
from repro.scenario.spec import ScenarioSpec
from repro.sim.engine import Engine
from repro.sim.medium import Medium
from repro.sim.partition import (
    BusMessage,
    PartitionConfig,
    TileBus,
    TileGrid,
    TilePlan,
    derive_run_token,
    run_partitioned_wardrive,
)
from repro.sim.world import Position
from repro.survey.city import CityConfig, DeviceSpec, SyntheticCity, generate_specs


def _tiny_city_config(**overrides) -> CityConfig:
    """A city small enough for sub-second tiled surveys."""
    base = dict(
        seed=2020,
        blocks_x=3,
        blocks_y=2,
        population_scale=0.005,
        keep_all_vendors=False,
        beacon_interval=0.5,
        activate_radius_m=90.0,
        deactivate_radius_m=130.0,
    )
    base.update(overrides)
    return CityConfig(**base)


def _run_tiled(city_config, tiles_x, tiles_y, tile_workers=1, epoch_s=8.0):
    ctx = SimContext(ScenarioSpec(seed=city_config.seed, seed_medium=True), quiet=True)
    outcome = run_partitioned_wardrive(
        ctx,
        city_config,
        WardriveConfig(vehicle_speed_mps=14.0),
        PartitionConfig(
            tiles_x=tiles_x,
            tiles_y=tiles_y,
            tile_workers=tile_workers,
            epoch_s=epoch_s,
        ),
    )
    return ctx, outcome


def _aggregate_key(outcome):
    return (
        outcome.population,
        sorted(outcome.discovered),
        sorted(outcome.probed),
        sorted(outcome.responded),
    )


# ----------------------------------------------------------------------
# Tile geometry
# ----------------------------------------------------------------------
class TestTileGrid:
    def test_every_point_owned_by_exactly_one_tile(self):
        grid = TileGrid(_tiny_city_config(), 2, 2)
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = float(rng.uniform(-500, 1000))
            y = float(rng.uniform(-500, 1000))
            tile = grid.tile_of(x, y)
            assert 0 <= tile < grid.n_tiles
            assert grid.rect_distance(tile, x, y) == 0.0
            others = [
                t
                for t in range(grid.n_tiles)
                if t != tile and grid.rect_distance(t, x, y) == 0.0
            ]
            # Shared edges may have zero distance to a neighbour, but
            # interior points belong to one rectangle only.
            for other in others:
                x0, y0, x1, y1 = grid.tile_rect(other)
                assert x in (x0, x1) or y in (y0, y1)

    def test_boundaries_align_to_activation_cells(self):
        config = _tiny_city_config(blocks_x=12, blocks_y=8, activate_radius_m=120.0)
        grid = TileGrid(config, 3, 2)
        for tile in range(grid.n_tiles):
            for edge in grid.tile_rect(tile):
                if np.isfinite(edge):
                    assert edge % config.activate_radius_m == 0.0

    def test_excess_tiles_clamp_to_cell_count(self):
        config = _tiny_city_config()  # 2x1 blocks of 90 m, 90 m cells
        grid = TileGrid(config, 64, 64)
        assert grid.tiles_x == grid.nx_cells
        assert grid.tiles_y == grid.ny_cells
        assert grid.n_tiles < 64 * 64
        assert grid.requested_x == grid.requested_y == 64
        assert grid.tiles_clamped == 64 * 64 - grid.n_tiles

    def test_clamp_surfaced_in_outcome_and_telemetry(self):
        """Requesting more tiles than activation cells must not clamp
        silently: the outcome carries the requested vs effective grid
        and the registry gains a partition.tiles_clamped counter."""
        config = _tiny_city_config()  # 2x1 cells: 3x2 request clamps to 2x1
        ctx, outcome = _run_tiled(config, 3, 2)
        assert (outcome.requested_tiles_x, outcome.requested_tiles_y) == (3, 2)
        assert (outcome.tiles_x, outcome.tiles_y) == (2, 1)
        assert outcome.tiles_clamped == 3 * 2 - 2 * 1
        counters = ctx.metrics.snapshot()["counters"]
        assert counters["partition.tiles_clamped"] == outcome.tiles_clamped

    def test_unclamped_grid_reports_zero_clamped(self):
        config = _tiny_city_config()
        ctx, outcome = _run_tiled(config, 2, 1)
        assert outcome.tiles_clamped == 0
        assert (outcome.requested_tiles_x, outcome.requested_tiles_y) == (2, 1)
        assert ctx.metrics.snapshot()["counters"]["partition.tiles_clamped"] == 0

    def test_rect_distance_is_euclidean_to_rectangle(self):
        config = _tiny_city_config(blocks_x=12, blocks_y=8, activate_radius_m=90.0)
        grid = TileGrid(config, 2, 1)
        boundary_x = grid.tile_rect(0)[2]
        assert np.isfinite(boundary_x)
        # 30 m left of the boundary: inside tile 0, 30 m from tile 1.
        assert grid.rect_distance(1, boundary_x - 30.0, 0.0) == pytest.approx(30.0)
        assert grid.rect_distance(0, boundary_x - 30.0, 0.0) == 0.0


class TestTilePlan:
    def _spec(self, order, x, y, kind=DeviceKind.ACCESS_POINT):
        mac = MacAddress(bytes([0x02, 0, 0, 0, order // 256, order % 256]))
        return DeviceSpec(
            mac=mac,
            vendor="v",
            kind=kind,
            position=Position(x, y, 3.0),
            channel=1,
            order=order,
        )

    def test_transmitter_straddling_a_tile_edge_lands_in_both_worlds(self):
        """A device whose radio range crosses the boundary must be owned
        by one tile and mirrored into the neighbour's halo."""
        config = _tiny_city_config(blocks_x=12, blocks_y=8, activate_radius_m=90.0)
        grid = TileGrid(config, 2, 1)
        boundary_x = grid.tile_rect(0)[2]
        halo_m = 100.0
        straddler = self._spec(0, boundary_x - 40.0, 50.0)  # 40 m into tile 0
        deep = self._spec(1, boundary_x - 300.0, 50.0)  # far from the edge
        plan = TilePlan(grid, [straddler, deep], halo_m)
        assert plan.owner_of[0] == 0 and plan.owner_of[1] == 0
        assert plan.halo[1] == [0]  # the straddler mirrors across; deep does not
        assert plan.halo[0] == []
        assert plan.halo_radio_count() == 1

    def test_halo_width_honoured_exactly(self):
        config = _tiny_city_config(blocks_x=12, blocks_y=8, activate_radius_m=90.0)
        grid = TileGrid(config, 2, 1)
        boundary_x = grid.tile_rect(0)[2]
        inside = self._spec(0, boundary_x - 99.0, 0.0)
        outside = self._spec(1, boundary_x - 101.0, 0.0)
        plan = TilePlan(grid, [inside, outside], 100.0)
        assert plan.halo[1] == [0]

    def test_owned_and_halo_sorted_by_order(self):
        config = _tiny_city_config(blocks_x=12, blocks_y=8)
        grid = TileGrid(config, 2, 2)
        specs = generate_specs(
            _tiny_city_config(blocks_x=12, blocks_y=8, population_scale=0.01)
        )
        plan = TilePlan(grid, specs, 150.0)
        assert sum(len(o) for o in plan.owned) == len(specs)
        for tile in range(grid.n_tiles):
            assert plan.owned[tile] == sorted(plan.owned[tile])
            assert plan.halo[tile] == sorted(plan.halo[tile])
            assert not set(plan.owned[tile]) & set(plan.halo[tile])


# ----------------------------------------------------------------------
# The bus
# ----------------------------------------------------------------------
class TestTileBus:
    def _msg(self, src, seq, dst, token, epoch=0):
        return BusMessage(
            epoch=epoch,
            src_tile=src,
            seq=seq,
            dst_tile=dst,
            payload=(b"\x02\x00\x00\x00\x00\x01", True),
            token=token,
        )

    def test_delivery_order_independent_of_ingest_order(self):
        token = derive_run_token(2020, 2, 2, 220.0, 30.0)
        messages = [self._msg(s, q, 3, token) for s in (2, 0, 1) for q in (1, 0)]
        bus_a = TileBus(4, token)
        bus_a.ingest(messages)
        bus_b = TileBus(4, token)
        bus_b.ingest(list(reversed(messages)))
        order_a = [(m.src_tile, m.seq) for m in bus_a.exchange(0)[3]]
        order_b = [(m.src_tile, m.seq) for m in bus_b.exchange(0)[3]]
        assert order_a == order_b == sorted(order_a)

    def test_foreign_run_token_rejected(self):
        token = derive_run_token(2020, 2, 2, 220.0, 30.0)
        other = derive_run_token(2021, 2, 2, 220.0, 30.0)
        assert token != other
        bus = TileBus(4, token)
        with pytest.raises(ValueError, match="token"):
            bus.ingest([self._msg(0, 0, 1, other)])

    def test_lost_barrier_detected(self):
        token = derive_run_token(2020, 2, 2, 220.0, 30.0)
        bus = TileBus(4, token)
        bus.ingest([self._msg(0, 0, 1, token, epoch=1)])
        with pytest.raises(ValueError, match="epoch"):
            bus.exchange(0)


# ----------------------------------------------------------------------
# Engine / medium hooks
# ----------------------------------------------------------------------
class TestHooks:
    def test_next_event_time_skips_cancelled_heads(self):
        engine = Engine()
        cancelled = engine.call_after(1.0, lambda: None)
        engine.call_after(2.0, lambda: None)
        cancelled.cancel()
        assert engine.next_event_time() == 2.0
        empty = Engine()
        assert empty.next_event_time() is None

    def test_transmit_observer_sees_every_transmission(self):
        from repro.devices.station import Station

        engine = Engine()
        medium = Medium(engine)
        seen = []
        medium.add_transmit_observer(lambda tx: seen.append(tx.sender))
        station = Station(
            mac=MacAddress("02:00:00:00:00:01"),
            medium=medium,
            position=Position(0, 0),
            rng=np.random.default_rng(0),
        )
        station.start_probing(0.5)
        engine.run_until(1.2)
        assert seen
        assert all(sender == str(station.mac) for sender in seen)
        assert len(seen) == medium.transmission_count


class TestExternalEvidence:
    def _pipeline(self):
        engine = Engine()
        medium = Medium(engine)
        city = SyntheticCity(engine, medium, _tiny_city_config())
        return WardrivePipeline(city, WardriveConfig())

    def test_preverified_before_discovery_skips_the_queue(self):
        pipeline = self._pipeline()
        mac = pipeline.city.specs[0].mac
        pipeline.apply_external_evidence(mac, True)
        from repro.survey.scanner import DiscoveredDevice

        record = DiscoveredDevice(
            mac=mac, kind="ap", vendor="v", channel=1, first_seen=0.0,
            first_rssi_dbm=-40.0,
        )
        pipeline._on_discovery(record)
        assert mac in pipeline.results.probed
        assert mac in pipeline.results.responded
        assert pipeline.pending_targets() == 0

    def test_evidence_after_discovery_dequeues_target(self):
        pipeline = self._pipeline()
        mac = pipeline.city.specs[0].mac
        from repro.survey.scanner import DiscoveredDevice

        record = DiscoveredDevice(
            mac=mac, kind="ap", vendor="v", channel=1, first_seen=0.0,
            first_rssi_dbm=-40.0,
        )
        pipeline._on_discovery(record)
        assert pipeline.pending_targets() == 1
        pipeline.apply_external_evidence(mac, True)
        assert pipeline.pending_targets() == 0
        assert mac in pipeline.results.responded

    def test_negative_evidence_keeps_own_probing(self):
        pipeline = self._pipeline()
        mac = pipeline.city.specs[0].mac
        pipeline.apply_external_evidence(mac, False)
        from repro.survey.scanner import DiscoveredDevice

        record = DiscoveredDevice(
            mac=mac, kind="ap", vendor="v", channel=1, first_seen=0.0,
            first_rssi_dbm=-40.0,
        )
        pipeline._on_discovery(record)
        assert pipeline.pending_targets() == 1
        assert mac not in pipeline.results.responded


# ----------------------------------------------------------------------
# Equivalence: tiles=1 is the single-process path, bytes included
# ----------------------------------------------------------------------
class TestSingleTileEquivalence:
    def test_tiles1_trace_byte_identical_to_wardrive_full(self):
        params = dict(max_devices=150)
        full = run_scenario(
            "wardrive-full", seed=2020, params=params, quiet=True, trace=True
        )
        metro = run_scenario(
            "wardrive-metro",
            seed=2020,
            params=dict(
                params, tiles_x=1, tiles_y=1, metro_scale=1.0, blocks_x=12,
                blocks_y=8,
            ),
            quiet=True,
            trace=True,
        )
        assert full.ctx.trace.records == metro.ctx.trace.records
        for key in ("population", "discovered", "probed", "responded",
                    "vendors", "vendors_responded"):
            assert full.outputs[key] == metro.outputs[key]

    def test_requested_tiles_clamped_to_one_still_single_path(self):
        config = _tiny_city_config(blocks_x=2, blocks_y=2)
        grid = TileGrid(config, 5, 5)
        # A 1-cell city cannot be tiled; the runner must take the
        # uninterrupted single-engine path.
        _, outcome = _run_tiled(config, grid.tiles_x, grid.tiles_y)
        assert outcome.epochs == 0
        assert outcome.tiles_x == outcome.tiles_y == 1
        assert outcome.tiles_clamped == 0  # clamp happened in TileGrid above
        _, direct = _run_tiled(config, 5, 5)
        assert (direct.requested_tiles_x, direct.requested_tiles_y) == (5, 5)
        assert direct.tiles_clamped == 24  # 5x5 requested, 1 effective


# ----------------------------------------------------------------------
# Tile/worker-count independence
# ----------------------------------------------------------------------
class TestPartitionDeterminism:
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        tiles_x=st.integers(min_value=1, max_value=3),
        tiles_y=st.integers(min_value=1, max_value=2),
    )
    def test_aggregates_identical_across_tile_counts(self, tiles_x, tiles_y):
        config = _tiny_city_config()
        _, reference = _run_tiled(config, 1, 1)
        _, tiled = _run_tiled(config, tiles_x, tiles_y)
        assert _aggregate_key(tiled) == _aggregate_key(reference)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_aggregates_identical_across_worker_counts(self, workers):
        config = _tiny_city_config()
        _, in_process = _run_tiled(config, 2, 2, tile_workers=1)
        _, multi = _run_tiled(config, 2, 2, tile_workers=workers)
        assert _aggregate_key(multi) == _aggregate_key(in_process)
        assert multi.relay_messages == in_process.relay_messages
        assert multi.relay_applied == in_process.relay_applied
        assert multi.tile_workers == min(workers, multi.tiles_x * multi.tiles_y)

    def test_tile_workers_inside_a_campaign_pool_fail_by_name(self):
        # Campaign pool workers are daemonic and may not start tile
        # workers: every run fails before tiling, naming the workaround.
        from repro.telemetry import CampaignConfig, run_campaign

        manifest = run_campaign(
            CampaignConfig(
                "wardrive-metro",
                seeds=[1, 2],
                workers=2,
                on_error="record",
                params={
                    "tiles_x": 2, "tiles_y": 1, "tile_workers": 2,
                    "metro_scale": 0.001, "blocks_x": 4, "blocks_y": 2,
                },
            )
        )
        runs = manifest["runs"]
        assert [run["status"] for run in runs] == ["failed", "failed"]
        for run in runs:
            assert run["error"]["type"] == "ValueError"
            assert "tile_workers=2" in run["error"]["message"]
            assert "--workers 1" in run["error"]["message"]

    def test_mobile_rig_crossing_tiles_mid_run(self):
        """The survey vehicle's serpentine route crosses every tile
        boundary; devices on both sides of each cut must still be
        discovered and verified exactly as in the untiled run."""
        config = _tiny_city_config(blocks_x=4, blocks_y=2)
        _, reference = _run_tiled(config, 1, 1)
        _, tiled = _run_tiled(config, 2, 1, epoch_s=5.0)
        assert tiled.tiles_x == 2
        grid = TileGrid(config, 2, 1)
        specs = generate_specs(config)
        by_mac = {spec.mac.bytes: spec for spec in specs}
        tiles_hit = {
            grid.tile_of(by_mac[mac].position.x, by_mac[mac].position.y)
            for mac in tiled.responded
        }
        assert tiles_hit == {0, 1}  # verified devices on both sides of the cut
        assert _aggregate_key(tiled) == _aggregate_key(reference)

    def test_epoch_length_does_not_change_aggregates(self):
        config = _tiny_city_config()
        _, coarse = _run_tiled(config, 2, 1, epoch_s=20.0)
        _, fine = _run_tiled(config, 2, 1, epoch_s=4.0)
        assert _aggregate_key(fine) == _aggregate_key(coarse)

    def test_partition_counters_published_to_caller_registry(self):
        config = _tiny_city_config()
        ctx, outcome = _run_tiled(config, 2, 2)
        snapshot = ctx.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["partition.tiles"] == outcome.tiles_x * outcome.tiles_y
        assert counters["partition.epochs"] == outcome.epochs
        assert counters["partition.relay.messages"] == outcome.relay_messages
        # Per-tile engine counters merged in: events were executed even
        # though the caller's context never built an engine.
        assert counters["engine.events.executed"] > 0
