"""Built-in scenarios: the paper's headline results as registry entries.

Every figure and table the repro regenerates is one entry here.  Each is
seeded, sized to finish in roughly a second at its defaults,
campaign-safe (narration goes through ``ctx.say`` so workers stay
silent), and parameterizable via ``--param k=v``.  Each entry's
``param_schema`` is the single declaration of its parameters — type,
bounds and default — so the bodies below read ``ctx.params["x"]``
directly; ``python -m repro run --list`` prints the lot.

* ``probe``    — Figure 2: fake null frame → ACK within one SIFS;
* ``deauth``   — Figure 3: the AP barks deauths and ACKs anyway;
* ``battery``  — Figure 6: power vs fake-frame rate on the ESP8266;
* ``locate``   — ACK-timing trilateration of a victim device;
* ``wardrive`` — Table 2 shape: synthetic city, discover → inject →
  verify;
* ``wardrive-full`` — Table 2 at full scale: all 5,328 devices from the
  186-vendor census;
* ``wardrive-metro`` — the metro-scale census on the tiled multi-process
  medium (``docs/partitioning.md``).
"""

from __future__ import annotations

from typing import Dict

from repro.scenario.context import SimContext
from repro.scenario.params import (
    BoolParam,
    ChoiceParam,
    FloatListParam,
    FloatParam,
    IntParam,
)
from repro.scenario.registry import scenario
from repro.scenario.spec import PlacementSpec, ScenarioSpec

__all__ = [
    "probe",
    "deauth",
    "battery",
    "locate",
    "wardrive",
    "wardrive_full",
    "wardrive_metro",
]


@scenario(
    "probe",
    spec=ScenarioSpec(
        seed=0,
        trace=True,
        placements=[
            PlacementSpec(
                kind="station", role="victim", mac="f2:6e:0b:11:22:33", x=0, y=0
            ),
            PlacementSpec(
                kind="monitor_dongle", role="attacker",
                mac="02:dd:00:00:00:01", x=5, y=0,
            ),
        ],
    ),
    description="Figure 2 — a fake frame from a stranger is ACKed in one SIFS",
)
def probe(ctx: SimContext) -> Dict[str, object]:
    """The Figure 2 fake-frame → ACK exchange."""
    from repro.core.probe import PoliteWiFiProbe

    devices = ctx.place_devices()
    result = PoliteWiFiProbe(devices["attacker"]).probe(devices["victim"].mac)
    if ctx.verbose:
        ctx.say(ctx.trace.to_table())
        ctx.say(
            f"\nPolite WiFi: responded={result.responded}, "
            f"ACK after {result.ack_latency_s * 1e6:.0f} us"
        )
    return {
        "responded": int(result.responded),
        "attempts": result.attempts,
        "ack_latency_us": result.ack_latency_s * 1e6,
    }


@scenario(
    "deauth",
    spec=ScenarioSpec(
        seed=1,
        trace=True,
        duration_s=1.0,
        placements=[
            PlacementSpec(
                kind="access_point", role="ap", mac="0c:00:1e:00:00:01",
                x=0, y=0, z=2, options={"behavior": {"deauth_on_unknown": True}},
            ),
            PlacementSpec(
                kind="monitor_dongle", role="attacker",
                mac="02:dd:00:00:00:01", x=8, y=0,
            ),
        ],
    ),
    description="Figure 3 — the AP deauths the intruder yet still ACKs",
)
def deauth(ctx: SimContext) -> Dict[str, object]:
    """Figure 3: deauthentication bursts don't stop the ACKs."""
    from repro.core.injector import FakeFrameInjector

    devices = ctx.place_devices()
    FakeFrameInjector(devices["attacker"]).inject_null(devices["ap"].mac)
    ctx.run()
    deauths = ctx.trace.count_info("Deauthentication")
    acks = ctx.trace.count_info("Acknowledgement")
    if ctx.verbose:
        ctx.say(ctx.trace.to_table())
        ctx.say(
            f"\ndeauth frames: {deauths}, ACKs to the fake frame: {acks}"
        )
    return {"deauth_frames": deauths, "acks": acks}


@scenario(
    "battery",
    param_schema={
        "rates_pps": FloatListParam(minimum=0.0, default=[0.0, 50.0, 200.0]),
        "duration_s": FloatParam(minimum=0.0, exclusive_minimum=True, default=3.0),
        "distance_m": FloatParam(minimum=0.0, exclusive_minimum=True, default=12.0),
    },
    spec=ScenarioSpec(seed=42),
    description="Figure 6 — battery-drain sweep against one ESP8266",
)
def battery(ctx: SimContext) -> Dict[str, object]:
    """Figure 6: power vs fake-frame rate on a power-save IoT device."""
    from repro.core.battery import BatteryDrainAttack
    from repro.devices.access_point import AccessPoint
    from repro.devices.dongle import MonitorDongle
    from repro.devices.esp import Esp8266Device
    from repro.mac.addresses import MacAddress
    from repro.sim.world import Position

    params = ctx.params
    # The attacker's distance is a parameter, so these placements stay in
    # code; all wiring still comes from the context.
    engine, medium, rng = ctx.engine, ctx.medium, ctx.rng
    ap = AccessPoint(
        mac=MacAddress("0c:00:1e:00:00:02"),
        medium=medium, position=Position(0, 0, 2), rng=rng,
        ssid="IoTNet", passphrase="iot network key",
    )
    victim = Esp8266Device(
        mac=MacAddress("02:e8:26:60:00:01"),
        medium=medium, position=Position(5, 0, 1), rng=rng,
    )
    victim.connect(ap.mac, "IoTNet", "iot network key")
    engine.run_until(1.0)
    victim.enter_power_save()
    attacker = MonitorDongle(
        mac=MacAddress("02:dd:00:00:00:02"),
        medium=medium, position=Position(params["distance_m"], 0, 1), rng=rng,
    )
    attack = BatteryDrainAttack(attacker, victim)
    points = attack.sweep(
        rates_pps=params["rates_pps"], duration_s=params["duration_s"]
    )
    if ctx.verbose:
        ctx.say("rate (pkt/s)  power (mW)")
        for point in points:
            ctx.say(f"{point.rate_pps:>11.0f}  {point.average_power_mw:>9.1f}")
    peak = max(points, key=lambda p: p.average_power_mw)
    return {
        "baseline_power_mw": points[0].average_power_mw,
        "peak_power_mw": peak.average_power_mw,
        "amplification": BatteryDrainAttack.amplification(points),
        "acks_transmitted": sum(p.acks_transmitted for p in points),
        "frames_received": sum(p.frames_received for p in points),
    }


@scenario(
    "locate",
    param_schema={
        "probes_per_anchor": IntParam(minimum=1, default=60),
        "area_m": FloatParam(minimum=1.0, default=40.0),
    },
    spec=ScenarioSpec(
        seed=7,
        placements=[
            PlacementSpec(
                kind="station", role="victim", mac="f2:6e:0b:11:22:33",
                x=18.0, y=12.0, z=1.0,
            ),
            PlacementSpec(
                kind="monitor_dongle", role="attacker",
                mac="02:dd:00:00:00:03", x=0, y=0, z=1,
            ),
        ],
    ),
    description="ACK-timing trilateration of an uncooperative device",
)
def locate(ctx: SimContext) -> Dict[str, object]:
    """Localization through ACK time-of-flight from four anchors."""
    from repro.core.localization import AckRangingSensor, LocalizationAttack
    from repro.sim.world import Position

    area = ctx.params["area_m"]
    devices = ctx.place_devices()
    victim = devices["victim"]
    truth = victim.radio.current_position(0.0)
    attack = LocalizationAttack(AckRangingSensor(devices["attacker"]))
    result = attack.locate(
        victim.mac,
        anchor_positions=[
            Position(0, 0, 1), Position(area, 0, 1),
            Position(0, area, 1), Position(area, area, 1),
        ],
        probes_per_anchor=ctx.params["probes_per_anchor"],
        truth=truth,
    )
    if ctx.verbose:
        for m in result.measurements:
            ctx.say(
                f"anchor ({m.anchor.x:4.0f},{m.anchor.y:4.0f})  "
                f"range {m.distance_m:6.2f} m  (+/-{m.standard_error_m:.2f})"
            )
        ctx.say(
            f"\nvictim at ({truth.x:.1f}, {truth.y:.1f}); "
            f"estimated ({result.estimated.x:.1f}, {result.estimated.y:.1f}); "
            f"error {result.error_m:.2f} m"
        )
    return {
        "error_m": result.error_m,
        "estimated_x": result.estimated.x,
        "estimated_y": result.estimated.y,
    }


@scenario(
    "wardrive",
    param_schema={
        "population_scale": FloatParam(
            minimum=0.0, exclusive_minimum=True, maximum=1.0, default=0.01
        ),
        "keep_all_vendors": BoolParam(default=False),
        "blocks_x": IntParam(minimum=1, default=2),
        "blocks_y": IntParam(minimum=1, default=2),
        "beacon_interval": FloatParam(minimum=0.01, default=0.5),
        "probe_attempts": IntParam(minimum=1, default=4),
        "vehicle_speed_mps": FloatParam(minimum=0.1, default=14.0),
        "table_top": IntParam(minimum=1, default=10),
    },
    spec=ScenarioSpec(seed=2020, seed_medium=True, spans=True),
    description="Table 2 shape — wardrive a seeded synthetic city",
)
def wardrive(ctx: SimContext) -> Dict[str, object]:
    """Miniature Section 3 wardrive over a seeded synthetic city."""
    from repro.core.wardrive import WardriveConfig, WardrivePipeline
    from repro.survey.city import CityConfig, SyntheticCity

    params = ctx.params
    with ctx.tracer.span("build-city"):
        city = SyntheticCity(
            ctx.engine,
            ctx.medium,
            CityConfig(
                seed=ctx.spec.seed,
                population_scale=params["population_scale"],
                keep_all_vendors=params["keep_all_vendors"],
                blocks_x=params["blocks_x"],
                blocks_y=params["blocks_y"],
                beacon_interval=params["beacon_interval"],
            ),
        )
        pipeline = WardrivePipeline(
            city,
            WardriveConfig(
                probe_attempts=params["probe_attempts"],
                vehicle_speed_mps=params["vehicle_speed_mps"],
            ),
        )
    with ctx.tracer.span("drive"):
        results = pipeline.run()
    if ctx.verbose:
        ctx.say(results.to_table(top=params["table_top"]))
    return {
        "population": city.population,
        "discovered": results.total_discovered,
        "probed": len(results.probed),
        "responded": results.total_responded,
        "response_rate": results.response_rate,
    }


#: Parameters the full census shares with its metro-scale tiling.
_CENSUS_SCHEMA = {
    "max_devices": IntParam(minimum=1),  # default None: the whole census
    "beacon_interval": FloatParam(minimum=0.01, default=0.6),
    "client_probe_interval": FloatParam(minimum=0.01, default=2.5),
    "activate_radius_m": FloatParam(minimum=1.0, default=75.0),
    "deactivate_radius_m": FloatParam(minimum=1.0, default=110.0),
    "probe_attempts": IntParam(minimum=1, default=4),
    "max_probe_rounds": IntParam(minimum=1, default=8),
    "vehicle_speed_mps": FloatParam(minimum=0.1, default=14.0),
}


def _census_configs(ctx: SimContext, **city: object):
    """The ``(CityConfig, WardriveConfig)`` pair :data:`_CENSUS_SCHEMA`
    describes: every vendor kept, ``city`` adding the street grid and
    population scale."""
    from repro.core.wardrive import WardriveConfig
    from repro.survey.city import CityConfig

    params = ctx.params
    city_config = CityConfig(
        seed=ctx.spec.seed,
        keep_all_vendors=True,
        max_devices=params["max_devices"],
        beacon_interval=params["beacon_interval"],
        client_probe_interval=params["client_probe_interval"],
        activate_radius_m=params["activate_radius_m"],
        deactivate_radius_m=params["deactivate_radius_m"],
        **city,
    )
    wardrive_config = WardriveConfig(
        probe_attempts=params["probe_attempts"],
        max_probe_rounds=params["max_probe_rounds"],
        vehicle_speed_mps=params["vehicle_speed_mps"],
    )
    return city_config, wardrive_config


@scenario(
    "wardrive-full",
    param_schema={**_CENSUS_SCHEMA, "table_top": IntParam(minimum=1, default=15)},
    spec=ScenarioSpec(seed=2020, seed_medium=True, spans=True),
    description="Table 2 at full scale — 5,328 devices, 186 vendors, one city",
)
def wardrive_full(ctx: SimContext) -> Dict[str, object]:
    """The paper's full Section 3 survey: every Table 2 device, one drive.

    The full census (3,805 APs / 1,523 clients across 186 vendors) is
    generated up front; lazy activation keeps only devices near the
    vehicle attached, and the medium's batched arrival scheduling keeps
    the beacon fan-out to two heap entries per transmission, which is
    what makes the full city interactive.  ``max_devices`` caps the
    population for quick modes (CI) without changing the configuration.
    """
    from repro.core.wardrive import WardrivePipeline
    from repro.survey.city import SyntheticCity

    with ctx.tracer.span("build-city"):
        city_config, wardrive_config = _census_configs(ctx, population_scale=1.0)
        city = SyntheticCity(ctx.engine, ctx.medium, city_config)
        pipeline = WardrivePipeline(city, wardrive_config)
    vendors = len({spec.vendor for spec in city.specs})
    route = city.survey_route(pipeline.config.vehicle_speed_mps)
    ctx.say(
        f"city: {city.population} devices across {vendors} vendors; "
        f"route {route.duration:.0f} sim-seconds at "
        f"{pipeline.config.vehicle_speed_mps:g} m/s"
    )
    with ctx.tracer.span("drive"):
        results = pipeline.run()
    acked = results.responded & results.probed
    vendors_responded = len(
        {city.spec_of(mac).vendor for mac in acked if city.spec_of(mac) is not None}
    )
    if ctx.verbose:
        ctx.say(results.to_table(top=ctx.params["table_top"]))
    return {
        "population": city.population,
        "vendors": vendors,
        "discovered": results.total_discovered,
        "probed": len(results.probed),
        "responded": results.total_responded,
        "vendors_responded": vendors_responded,
        "response_rate": results.response_rate,
    }


@scenario(
    "wardrive-metro",
    param_schema={
        **_CENSUS_SCHEMA,
        "tiles_x": IntParam(minimum=1, default=4),
        "tiles_y": IntParam(minimum=1, default=3),
        "tile_workers": IntParam(minimum=1, default=1),
        "epoch_s": FloatParam(minimum=0.1, default=30.0),
        "metro_scale": FloatParam(minimum=0.0, exclusive_minimum=True, default=20.0),
        "blocks_x": IntParam(minimum=1, default=48),
        "blocks_y": IntParam(minimum=1, default=32),
        # One-shot fault injection for the chaos smoke / tests: kill (or
        # stall) one worker once and let the supervisor recover it.
        "chaos_kill_worker": IntParam(minimum=0),  # default None: no chaos
        "chaos_kill_epoch": IntParam(minimum=0, default=1),
        "chaos_kill_phase": ChoiceParam(
            ["boundary", "mid", "stop", "finish"], default="mid"
        ),
    },
    spec=ScenarioSpec(seed=2020, seed_medium=True, spans=True),
    description="Metro-scale census on the tiled multi-process medium",
)
def wardrive_metro(ctx: SimContext) -> Dict[str, object]:
    """A >=100k-device metro census on the spatially partitioned medium.

    The Table 2 census is scaled up ``metro_scale`` times over a larger
    street grid, cut into ``tiles_x x tiles_y`` tiles, and surveyed by
    one vehicle whose evidence crosses tile boundaries through the
    deterministic epoch bus (``repro.sim.partition``,
    ``docs/partitioning.md``).  ``tiles_x=tiles_y=1`` is byte-identical
    to the single-process ``wardrive-full`` path at matched city
    parameters; aggregates are tile- and worker-count independent
    (pinned by ``tests/test_partition.py``).  ``max_devices`` caps the
    population for quick modes without changing the configuration shape.
    """
    from repro.sim.partition import PartitionConfig, run_partitioned_wardrive

    params = ctx.params
    city_config, wardrive_config = _census_configs(
        ctx,
        blocks_x=params["blocks_x"],
        blocks_y=params["blocks_y"],
        population_scale=params["metro_scale"],
    )
    chaos = None
    if params["chaos_kill_worker"] is not None:
        chaos = {
            "worker": params["chaos_kill_worker"],
            "epoch": params["chaos_kill_epoch"],
            "phase": params["chaos_kill_phase"],
        }
    partition = PartitionConfig(
        tiles_x=params["tiles_x"],
        tiles_y=params["tiles_y"],
        tile_workers=params["tile_workers"],
        epoch_s=params["epoch_s"],
        chaos=chaos,
    )
    with ctx.tracer.span("drive"):
        outcome = run_partitioned_wardrive(
            ctx, city_config, wardrive_config, partition
        )
    by_mac = {spec.mac.bytes: spec for spec in outcome.specs}
    vendors = len({spec.vendor for spec in outcome.specs})
    acked = outcome.responded & outcome.probed
    vendors_responded = len(
        {by_mac[mac].vendor for mac in acked if mac in by_mac}
    )
    ctx.say(
        f"metro: {outcome.population} devices across {vendors} vendors; "
        f"{outcome.tiles_x}x{outcome.tiles_y} tiles on "
        f"{outcome.tile_workers} worker(s), {outcome.epochs} epochs"
    )
    return {
        "population": outcome.population,
        "vendors": vendors,
        "discovered": len(outcome.discovered),
        "probed": len(outcome.probed),
        "responded": len(outcome.responded),
        "vendors_responded": vendors_responded,
        "response_rate": (len(acked) / len(outcome.probed)) if outcome.probed else 0.0,
        "tiles": outcome.tiles_x * outcome.tiles_y,
        "tile_workers": outcome.tile_workers,
        "epochs": outcome.epochs,
        "idle_epochs": outcome.idle_epochs,
        "halo_radios": outcome.halo_radios,
        "relay_messages": outcome.relay_messages,
        "relay_applied": outcome.relay_applied,
        "relay_halo_tx": outcome.relay_halo_tx,
        "tiles_clamped": outcome.tiles_clamped,
        "recoveries": outcome.recoveries,
    }
