"""Table 2 — the city-scale survey: 5,328 devices, 186 vendors, all polite.

Paper: one hour of wardriving discovered 1,523 client devices from 147
vendors and 3,805 access points from 94 vendors; every single one of the
5,328 nodes responded to fake 802.11 frames with an acknowledgment.

We rebuild the city at full scale with exactly the paper's vendor census,
drive the 3-dongle rig over the whole street grid (with log-normal
shadowing and an SNR-driven frame-error model on every link, so probes
genuinely fail and retry), and regenerate the two-sided vendor table.

This is the heaviest benchmark (~5,300 radios, several simulated minutes
of city traffic); the drive takes about 10 s on a 2-vCPU host.
"""

from repro.core.wardrive import WardriveConfig, WardrivePipeline
from repro.devices.base import DeviceKind
from repro.survey.city import CityConfig, SyntheticCity

from benchmarks.conftest import once, sim_context


def _survey_city_config() -> CityConfig:
    """Full-scale city, tuned for tractable event counts.

    The tuning knobs (longer beacon/probe intervals, tight activation
    radius) thin out *background* traffic only; discovery needs a handful
    of emissions per device during the vehicle's pass, which these
    settings comfortably provide.
    """
    return CityConfig(
        seed=2020,
        blocks_x=12,
        blocks_y=8,
        block_m=90.0,
        population_scale=1.0,
        beacon_interval=2.0,
        client_probe_interval=4.0,
        activate_radius_m=60.0,
        deactivate_radius_m=80.0,
        activation_tick=1.0,
    )


def _run_wardrive():
    ctx = sim_context(
        seed=2020,
        spans=True,
        medium_seed=98,
        path_loss={
            "kind": "shadowed", "exponent": 2.8, "walls": 1,
            "sigma_db": 4.0, "seed": 99,
        },
        fer="snr",
    )
    with ctx.tracer.span("build-city"):
        city = SyntheticCity(ctx.engine, ctx.medium, _survey_city_config())
        pipeline = WardrivePipeline(
            city,
            WardriveConfig(
                probe_attempts=4, max_probe_rounds=8, vehicle_speed_mps=12.0
            ),
        )
    with ctx.tracer.span("drive"):
        results = pipeline.run()
    return city, pipeline, results, ctx.metrics, ctx.tracer


def test_table2_wardrive_survey(benchmark, report):
    city, pipeline, results, metrics, tracer = once(benchmark, _run_wardrive)

    # Population matches the paper exactly.
    assert city.population == 5328
    assert len(city.ap_specs) == 3805
    assert len(city.client_specs) == 1523

    # The drive covers the city.
    reachable = sum(1 for spec in city.specs if spec.ever_activated)
    assert reachable >= 0.99 * city.population

    # The headline, exactly: all 5,328 devices are discovered and probed,
    # and every one of them responds with an ACK.
    assert results.total_discovered == 5328
    assert len(results.probed) == 5328
    assert results.total_responded == 5328, (
        f"non-responders: {[str(d.mac) for d in results.non_responders()][:5]}"
    )

    # ... from all 186 vendors of Table 2's census.
    assert results.vendor_count() == 186
    client_census = results.vendor_census(DeviceKind.CLIENT, top=20)
    ap_census = results.vendor_census(DeviceKind.ACCESS_POINT, top=20)
    client_top = {row.vendor for row in client_census[:5]}
    ap_top = {row.vendor for row in ap_census[:5]}
    assert "Apple" in client_top or "Google" in client_top
    assert "Hitron" in ap_top or "Sagemcom" in ap_top

    # Telemetry sanity: the registry saw the same simulation the results
    # came from.
    snap = metrics.snapshot()
    assert snap["counters"]["ack.acks_sent"] >= results.total_responded
    assert snap["counters"]["engine.events.executed"] > 0

    # Counts print in full, so a change of a few arrivals shows in the
    # report; only the float counters (wall times, airtime) are rounded.
    counter_lines = "\n".join(
        f"  {name:<32} "
        + (f"{int(value):>14d}" if float(value).is_integer() else f"{value:>14.6g}")
        for name, value in snap["counters"].items()
    )
    report(
        "table2_wardrive",
        results.to_table(top=20)
        + f"\n\ncity population: {city.population} "
        f"({len(city.ap_specs)} APs / {len(city.client_specs)} clients); "
        f"reachable during drive: {reachable}; discovered: "
        f"{results.total_discovered}; probed: {len(results.probed)}; "
        f"responded: {results.total_responded} "
        f"({100 * results.response_rate:.2f}%)"
        + "\n\ntelemetry counters:\n" + counter_lines
        + "\n\nwall-clock spans:\n" + tracer.report(),
    )
