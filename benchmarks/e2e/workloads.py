"""The four e2e workloads: what one unit runs and how its outputs are judged.

A *unit* is one run of a workload in a fresh interpreter (``unit.py``),
exactly what a user pays for ``python -m repro run ...``.  Every unit of a
benchmark run uses the same scenario seed, so its outputs and exact
counters must repeat bit for bit; only the host times differ.

Unit kinds: ``plain`` (timed, untraced), ``traced`` (spans on),
``single`` (metro on one tile, the reference its tiled aggregates must
equal) and ``profile`` (under cProfile; sweep and metro then keep their
work in the unit's own process so the profile sees it).

Sizes are capped so one unit takes a few seconds and a timed window
holds several units; the full 5,328-device census takes tens of seconds
per run on a 2-core host, too long to repeat within one window.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: Figure 6 anchors (``benchmarks/bench_figure6_battery_drain.py``).
FLOOD_BASELINE_MAX_MW = 15.0
FLOOD_PEAK_MW = (330.0, 390.0)
FLOOD_AMPLIFICATION = (20.0, 60.0)

#: Aggregates a tiled metro run must share with its one-tile reference.
METRO_AGGREGATES = (
    "population", "vendors", "discovered", "probed", "responded", "vendors_responded",
)

#: Per-workload sizes as ``(full, smoke)`` pairs, indexed by the smoke flag.
#: The census is the Table 2 city at its full device density on a smaller
#: street grid: the census scaled to 0.1877 (1,095 devices, every one of
#: the 186 vendors kept) on 5x4 blocks, about 68 devices per street block
#: against the full city's 60.  One tile runs the ``wardrive-full`` code
#: path on the caller's engine (byte-identical at matched parameters).
#: Per transmission it does the full census's work: 53.7 arrivals against
#: 54.7, lane share 0.919 against 0.926, and every layer's share of the
#: traced time within two points of the full run's (README).
#: Capping ``wardrive-full`` with ``max_devices`` instead thins the city
#: to a fifth of that fanout.
CENSUS = (
    {"tiles_x": 1, "tiles_y": 1, "metro_scale": 0.1877, "blocks_x": 5, "blocks_y": 4},
    {"tiles_x": 1, "tiles_y": 1, "metro_scale": 0.001, "blocks_x": 3, "blocks_y": 1},
)
CENSUS_POPULATION = (1095, 241)
CENSUS_VENDORS = 186
FLOOD = (
    {"rates_pps": [0, 50, 200, 900], "duration_s": 10.0},
    {"rates_pps": [0, 50, 200, 900], "duration_s": 2.0},
)
SWEEP_RUNS = (24, 4)
SWEEP_WORKERS = 2
#: Metro keeps the tile geometry, not the density: 2x2 tiles over the full
#: census's 12x8-block grid, so each tile is wider than its 220 m halo, as
#: in the full metro run.  A dense city that fits one unit would be smaller
#: than two halos and make every tile simulate nearly the whole city.
METRO = (
    {
        "tiles_x": 2, "tiles_y": 2, "tile_workers": 2, "metro_scale": 1.0,
        "blocks_x": 12, "blocks_y": 8, "max_devices": 500, "epoch_s": 30.0,
    },
    {
        "tiles_x": 2, "tiles_y": 2, "tile_workers": 2, "metro_scale": 1.0,
        "blocks_x": 6, "blocks_y": 4, "max_devices": 80, "epoch_s": 30.0,
    },
)

Outputs = Dict[str, object]


@dataclass(frozen=True)
class Workload:
    """How to run one unit and how to judge what it produced."""

    #: ``(seed, smoke, kind, scratch) -> (outputs, extra)``.  ``outputs``
    #: are deterministic and feed the digest; ``extra`` holds host times.
    run: Callable[[int, bool, str, Path], Tuple[Outputs, Dict[str, object]]]
    #: ``(outputs, smoke) -> (attempted, succeeded, problems)``.
    judge: Callable[[Outputs, bool], Tuple[int, int, List[str]]]
    #: How simulated seconds combine over engines: independent runs add
    #: up ("sum"); tiles of one survey share one clock ("max").
    sim: str = "max"
    #: Processes that carry a plain or traced unit's load; ``single`` and
    #: ``profile`` units keep all their work in one process.
    processes: int = 1

    def cpus(self, kind: str) -> int:
        """How many CPUs a unit of this kind is pinned to."""
        return 1 if kind in ("single", "profile") else self.processes


def _scenario(name: str, seed: int, params: Dict[str, object]):
    from repro.scenario import run_scenario

    return run_scenario(name, seed=seed, params=params, quiet=True)


def _census_run(seed, smoke, kind, scratch):
    return dict(_scenario("wardrive-metro", seed, CENSUS[smoke]).outputs), {}


def _census_judge(outputs, smoke):
    problems = _all_verified(outputs, CENSUS_POPULATION[smoke])
    if outputs["vendors"] != CENSUS_VENDORS:
        problems.append(f"vendors {outputs['vendors']} != {CENSUS_VENDORS}")
    return int(outputs["population"]), int(outputs["responded"]), problems


def _all_verified(outputs: Outputs, population: int) -> List[str]:
    """The Table 2 claim at this size: every device, every vendor ACKs."""
    problems = []
    if outputs["population"] != population:
        problems.append(f"population {outputs['population']} != {population}")
    if outputs["responded"] != outputs["population"]:
        problems.append(
            f"{outputs['responded']} of {outputs['population']} devices verified"
        )
    if outputs["vendors_responded"] != outputs["vendors"]:
        problems.append(
            f"{outputs['vendors_responded']} of {outputs['vendors']} vendors verified"
        )
    return problems


def _flood_run(seed, smoke, kind, scratch):
    return dict(_scenario("battery", seed, FLOOD[smoke]).outputs), {}


def _flood_judge(outputs, smoke):
    problems = []
    baseline = outputs["baseline_power_mw"]
    peak = outputs["peak_power_mw"]
    amplification = outputs["amplification"]
    if not baseline < FLOOD_BASELINE_MAX_MW:
        problems.append(f"baseline {baseline:.1f} mW >= {FLOOD_BASELINE_MAX_MW} mW")
    if not FLOOD_PEAK_MW[0] <= peak <= FLOOD_PEAK_MW[1]:
        problems.append(f"900 pps point {peak:.1f} mW outside {FLOOD_PEAK_MW}")
    if not FLOOD_AMPLIFICATION[0] <= amplification <= FLOOD_AMPLIFICATION[1]:
        problems.append(f"amplification {amplification:.1f}x outside {FLOOD_AMPLIFICATION}")
    # Every fake frame the victim received must have been ACKed.
    return int(outputs["frames_received"]), int(outputs["acks_transmitted"]), problems


def _sweep_run(seed, smoke, kind, scratch):
    from repro.telemetry import CampaignConfig, run_campaign

    runs = SWEEP_RUNS[smoke]
    manifest = run_campaign(
        CampaignConfig(
            "wardrive",
            seeds=[seed * 1000 + k for k in range(runs)],
            # A closed loop on two workers; the profile pass runs inline.
            workers=1 if kind == "profile" else SWEEP_WORKERS,
            output_path=scratch / "sweep.json",
        )
    )
    aggregate = manifest["aggregate"]
    outputs = {"planned": runs, "runs": aggregate["runs"], "failed": aggregate["failed"]}
    outputs.update(aggregate["outputs"])
    outputs["counters"] = aggregate["metrics"]["counters"]
    extra = {
        "run_s": [run["duration_s"] for run in manifest["runs"]],
        "run_engine_s": [
            run["metrics"]["counters"].get("engine.run.wall_time_s", 0.0)
            for run in manifest["runs"]
        ],
    }
    return outputs, extra


def _sweep_judge(outputs, smoke):
    problems = []
    if outputs["failed"]:
        problems.append(f"{outputs['failed']} campaign runs failed")
    if outputs["runs"] + outputs["failed"] != outputs["planned"]:
        problems.append(f"{outputs['runs']} of {outputs['planned']} runs recorded")
    return int(outputs["planned"]), int(outputs["runs"]), problems


def _metro_run(seed, smoke, kind, scratch):
    params = dict(METRO[smoke])
    if kind == "single":
        params.update(tiles_x=1, tiles_y=1, tile_workers=1)
    elif kind == "profile":
        params["tile_workers"] = 1
    return dict(_scenario("wardrive-metro", seed, params).outputs), {}


def _metro_judge(outputs, smoke):
    problems = _all_verified(outputs, METRO[smoke]["max_devices"])
    return int(outputs["population"]), int(outputs["responded"]), problems


WORKLOADS: Dict[str, Workload] = {
    "census": Workload(_census_run, _census_judge),
    "flood": Workload(_flood_run, _flood_judge),
    "sweep": Workload(_sweep_run, _sweep_judge, sim="sum", processes=SWEEP_WORKERS),
    "metro": Workload(_metro_run, _metro_judge, processes=METRO[False]["tile_workers"]),
}
