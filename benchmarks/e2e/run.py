"""End-to-end benchmark of the Polite WiFi simulator: census, flood, sweep, metro.

Run from the repository root (no install needed; ``src`` is put on the
path of every process)::

    python3 benchmarks/e2e/run.py --workload census --seed 0 --seconds 25 --trace 0
    python3 benchmarks/e2e/run.py --seed 0              # all four workloads
    python3 benchmarks/e2e/run.py --seed 0 --trace      # plus per-layer numbers
    python3 benchmarks/e2e/run.py --seed 0 --profile    # plus a cProfile pass
    python3 benchmarks/e2e/run.py --smoke --seconds 0   # tiny cities, one round

For each workload the command starts *units* -- one run of the workload
in a fresh ``unit.py`` interpreter, as a user pays for it -- one after the
other while the next one is expected to end within ``--seconds`` (at
least three untraced units), after one untimed warm-up unit.
Every unit uses the seed-derived inputs, so outputs and exact counters
must repeat; each end-to-end metric is the median over units.  A unit is
pinned to as many CPUs as it has loaded processes, and its times are
scaled to the reference CPU speed by a fixed loop timed on those CPUs
while it runs (:class:`SpeedProbe`).  With
``--trace 1`` the units alternate untraced / traced (/ one-tile for
metro), and the traced units give the per-layer numbers.

The metric names, units and bounds come from ``BENCHMARK.json``.  The
command prints a table, writes every sample to ``--out``, and prints as
its last line ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Any failed correctness gate makes it exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PYCACHE = OUT / "pycache"

UNIT_TIMEOUT_S = 120.0
#: Rounds of units per untraced run at least, whatever ``--seconds`` says.
MIN_ROUNDS = 3

#: Iterations of the reference loop, and how often it runs on each of a
#: unit's CPUs while the unit runs (about 2% of the CPU).
REFERENCE_LOOP_N = 20_000
REFERENCE_EVERY_S = 0.1
#: Every time metric is scaled by this over the loop's mean time on the
#: unit's own CPUs while the unit ran.  It is a round figure near that mean
#: on the reference host (2-vCPU shared VM, CPython 3.11) and only sets
#: the scale.
REFERENCE_LOOP_S = 0.002


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
def unit_cpus(count: int) -> List[int]:
    """The CPUs units of ``count`` processes are pinned to (the first ones)."""
    return sorted(os.sched_getaffinity(0))[:count]


class SpeedProbe:
    """Times a fixed pure-Python loop on each of ``cpus`` while a unit runs.

    The host is shared: each vCPU's speed drifts by up to 2x over seconds
    to minutes, independently of the other, and no steal time shows.  One
    thread per CPU, pinned to it, wakes every :data:`REFERENCE_EVERY_S`,
    preempts the unit there and times the loop in its own CPU time, so the
    loop slows exactly when and where the unit does.
    """

    def __init__(self, cpus: List[int]) -> None:
        self._stop = threading.Event()
        self.samples: Dict[int, List[float]] = {cpu: [] for cpu in cpus}
        self._threads = [
            threading.Thread(target=self._sample, args=(cpu,), daemon=True) for cpu in cpus
        ]

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        times = self.samples[cpu]
        while True:
            start = time.thread_time()
            total = 0
            for i in range(REFERENCE_LOOP_N):
                total += i * i % 7
            times.append(time.thread_time() - start)
            if self._stop.wait(REFERENCE_EVERY_S):
                return

    def __enter__(self) -> "SpeedProbe":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def loop_s(self) -> float:
        """The loop's mean time over the unit's CPUs."""
        return statistics.fmean(statistics.fmean(times) for times in self.samples.values())


# ----------------------------------------------------------------------
# Units
# ----------------------------------------------------------------------
def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of a unit's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_unit(job: Dict[str, object], cpus: List[int]) -> Dict[str, object]:
    """Start one unit pinned to ``cpus``, wait for it, return its record
    (``error`` on failure)."""
    scratch = Path(job["scratch"])
    scratch.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Imports read bytecode from one cache inside the checkout, whatever
    # the caller's bytecode settings: set-up time then measures what a
    # user with compiled modules pays, and only the untimed warm-up unit
    # compiles what changed.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    allowed = os.sched_getaffinity(0)
    with SpeedProbe(cpus) as probe:
        # The unit and every worker it forks inherit this thread's affinity.
        os.sched_setaffinity(0, cpus)
        t_spawn = time.monotonic()
        try:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "unit.py"), json.dumps(job)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                cwd=ROOT,
                start_new_session=True,
            )
        finally:
            os.sched_setaffinity(0, allowed)
        try:
            out, err = proc.communicate(timeout=UNIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            out, err = "", f"unit timed out after {UNIT_TIMEOUT_S:.0f} s"
        finally:
            _stop_group(proc)
            shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0 or not out.strip():
        return {"kind": job["kind"], "error": err.strip()[-2000:] or "no output"}
    record = json.loads(out.strip().splitlines()[-1])
    record["kind"] = job["kind"]
    record["t_spawn"] = t_spawn
    record["loop_s"] = probe.loop_s()
    return record


def collect_units(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool, scratch: Path
) -> List[Dict[str, object]]:
    """Run rounds of units while the next round still fits in ``seconds``."""
    workload = workloads.WORKLOADS[name]
    kinds = ["plain"]
    if traced:
        kinds.append("traced")
        if name == "metro":
            kinds.append("single")
    min_rounds = 1 if smoke or traced else MIN_ROUNDS
    cpus = unit_cpus(workload.processes)
    # Users import compiled modules: an untimed smoke unit first brings
    # the bytecode cache up to date with the code being measured.
    warm = run_unit({"workload": name, "seed": seed, "kind": "plain",
                     "smoke": True, "scratch": str(scratch / "unit-warm")}, cpus)
    if "error" in warm:
        return [warm]
    units: List[Dict[str, object]] = []
    start = time.monotonic()
    rounds = 0
    while True:
        for kind in kinds:
            job = {
                "workload": name, "seed": seed, "kind": kind, "smoke": smoke,
                "scratch": str(scratch / f"unit-{len(units)}"),
            }
            units.append(run_unit(job, cpus[:workload.cpus(kind)]))
            if "error" in units[-1]:
                return units
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return units


# ----------------------------------------------------------------------
# Derived numbers
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def engine_totals(unit: Dict[str, object], sim_mode: str) -> Dict[str, float]:
    """Exact tallies summed over every engine the unit ran."""
    engines = unit["probe"]["engines"]
    keys = ("events", "scheduled", "cancelled") + tracing.REGISTRY_COUNTERS
    totals = {key: sum(e.get(key, 0) for e in engines) for key in keys}
    sims = [e["sim_s"] for e in engines]
    # fsum: the sum must not depend on the order child files were read.
    totals["sim_s"] = math.fsum(sims) if sim_mode == "sum" else max(sims, default=0.0)
    return totals


def digest(unit: Dict[str, object], sim_mode: str) -> str:
    """sha256 over the outputs plus the exact engine tallies."""
    totals = engine_totals(unit, sim_mode)
    payload = {
        "outputs": unit["outputs"],
        **{key: totals[key] for key in ("events", "scheduled", "cancelled", "sim_s")},
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def e2e_sample(unit: Dict[str, object]) -> Dict[str, float]:
    """End-to-end numbers of one unit, times scaled to the reference CPU speed."""
    scale = REFERENCE_LOOP_S / unit["loop_s"]
    return {
        "setup_s": (unit["t_first"] - unit["t_spawn"]) * scale,
        "wall_s": (unit["t_done"] - unit["t_spawn"]) * scale,
        "peak_rss_mb": unit["rss_mb"],
    }


def raw_sample(unit: Dict[str, object]) -> Dict[str, float]:
    """The unscaled host times of one unit (kept in the result file)."""
    return {
        "setup_s": unit["t_first"] - unit["t_spawn"],
        "wall_s": unit["t_done"] - unit["t_spawn"],
        "loop_s": unit["loop_s"],
    }


def layer_sample(unit: Dict[str, object], sim_mode: str) -> Dict[str, float]:
    """Per-layer numbers of one traced unit (spans + exact counters)."""
    probe = unit["probe"]
    spans = probe["spans"]
    totals = engine_totals(unit, sim_mode)
    arrivals = totals["medium.frames.delivered"] + totals["medium.frames.dropped"]
    transmissions, _, transmit_s = spans["transmit"]
    scalar, _, scalar_s = spans["scalar_rx"]
    engine_s = spans["engine"][2]
    deliver_s = spans["deliver"][2]
    hits, misses = probe["link_cache"]
    verified = unit["outputs"].get("responded", 0)
    probes = spans["probe"][0]
    return {
        "engine.events": totals["events"],
        "engine.scheduled": totals["scheduled"],
        "engine.cancelled": totals["cancelled"],
        "engine.self_s": engine_s,
        "engine.us_per_event": _ratio(engine_s, totals["events"]) * 1e6,
        "medium.transmissions": transmissions,
        "medium.arrivals": arrivals,
        "medium.fanout": _ratio(arrivals, transmissions),
        "medium.dropped_frac": _ratio(totals["medium.frames.dropped"], arrivals),
        "medium.transmit_s": transmit_s,
        "medium.transmit_us": _ratio(transmit_s, transmissions) * 1e6,
        "medium.deliver_s": deliver_s,
        "medium.deliver_ns_per_arrival": _ratio(deliver_s, arrivals) * 1e9,
        "medium.attaches": spans["attach"][0],
        "medium.attach_s": spans["attach"][2],
        "medium.link_cache_hit_ratio": _ratio(hits, hits + misses),
        "ack.acks_sent": totals["ack.acks_sent"],
        "ack.scalar_receptions": scalar,
        "ack.lane_frac": 1.0 - _ratio(scalar, arrivals) if arrivals else 0.0,
        "ack.scalar_s": scalar_s,
        "ack.scalar_us": _ratio(scalar_s, scalar) * 1e6,
        "devices.built": spans["device"][0],
        "devices.build_s": spans["device"][2],
        "city.activations": probe["activations"],
        "city.generate_frac": _ratio(spans["generate"][1], probe["root_s"]),
        "wardrive.verified": verified,
        "wardrive.probes": probes,
        "wardrive.probes_per_verified": _ratio(probes, verified),
    }


def run_level(
    name: str, e2e: Dict[str, List[Dict[str, float]]], plain: List[dict]
) -> Dict[str, float]:
    """Per-layer numbers that compare kinds of units or read host extras.

    ``e2e`` maps each unit kind to its units' :func:`e2e_sample` values.
    Layers a workload never runs report 0.
    """
    def median(kind: str, key: str) -> float:
        return statistics.median(s[key] for s in e2e[kind])

    def busy(kind: str) -> List[float]:
        return [s["wall_s"] - s["setup_s"] for s in e2e[kind]]

    values = dict.fromkeys(
        (
            "campaign.runs", "campaign.failed", "campaign.run_setup_frac",
            "campaign.busy_frac", "partition.epochs", "partition.halo_tx",
            "partition.relay_messages", "partition.parallel_eff",
            "partition.tiled_over_single",
        ),
        0,
    )
    values["trace.overhead_frac"] = median("traced", "wall_s") / median("plain", "wall_s") - 1.0
    outputs = plain[0]["outputs"]
    if name == "sweep":
        run_s = [sum(u["extra"]["run_s"]) for u in plain]
        engine_s = [sum(u["extra"]["run_engine_s"]) for u in plain]
        values["campaign.runs"] = outputs["runs"]
        values["campaign.failed"] = outputs["failed"]
        # Share of each run spent outside the engine loop (scenario build).
        values["campaign.run_setup_frac"] = statistics.median(
            _ratio(r - e, r) for r, e in zip(run_s, engine_s)
        )
        # Share of the workers' time after set-up that runs were executing.
        values["campaign.busy_frac"] = statistics.median(
            _ratio(r, workloads.SWEEP_WORKERS * b) for r, b in zip(run_s, busy("plain"))
        )
    if name == "metro":
        values["partition.epochs"] = outputs["epochs"]
        values["partition.halo_tx"] = outputs["relay_halo_tx"]
        values["partition.relay_messages"] = outputs["relay_messages"]
        values["partition.tiled_over_single"] = (
            median("plain", "wall_s") / median("single", "wall_s")
        )
        # T1 / (p * Tp) over the time after set-up.
        values["partition.parallel_eff"] = _ratio(
            statistics.median(busy("single")),
            outputs["tile_workers"] * statistics.median(busy("plain")),
        )
    return values


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def check_repeats(by_kind: Dict[str, List[dict]], sim_mode: str) -> List[str]:
    """Untraced and traced units share one digest; one-tile metro units
    share another, and their aggregates equal the tiled ones."""
    problems = []
    digests = {kind: {digest(u, sim_mode) for u in units} for kind, units in by_kind.items()}
    if len(digests["plain"] | digests["traced"]) > 1:
        problems.append("outputs or exact counts differ between units")
    if len(digests["single"]) > 1:
        problems.append("one-tile metro outputs differ between units")
    for tiled in by_kind["plain"][:1]:
        for single in by_kind["single"][:1]:
            problems.extend(
                f"tiled {key}={tiled['outputs'][key]} != one-tile {single['outputs'][key]}"
                for key in workloads.METRO_AGGREGATES
                if tiled["outputs"][key] != single["outputs"][key]
            )
    return problems


def measure(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool,
    scratch: Path, profile: bool, units_of: Dict[str, str],
) -> Dict[str, object]:
    """Run one workload's units, check them, and reduce them to metrics."""
    workload = workloads.WORKLOADS[name]
    units = collect_units(name, seed, seconds, traced, smoke, scratch)
    problems: List[str] = []
    attempted = failed = 0
    for index, unit in enumerate(units):
        if "error" in unit:
            problems.append(f"unit {index} ({unit['kind']}) failed: {unit['error']}")
            attempted += 1
            failed += 1
            continue
        tried, succeeded, issues = workload.judge(unit["outputs"], smoke)
        problems.extend(f"unit {index} ({unit['kind']}): {issue}" for issue in issues)
        attempted += tried
        failed += tried if issues else tried - succeeded
    by_kind = {
        kind: [u for u in units if u["kind"] == kind and "error" not in u]
        for kind in ("plain", "traced", "single")
    }
    problems.extend(check_repeats(by_kind, workload.sim))
    metrics: Dict[str, Dict[str, object]] = {}
    raw: Dict[str, List[float]] = {}
    if not problems:
        e2e = {kind: [e2e_sample(u) for u in us] for kind, us in by_kind.items()}
        for key in e2e["plain"][0]:
            metrics[key] = _metric([s[key] for s in e2e["plain"]], units_of[key])
        raws = [raw_sample(u) for u in by_kind["plain"]]
        raw = {key: [s[key] for s in raws] for key in raws[0]}
    if traced and not problems:
        samples = [layer_sample(u, workload.sim) for u in by_kind["traced"]]
        for key in samples[0]:
            values = [s[key] for s in samples]
            if units_of[key] == "count" and len(set(values)) > 1:
                problems.append(f"{key} differs between traced units: {values}")
            metrics[key] = _metric(values, units_of[key])
        for key, value in run_level(name, e2e, by_kind["plain"]).items():
            metrics[key] = _metric([value], units_of[key])
    record: Dict[str, object] = {
        "workload": name, "seed": seed, "trace": int(traced), "smoke": smoke,
        "units": len(units),
        "digest": digest(by_kind["plain"][0], workload.sim) if by_kind["plain"] else "",
        "raw": raw,
    }
    if profile and not problems:
        unit = run_unit({
            "workload": name, "seed": seed, "kind": "profile", "smoke": smoke,
            "scratch": str(scratch / "unit-profile"),
        }, unit_cpus(workload.cpus("profile")))
        if "error" in unit:
            problems.append(f"profile unit failed: {unit['error']}")
        else:
            record["profile"] = unit["profile"]
    record.update(
        correct=not problems, attempted=max(attempted, 1), failed=failed,
        problems=problems, metrics=metrics,
    )
    return record


def _metric(values: List[float], unit: str) -> Dict[str, object]:
    record: Dict[str, object] = {
        "value": statistics.median(values), "unit": unit, "samples": values,
    }
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        record["q1"], record["q3"] = q1, q3
    return record


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def render(record: Dict[str, object]) -> str:
    lines = [
        f"== {record['workload']}  seed={record['seed']}  units={record['units']}  "
        f"correct={record['correct']}  failed={record['failed']}/{record['attempted']}  "
        f"digest={record['digest'][:16]}"
    ]
    lines.extend(f"   ! {problem}" for problem in record["problems"])
    for key, metric in record["metrics"].items():
        spread = ""
        if "q1" in metric:
            spread = f"  [q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}, n={len(metric['samples'])}]"
        lines.append(f"   {key:<32} {metric['value']:>14.6g} {metric['unit']}{spread}")
    for module, share in record.get("profile", {}).items():
        lines.append(f"   profile {module:<40} {share:6.1%}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny cities (tests)")
    parser.add_argument("--profile", action="store_true",
                        help="add one cProfile unit per workload (never gated)")
    parser.add_argument("--out", type=Path, default=OUT / "result.json")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        # Every unit would fail to import the simulator; stop before any
        # starts, so no result line is printed for a run that measured nothing.
        parser.error(f"{SRC / 'repro'} not found: run from the root of a full checkout")

    units_of = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    gated = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    scratch = OUT / f"scratch-{os.getpid()}"
    records = {}
    try:
        for name in [args.workload] if args.workload else names:
            records[name] = measure(
                name, args.seed, args.seconds, bool(args.trace), args.smoke,
                scratch / name, args.profile, units_of,
            )
            print(render(records[name]), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(
        json.dumps({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                    "smoke": args.smoke, "workloads": records}, indent=1) + "\n",
        encoding="utf-8",
    )
    correct = all(r["correct"] for r in records.values())
    prefix = len(records) > 1
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {
            (f"{name}.{key}" if prefix else key): {
                "value": r["metrics"][key]["value"], "unit": r["metrics"][key]["unit"],
            }
            for name, r in records.items() if r["correct"]
            for key in gated
        },
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
