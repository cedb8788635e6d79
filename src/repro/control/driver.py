"""The campaign driver: one process that runs a whole sharded fleet.

:func:`drive_campaign` takes a :class:`DriverConfig`, writes the
campaign spec to ``<out_dir>/campaign.json``, and spawns one ``python
-m repro campaign --spec-file ... --shard i/N --resume`` subprocess per
shard.  From then on it only *watches*: each shard's JSONL sidecar is
tailed incrementally (:class:`~repro.control.tailer.SidecarTailer`),
and sidecar activity — run records and the heartbeat thread's beats —
is the liveness signal.

Death has two faces, and the driver handles both the same way:

* the process **exited** without writing its shard manifest (crash,
  SIGKILL, nonzero exit);
* the process is **silent**: no sidecar record for longer than
  ``heartbeat_timeout_s``.  Since shards heartbeat from a dedicated
  thread even mid-run, silence means hung or dead — a merely *slow*
  shard keeps beating and is never shot (the false-positive case the
  tests pin).  A silent shard is SIGKILLed before relaunch so two
  processes never write one sidecar.

Either way the shard's remaining slice is reassigned: the dead shard
is relaunched on the same shard index with ``--resume``.  Because the
round-robin split is deterministic (run *k* belongs to shard ``k %
N``) and completed runs replay from the sidecar, the steal is *exact*
— no run is lost, duplicated, or re-executed.  Each shard gets
``slice_retries`` relaunches; exhausting the budget raises
:class:`DriverError` (with the shard's log tail) rather than merging
a partial campaign.

When every shard has produced its manifest, the driver merges them via
:func:`~repro.telemetry.campaign.merge_manifest_files` — the same
identity-validating path as ``campaign merge`` — into
``<out_dir>/manifest.json``.  The end-to-end guarantee, pinned by
``tests/test_control_driver.py``: a driven campaign with a shard
SIGKILLed mid-run produces a merged aggregate **byte-identical** to an
unsharded run of the same campaign.

Throughout, the driver mirrors its view to ``<out_dir>/driver.json``
(atomic replace) so ``campaign status`` and the HTTP service can read
fleet state without touching the driver's memory.

The ``chaos_*`` knobs exist for the fault-injection tests and
``make control-smoke``: they SIGKILL (or SIGSTOP, simulating a hang)
one shard after its first run record, exercising the reassignment
machinery on demand.
"""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

import repro
from repro.scenario.registry import SCENARIO_MODULES_ENV
from repro.telemetry.campaign import (
    CampaignConfig,
    _is_run_record,
    merge_manifest_files,
    shard_manifest_path,
    sidecar_path,
)
from repro.telemetry.export import write_status

__all__ = ["DriverConfig", "DriverError", "drive_campaign"]

#: ``on_event`` callback: receives small dicts like
#: ``{"kind": "reassign", "shard": 2, ...}``.
EventFn = Callable[[Dict[str, object]], None]


class DriverError(RuntimeError):
    """The fleet cannot finish: a shard exhausted its relaunch budget
    (or the driver was misconfigured).  Completed runs stay on disk in
    the shard sidecars; a later ``drive`` over the same directory
    resumes them."""


@dataclass
class DriverConfig:
    """One driven campaign: the campaign, the fleet shape, and the
    driver's failure policy.

    ``campaign`` is what every shard runs a slice of; its transport
    knobs (workers, output path, resume, shard) are the driver's to set.
    The rest shape the fleet (``shards``, ``workers_per_shard``) and the
    driver's failure policy (``heartbeat_timeout_s``, ``slice_retries``).
    """

    #: Shard subprocesses heartbeat at ``campaign.heartbeat_s``, which
    #: must be set and well under ``heartbeat_timeout_s`` or every shard
    #: looks dead.
    campaign: CampaignConfig
    out_dir: Union[str, pathlib.Path]
    shards: int = 2
    workers_per_shard: int = 1
    #: A shard with no sidecar record for this long is declared dead,
    #: SIGKILLed, and relaunched.  Keep it a comfortable multiple of
    #: ``campaign.heartbeat_s``.
    heartbeat_timeout_s: float = 30.0
    #: Until a shard's *first* sidecar record, the effective timeout is
    #: ``max(heartbeat_timeout_s, startup_grace_s)``: interpreter boot
    #: and imports produce no sidecar output, and a tight heartbeat
    #: timeout must not shoot a shard that is merely still starting.
    startup_grace_s: float = 30.0
    #: Driver monitor-loop cadence (also the driver.json refresh rate).
    poll_s: float = 0.1
    #: Relaunches allowed per shard before the drive fails.
    slice_retries: int = 1
    #: Extra modules shard subprocesses import for scenario registration
    #: (exported as ``REPRO_SCENARIO_MODULES``); needed whenever the
    #: scenario is not in ``repro.scenario.library``.
    scenario_modules: Sequence[str] = ()
    #: Prepended to the subprocesses' ``PYTHONPATH`` (after repro's own
    #: src directory) so ``scenario_modules`` resolve.
    extra_pythonpath: Sequence[str] = ()
    #: Fault injection: SIGKILL this shard index after its first run
    #: record (once), proving the slice steal end to end.
    chaos_kill_shard: Optional[int] = None
    #: Fault injection: SIGSTOP this shard instead — a hang, not a
    #: crash; the process lingers but its heartbeats stop.
    chaos_stop_shard: Optional[int] = None

    def validate(self) -> None:
        self.campaign.validate()
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards!r}")
        if self.workers_per_shard < 1:
            raise ValueError(
                f"workers_per_shard must be >= 1, got {self.workers_per_shard!r}"
            )
        heartbeat_s = self.campaign.heartbeat_s
        if heartbeat_s is None:
            raise ValueError(
                "a driven campaign needs heartbeat_s: the driver tells a "
                "slow shard from a dead one by its heartbeats"
            )
        if self.heartbeat_timeout_s <= heartbeat_s:
            raise ValueError(
                f"heartbeat_timeout_s ({self.heartbeat_timeout_s!r}) must "
                f"exceed heartbeat_s ({heartbeat_s!r}), else live "
                f"shards look dead"
            )
        if self.poll_s <= 0:
            raise ValueError(f"poll_s must be positive, got {self.poll_s!r}")
        if self.startup_grace_s < 0:
            raise ValueError(
                f"startup_grace_s must be >= 0, got {self.startup_grace_s!r}"
            )
        if self.slice_retries < 0:
            raise ValueError(
                f"slice_retries must be >= 0, got {self.slice_retries!r}"
            )
        for knob, value in (
            ("chaos_kill_shard", self.chaos_kill_shard),
            ("chaos_stop_shard", self.chaos_stop_shard),
        ):
            if value is not None and not 0 <= value < self.shards:
                raise ValueError(
                    f"{knob} must be a shard index in [0, {self.shards}), "
                    f"got {value!r}"
                )


class _Shard:
    """The driver's view of one shard: process, tailer, attempt count."""

    def __init__(self, index: int, manifest: pathlib.Path) -> None:
        from repro.control.tailer import SidecarTailer

        self.index = index
        self.manifest = manifest
        self.tailer = SidecarTailer(sidecar_path(manifest))
        self.proc: Optional[subprocess.Popen] = None
        self.log: Optional[object] = None
        self.log_path: Optional[pathlib.Path] = None
        self.state = "pending"
        self.attempts = 0
        self.runs = 0
        self.last_activity = 0.0
        self.saw_output = False
        self.chaos_pending = False

    def snapshot(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "state": self.state,
            "attempts": self.attempts,
            "runs": self.runs,
            "pid": self.proc.pid if self.proc else None,
            "last_activity_unix": self.last_activity or None,
            "manifest": str(self.manifest) if self.manifest.exists() else None,
        }


def _subprocess_env(config: DriverConfig) -> Dict[str, str]:
    """The shard environment: repro importable, scenario modules known."""
    env = dict(os.environ)
    src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
    paths = [src_dir, *map(str, config.extra_pythonpath)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    modules = [
        m.strip()
        for m in env.get(SCENARIO_MODULES_ENV, "").split(",")
        if m.strip()
    ]
    modules += [str(m) for m in config.scenario_modules]
    if modules:
        env[SCENARIO_MODULES_ENV] = ",".join(dict.fromkeys(modules))
    return env


def _log_tail(path: Optional[pathlib.Path], lines: int = 15) -> str:
    if path is None or not path.exists():
        return "(no shard log)"
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return "(shard log unreadable)"
    tail = text.strip().splitlines()[-lines:]
    return "\n".join(tail) if tail else "(shard log empty)"


def drive_campaign(
    config: DriverConfig, on_event: Optional[EventFn] = None
) -> Dict[str, object]:
    """Run a full sharded campaign under supervision; return the merge.

    Blocks until every shard's slice is complete and merged (or raises
    :class:`DriverError`).  The result carries the merged manifest, its
    path, and the fleet accounting the fault tests assert on
    (``reassignments``, per-shard ``attempts``).
    """
    config.validate()
    campaign = config.campaign
    plan_runs = len(campaign.expand())
    _check_scenario(config)

    out_dir = pathlib.Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec_path = write_status(campaign.to_spec_dict(), out_dir / "campaign.json")
    merged_path = out_dir / "manifest.json"

    def emit(kind: str, **fields: object) -> None:
        if on_event is not None:
            on_event({"kind": kind, **fields})

    shards = [
        _Shard(i, shard_manifest_path(merged_path, i, config.shards))
        for i in range(config.shards)
    ]
    env = _subprocess_env(config)
    started = time.time()
    reassignments = 0

    def spawn(shard: _Shard) -> None:
        shard.attempts += 1
        shard.tailer.reset()
        shard.runs = 0
        shard.log_path = out_dir / f"shard{shard.index + 1}of{config.shards}.log"
        shard.log = open(shard.log_path, "a", encoding="utf-8")
        shard.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "campaign",
                "--spec-file",
                str(spec_path),
                "--shard",
                f"{shard.index + 1}/{config.shards}",
                "--out",
                str(merged_path),
                "--resume",
                "--workers",
                str(config.workers_per_shard),
            ],
            stdout=shard.log,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=str(out_dir),
        )
        shard.state = "running"
        shard.last_activity = time.time()
        shard.saw_output = False
        shard.chaos_pending = shard.index in (
            config.chaos_kill_shard,
            config.chaos_stop_shard,
        ) and shard.attempts == 1
        emit(
            "spawn",
            shard=shard.index,
            attempt=shard.attempts,
            pid=shard.proc.pid,
        )

    def write_driver_status(state: str) -> None:
        write_status(
            {
                "state": state,
                "campaign": campaign.name or campaign.scenario,
                "scenario": campaign.scenario,
                "shard_count": config.shards,
                "plan_runs": plan_runs,
                "started_unix": started,
                "updated_unix": time.time(),
                "reassignments": reassignments,
                "heartbeat_timeout_s": config.heartbeat_timeout_s,
                "slice_retries": config.slice_retries,
                "spec": str(spec_path),
                "manifest": str(merged_path) if merged_path.exists() else None,
                "shards": [shard.snapshot() for shard in shards],
            },
            out_dir / "driver.json",
        )

    def declare_dead(shard: _Shard, reason: str) -> None:
        nonlocal reassignments
        if shard.proc is not None and shard.proc.poll() is None:
            shard.proc.kill()  # SIGKILL also fells a SIGSTOPped process
            shard.proc.wait()
        if shard.log is not None:
            shard.log.close()
            shard.log = None
        emit("dead", shard=shard.index, reason=reason)
        if shard.attempts > config.slice_retries:
            shard.state = "failed"
            write_driver_status("failed")
            raise DriverError(
                f"shard {shard.index + 1}/{config.shards} died "
                f"({reason}) and its relaunch budget "
                f"({config.slice_retries}) is spent; last log lines:\n"
                f"{_log_tail(shard.log_path)}"
            )
        reassignments += 1
        emit(
            "reassign",
            shard=shard.index,
            attempt=shard.attempts + 1,
            reason=reason,
        )
        spawn(shard)

    try:
        for shard in shards:
            spawn(shard)
        write_driver_status("running")
        while any(s.state == "running" for s in shards):
            time.sleep(config.poll_s)
            now = time.time()
            for shard in shards:
                if shard.state != "running":
                    continue
                records = shard.tailer.poll()
                if records:
                    shard.last_activity = now
                    shard.saw_output = True
                    shard.runs += sum(map(_is_run_record, records))
                if shard.chaos_pending and shard.runs >= 1:
                    shard.chaos_pending = False
                    if shard.index == config.chaos_kill_shard:
                        emit("chaos-kill", shard=shard.index)
                        shard.proc.kill()
                    else:
                        emit("chaos-stop", shard=shard.index)
                        os.kill(shard.proc.pid, signal.SIGSTOP)
                returncode = shard.proc.poll()
                if returncode is not None:
                    # Final drain: the manifest write and the last runs
                    # may have landed after the previous poll.
                    if shard.tailer.poll():
                        shard.last_activity = now
                    if shard.manifest.exists():
                        shard.state = "done"
                        if shard.log is not None:
                            shard.log.close()
                            shard.log = None
                        emit(
                            "done",
                            shard=shard.index,
                            returncode=returncode,
                            runs=shard.runs,
                        )
                    else:
                        declare_dead(
                            shard,
                            f"exited with code {returncode} before writing "
                            f"its manifest",
                        )
                else:
                    allowed = (
                        config.heartbeat_timeout_s
                        if shard.saw_output
                        else max(
                            config.heartbeat_timeout_s, config.startup_grace_s
                        )
                    )
                    if now - shard.last_activity > allowed:
                        declare_dead(
                            shard,
                            f"no sidecar activity for "
                            f"{now - shard.last_activity:.1f}s "
                            f"(timeout {allowed}s)",
                        )
            write_driver_status("running")
        merged = merge_manifest_files(
            [shard.manifest for shard in shards], output_path=merged_path
        )
        emit("merged", manifest=str(merged_path), runs=len(merged["runs"]))
        write_driver_status("done")
    finally:
        for shard in shards:
            if shard.proc is not None and shard.proc.poll() is None:
                shard.proc.kill()
                shard.proc.wait()
            if shard.log is not None:
                shard.log.close()
                shard.log = None
    return {
        "manifest": merged,
        "manifest_path": str(merged_path),
        "out_dir": str(out_dir),
        "plan_runs": plan_runs,
        "reassignments": reassignments,
        "shard_attempts": {shard.index: shard.attempts for shard in shards},
    }


def _check_scenario(config: DriverConfig) -> None:
    """Fail fast on a scenario name nothing will ever resolve.

    Out-of-tree scenarios (``scenario_modules`` set) are resolved by
    the shard subprocesses, not here — the driver process may not have
    them importable — so the check only applies to supposedly built-in
    names."""
    if config.scenario_modules:
        return
    from repro.scenario import REGISTRY
    from repro.scenario.registry import UnknownScenarioError

    try:
        REGISTRY.get(config.campaign.scenario)
    except UnknownScenarioError as exc:
        raise DriverError(str(exc)) from None
