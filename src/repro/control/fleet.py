"""Campaign status reconstructed from a campaign directory's artifacts.

``campaign status <dir>`` must answer "how is my sweep doing?" for a
campaign it does not control: one ``campaign`` process, shards run by
hand on N machines, a ``serve`` job, or any of them long dead.  So
:func:`fleet_status` takes *no* live handles — it reads what's on disk:

* ``*.runs.jsonl`` sidecars — per-shard progress (run records), shard
  identity and heartbeat interval (the ``campaign-meta`` line), and
  liveness (heartbeats + file mtime);
* ``campaign.json`` — the campaign spec, if one was written (``serve``
  writes one per job): names the scenario and sizes the full run plan.

The spec is optional; sidecars alone produce a usable view.  A shard
whose manifest exists is ``done`` with nothing pending, a missing
sidecar for a known shard reads as ``pending``, a torn trailing line is
skipped (shared sidecar parsing), and a shard whose last sign of life
is older than the stall threshold reads as ``stalled`` — a
*suspicion*, not a verdict: from disk, a dead process and a wedged one
look alike.
"""

from __future__ import annotations

import pathlib
import re
import time
from typing import Dict, List, Optional, Union

from repro.telemetry.campaign import (
    CampaignConfig,
    _is_run_record,
    parse_sidecar_text,
)

__all__ = ["fleet_status", "render_fleet_status"]

#: Fallback stall threshold when neither the sidecars nor the spec
#: declare a heartbeat interval.
_DEFAULT_STALL_AFTER_S = 30.0

#: Stalled = no activity for this many heartbeat intervals.
_STALL_HEARTBEATS = 4.0

_SHARD_NAME_RE = re.compile(r"\.shard(\d+)of(\d+)\.[^.]+\.runs\.jsonl$")


def _read_json(path: pathlib.Path) -> Optional[Dict[str, object]]:
    """A JSON object from ``path``, or ``None`` for missing/unreadable/
    non-object content (status must degrade, never crash)."""
    import json

    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def _inspect_sidecar(path: pathlib.Path) -> Dict[str, object]:
    """Everything one sidecar says about its shard (tolerant of torn
    trailing lines and of the file vanishing mid-read)."""
    info: Dict[str, object] = {
        "sidecar": str(path),
        "shard_index": None,
        "shard_count": None,
        "runs": 0,
        "failed": 0,
        "completed": None,
        "pending": None,
        "heartbeat_s": None,
        "last_heartbeat_unix": None,
        "last_activity_unix": None,
    }
    try:
        text = path.read_text(encoding="utf-8")
        mtime = path.stat().st_mtime
    except OSError:
        return info
    info["last_activity_unix"] = mtime
    for record in parse_sidecar_text(text):
        kind = record.get("kind")
        if kind == "campaign-meta":
            shard = record.get("shard")
            if isinstance(shard, dict):
                info["shard_index"] = shard.get("index")
                info["shard_count"] = shard.get("count")
            info["heartbeat_s"] = record.get("heartbeat_s")
        elif kind == "heartbeat":
            info["last_heartbeat_unix"] = record.get("unix")
            info["completed"] = record.get("completed")
            info["pending"] = record.get("pending")
        elif _is_run_record(record):
            info["runs"] = int(info["runs"]) + 1
            if record.get("status", "ok") != "ok":
                info["failed"] = int(info["failed"]) + 1
    beat = info["last_heartbeat_unix"]
    if isinstance(beat, (int, float)):
        info["last_activity_unix"] = max(float(mtime), float(beat))
    # The filename is a fallback identity for sidecars whose meta line
    # was torn away (out.shard1of4.json.runs.jsonl).
    if info["shard_index"] is None:
        match = _SHARD_NAME_RE.search(path.name)
        if match:
            info["shard_index"] = int(match.group(1)) - 1
            info["shard_count"] = int(match.group(2))
    return info


#: Partition knobs (docs/partitioning.md) surfaced by ``campaign
#: status`` when a sweep drives a tiled scenario such as wardrive-metro.
_TILING_KEYS = ("tiles_x", "tiles_y", "tile_workers")


def _tiling_of(config: CampaignConfig) -> Optional[Dict[str, object]]:
    """The sweep's tile/worker knobs, or ``None`` for untiled scenarios.

    A grid axis reports its full value list (the sweep covers them
    all); a plain param reports the single value every run shares.
    """
    values: Dict[str, object] = {}
    for key in _TILING_KEYS:
        if config.grid and key in config.grid:
            values[key] = list(config.grid[key])
        elif key in config.params:
            values[key] = config.params[key]
    return values or None


def _manifest_for(sidecar: pathlib.Path) -> pathlib.Path:
    """``out.shard1of2.json.runs.jsonl`` -> ``out.shard1of2.json``."""
    return sidecar.with_name(sidecar.name[: -len(".runs.jsonl")])


def fleet_status(
    campaign_dir: Union[str, pathlib.Path],
    stall_after_s: Optional[float] = None,
    now: Optional[float] = None,
) -> Dict[str, object]:
    """A point-in-time snapshot of one campaign directory.

    ``stall_after_s`` overrides the stall threshold (default: four
    heartbeat intervals, as the sidecars' meta lines or else the spec
    declare them; 30s when neither does); ``now`` pins the clock for
    tests.  The result is JSON-safe and serialized
    canonically by :func:`repro.telemetry.export.status_to_json`.
    """
    directory = pathlib.Path(campaign_dir)
    if not directory.is_dir():
        raise ValueError(f"not a campaign directory: {directory}")
    now = time.time() if now is None else now
    spec = _read_json(directory / "campaign.json")

    config: Optional[CampaignConfig] = None
    plan_runs: Optional[int] = None
    if spec is not None:
        try:
            config = CampaignConfig.from_spec_dict(spec)
            plan_runs = len(config.expand())
        except ValueError:
            config = None  # a broken spec degrades to sidecar-only status
    observed = [
        _inspect_sidecar(path)
        for path in sorted(directory.glob("*.runs.jsonl"))
    ]
    if stall_after_s is None:
        # The writers' own intervals first: a --heartbeat flag may have
        # overridden the spec's.
        beats = [
            float(info["heartbeat_s"])
            for info in observed
            if isinstance(info["heartbeat_s"], (int, float))
            and info["heartbeat_s"] > 0
        ]
        heartbeat_s = max(beats) if beats else (config and config.heartbeat_s)
        stall_after_s = (
            _STALL_HEARTBEATS * heartbeat_s
            if heartbeat_s
            else _DEFAULT_STALL_AFTER_S
        )
    shard_count: Optional[int] = None
    counts = {
        info["shard_count"]
        for info in observed
        if isinstance(info["shard_count"], int)
    }
    if len(counts) == 1:
        shard_count = counts.pop()

    by_index: Dict[Optional[int], Dict[str, object]] = {
        info["shard_index"]: info for info in observed
    }
    indices: List[Optional[int]] = (
        list(range(shard_count)) if shard_count else sorted(
            by_index, key=lambda i: (i is None, i)
        )
    )

    shards: List[Dict[str, object]] = []
    for index in indices:
        info = by_index.get(index)
        if info is None:
            entry: Dict[str, object] = {
                "index": index,
                "state": "pending",
                "sidecar": None,
                "runs": 0,
                "failed": 0,
                "completed": None,
                "pending": None,
                "heartbeat_s": None,
                "last_heartbeat_unix": None,
                "last_activity_unix": None,
                "age_s": None,
                "manifest": None,
            }
        else:
            manifest = _manifest_for(pathlib.Path(info["sidecar"]))
            last = info["last_activity_unix"]
            age = now - float(last) if isinstance(last, (int, float)) else None
            if manifest.exists():
                state = "done"
            elif age is not None and age > stall_after_s:
                state = "stalled"
            else:
                state = "running"
            entry = {
                **info,
                "state": state,
                "age_s": age,
                "manifest": str(manifest) if manifest.exists() else None,
            }
            if state == "done":
                entry["pending"] = 0  # the last heartbeat predates the end
            entry.pop("shard_index")
            entry.pop("shard_count")
            entry["index"] = index
        shards.append(entry)

    merged = directory / "manifest.json"
    states = [s["state"] for s in shards]
    if shards and all(state == "done" for state in states):
        overall = "done" if merged.exists() else "merge-pending"
    elif "stalled" in states:
        overall = "stalled"
    else:
        overall = "running"

    return {
        "dir": str(directory),
        "campaign": config and (config.name or config.scenario),
        "scenario": config and config.scenario,
        "generated_unix": now,
        "stall_after_s": stall_after_s,
        "plan_runs": plan_runs,
        "shard_count": shard_count,
        "tiling": config and _tiling_of(config),
        "state": overall,
        "shards": shards,
        "merged_manifest": str(merged) if merged.exists() else None,
    }


def _age_text(age: Optional[object]) -> str:
    if not isinstance(age, (int, float)):
        return "-"
    return f"{age:.1f}s ago"


def render_fleet_status(status: Dict[str, object]) -> str:
    """The ``campaign status`` table for one :func:`fleet_status` snapshot."""
    lines = [
        f"campaign : {status['campaign'] or '(no campaign.json)'}"
        + (f"  [scenario {status['scenario']}]" if status["scenario"] else ""),
        f"dir      : {status['dir']}",
        f"state    : {status['state']}"
        + (
            f"  ({status['plan_runs']} run(s) planned across "
            f"{status['shard_count']} shard(s))"
            if status["plan_runs"] is not None and status["shard_count"]
            else ""
        ),
    ]
    tiling = status.get("tiling")
    if tiling:
        lines.append(
            "tiling   : "
            + ", ".join(f"{key}={value}" for key, value in tiling.items())
        )
    shards = status["shards"]
    if not shards:
        lines.append("(no shard sidecars found)")
        return "\n".join(lines)
    lines.append(
        f"{'SHARD':<7} {'STATE':<9} {'RUNS':>5} {'FAILED':>7} "
        f"{'PENDING':>8} {'LAST ACTIVITY'}"
    )
    count = status["shard_count"]
    for shard in shards:
        index = shard["index"]
        label = (
            f"{index + 1}/{count}"
            if isinstance(index, int) and count
            else (str(index + 1) if isinstance(index, int) else "-")
        )
        pending = shard["pending"]
        lines.append(
            f"{label:<7} {shard['state']:<9} {shard['runs']:>5} "
            f"{shard['failed']:>7} "
            f"{pending if pending is not None else '-':>8} "
            f"{_age_text(shard['age_s'])}"
        )
    merged = status["merged_manifest"]
    lines.append(
        f"merged   : {merged if merged else '(not merged yet)'}"
    )
    return "\n".join(lines)
