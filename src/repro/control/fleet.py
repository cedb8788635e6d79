"""Campaign status reconstructed from a campaign directory's artifacts.

``campaign status <dir>`` must answer "how is my sweep doing?" for a
campaign it does not control: one ``campaign`` process, shards run by
hand on N machines, or any of them long dead.  So :func:`fleet_status`
takes *no* live handles — it reads what's on disk:

* ``*.runs.jsonl`` sidecars — per-shard progress (run records), the
  campaign's identity (the ``campaign-meta`` line: campaign, scenario,
  full plan size, shard identity, heartbeat interval), and liveness
  (heartbeats + file mtime);
* manifests — a shard's own manifest marks it ``done``; a sharded
  campaign is ``done`` once the merged ``manifest.json`` exists, an
  unsharded one once its own manifest does.

A missing sidecar for a known shard reads as ``pending``, a torn
trailing line is skipped (shared sidecar parsing), and a shard whose
last sign of life is older than the stall threshold reads as
``stalled`` — a *suspicion*, not a verdict: from disk, a dead process
and a wedged one look alike.
"""

from __future__ import annotations

import pathlib
import re
import time
from typing import Dict, List, Optional, Union

from repro.telemetry.campaign import _is_run_record, parse_sidecar_text

__all__ = ["fleet_status", "render_fleet_status"]

#: Fallback stall threshold when no sidecar declares a heartbeat
#: interval.
_DEFAULT_STALL_AFTER_S = 30.0

#: Stalled = no activity for this many heartbeat intervals.
_STALL_HEARTBEATS = 4.0

_SHARD_NAME_RE = re.compile(r"\.shard(\d+)of(\d+)\.[^.]+\.runs\.jsonl$")


def _inspect_sidecar(path: pathlib.Path) -> Dict[str, object]:
    """Everything one sidecar says about its shard (tolerant of torn
    trailing lines and of the file vanishing mid-read)."""
    info: Dict[str, object] = {
        "sidecar": str(path),
        "campaign": None,
        "scenario": None,
        "plan_runs": None,
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
            for key in ("campaign", "scenario", "plan_runs"):
                info[key] = record.get(key)
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
    heartbeat intervals, as the sidecars' meta lines declare them; 30s
    when none does); ``now`` pins the clock for tests.  Raises
    ``ValueError`` when the directory holds more than one campaign's
    sidecars (their meta lines disagree on campaign, scenario or plan
    size, two claim the same shard, or their shard counts differ): the
    view describes one campaign, with one row per shard.  The result is
    JSON-safe and serialized canonically by
    :func:`repro.telemetry.export.status_to_json`.
    """
    directory = pathlib.Path(campaign_dir)
    if not directory.is_dir():
        raise ValueError(f"not a campaign directory: {directory}")
    now = time.time() if now is None else now
    observed = [
        _inspect_sidecar(path)
        for path in sorted(directory.glob("*.runs.jsonl"))
    ]

    identity: Dict[str, object] = {}
    for key in ("campaign", "scenario", "plan_runs"):
        # A sidecar whose meta line was torn away says nothing here.
        told = [info for info in observed if info[key] is not None]
        identity[key] = told[0][key] if told else None
        for info in told[1:]:
            if info[key] != identity[key]:
                raise ValueError(
                    f"{told[0]['sidecar']} and {info['sidecar']} belong to "
                    f"different campaigns ({key} {identity[key]!r} vs "
                    f"{info[key]!r}); give each campaign its own directory"
                )

    if stall_after_s is None:
        beats = [
            float(info["heartbeat_s"])
            for info in observed
            if isinstance(info["heartbeat_s"], (int, float))
            and info["heartbeat_s"] > 0
        ]
        stall_after_s = (
            _STALL_HEARTBEATS * max(beats) if beats else _DEFAULT_STALL_AFTER_S
        )
    counts = {info["shard_count"] for info in observed}
    if len(counts) > 1:
        names = ", ".join(pathlib.Path(i["sidecar"]).name for i in observed)
        raise ValueError(
            f"{directory} mixes sidecars of differently sharded campaigns "
            f"({names}); give each campaign its own directory"
        )
    shard_count: Optional[int] = counts.pop() if counts else None
    by_index: Dict[Optional[int], Dict[str, object]] = {}
    for info in observed:
        index = info["shard_index"]
        other = by_index.setdefault(index, info)
        if other is not info:
            what = "unsharded" if index is None else f"shard index {index!r}"
            raise ValueError(
                f"{other['sidecar']} and {info['sidecar']} are both "
                f"{what}; give each campaign its own directory"
            )
    indices: List[Optional[int]] = (
        list(range(shard_count)) if shard_count else list(by_index)
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
            for key in ("campaign", "scenario", "plan_runs",
                        "shard_index", "shard_count"):
                entry.pop(key)
            entry["index"] = index
        shards.append(entry)

    if shard_count is None and shards:
        # Unsharded: nothing to merge, its own manifest is the result.
        merged_manifest = shards[0]["manifest"]
    else:
        merged = directory / "manifest.json"
        merged_manifest = str(merged) if merged.exists() else None
    states = [s["state"] for s in shards]
    if shards and all(state == "done" for state in states):
        overall = "done" if merged_manifest else "merge-pending"
    elif "stalled" in states:
        overall = "stalled"
    else:
        overall = "running"

    return {
        "dir": str(directory),
        "campaign": identity["campaign"],
        "scenario": identity["scenario"],
        "generated_unix": now,
        "stall_after_s": stall_after_s,
        "plan_runs": identity["plan_runs"],
        "shard_count": shard_count,
        "state": overall,
        "shards": shards,
        "merged_manifest": merged_manifest,
    }


def _age_text(age: Optional[object]) -> str:
    if not isinstance(age, (int, float)):
        return "-"
    return f"{age:.1f}s ago"


def render_fleet_status(status: Dict[str, object]) -> str:
    """The ``campaign status`` table for one :func:`fleet_status` snapshot."""
    plan = status["plan_runs"]
    count = status["shard_count"]
    lines = [
        f"campaign : {status['campaign'] or '(unknown)'}"
        + (f"  [scenario {status['scenario']}]" if status["scenario"] else ""),
        f"dir      : {status['dir']}",
        f"state    : {status['state']}"
        + (
            f"  ({plan} run(s) planned"
            + (f" across {count} shard(s))" if count else ")")
            if plan is not None
            else ""
        ),
    ]
    shards = status["shards"]
    if not shards:
        lines.append("(no shard sidecars found)")
        return "\n".join(lines)
    lines.append(
        f"{'SHARD':<7} {'STATE':<9} {'RUNS':>5} {'FAILED':>7} "
        f"{'PENDING':>8} {'LAST ACTIVITY'}"
    )
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
