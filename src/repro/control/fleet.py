"""Campaign status reconstructed from a campaign directory's artifacts.

``campaign status <dir>`` must answer "how is my sweep doing?" for a
campaign it does not control, running or long dead.  So
:func:`fleet_status` takes *no* live handles — it reads what's on disk:

* the ``*.runs.jsonl`` sidecar — progress (run records), the
  campaign's identity (the ``campaign-meta`` line: campaign, scenario,
  plan size, heartbeat interval), and liveness (heartbeats + file
  mtime);
* the manifest next to it — written only when the campaign finished,
  so its presence means ``done``.

A directory holds one campaign: two sidecars are an error.  A torn
trailing line is skipped (shared sidecar parsing), and a campaign whose
last sign of life is older than the stall threshold reads as
``stalled`` — a *suspicion*, not a verdict: from disk, a dead process
and a wedged one look alike.
"""

from __future__ import annotations

import pathlib
import time
from typing import Dict, Optional, Union

from repro.telemetry.campaign import _is_run_record, parse_sidecar_text

__all__ = ["fleet_status", "render_fleet_status"]

#: Fallback stall threshold when the sidecar declares no heartbeat
#: interval.
_DEFAULT_STALL_AFTER_S = 30.0

#: Stalled = no activity for this many heartbeat intervals.
_STALL_HEARTBEATS = 4.0


def _inspect_sidecar(path: Optional[pathlib.Path]) -> Dict[str, object]:
    """Everything the sidecar says about its campaign (tolerant of a
    torn trailing line and of the file vanishing mid-read)."""
    info: Dict[str, object] = {
        "sidecar": None if path is None else str(path),
        "campaign": None,
        "scenario": None,
        "plan_runs": None,
        "runs": 0,
        "failed": 0,
        "completed": None,
        "pending": None,
        "heartbeat_s": None,
        "last_heartbeat_unix": None,
        "last_activity_unix": None,
    }
    if path is None:
        return info
    try:
        text = path.read_text(encoding="utf-8")
        mtime = path.stat().st_mtime
    except OSError:
        return info
    info["last_activity_unix"] = mtime
    for record in parse_sidecar_text(text):
        kind = record.get("kind")
        if kind == "campaign-meta":
            for key in ("campaign", "scenario", "plan_runs", "heartbeat_s"):
                info[key] = record.get(key)
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
    return info


def fleet_status(
    campaign_dir: Union[str, pathlib.Path],
    stall_after_s: Optional[float] = None,
    now: Optional[float] = None,
) -> Dict[str, object]:
    """A point-in-time snapshot of one campaign directory.

    ``stall_after_s`` overrides the stall threshold (default: four
    heartbeat intervals, as the sidecar's meta line declares it; 30s
    when it declares none); ``now`` pins the clock for tests.  Raises
    ``ValueError`` when the directory holds more than one sidecar: the
    view describes one campaign.  The result is JSON-safe and serialized
    canonically by :func:`repro.telemetry.export.status_to_json`.
    """
    directory = pathlib.Path(campaign_dir)
    if not directory.is_dir():
        raise ValueError(f"not a campaign directory: {directory}")
    now = time.time() if now is None else now
    sidecars = sorted(directory.glob("*.runs.jsonl"))
    if len(sidecars) > 1:
        names = ", ".join(path.name for path in sidecars)
        raise ValueError(
            f"{directory} holds more than one campaign ({names}); give "
            f"each campaign its own directory"
        )
    sidecar = sidecars[0] if sidecars else None
    info = _inspect_sidecar(sidecar)

    if stall_after_s is None:
        beat = info["heartbeat_s"]
        stall_after_s = (
            _STALL_HEARTBEATS * float(beat)
            if isinstance(beat, (int, float)) and beat > 0
            else _DEFAULT_STALL_AFTER_S
        )
    last = info["last_activity_unix"]
    age = now - float(last) if isinstance(last, (int, float)) else None
    # out.json.runs.jsonl rides next to out.json.
    manifest = sidecar and sidecar.with_name(sidecar.name[: -len(".runs.jsonl")])
    if manifest is None:
        state = "pending"
    elif manifest.exists():
        state = "done"
        info["pending"] = 0  # the last heartbeat predates the end
    elif age is not None and age > stall_after_s:
        state = "stalled"
    else:
        state = "running"

    return {
        **info,
        "dir": str(directory),
        "generated_unix": now,
        "stall_after_s": stall_after_s,
        "state": state,
        "age_s": age,
        "manifest": str(manifest) if state == "done" else None,
    }


def _age_text(age: Optional[object]) -> str:
    if not isinstance(age, (int, float)):
        return "-"
    return f"{age:.1f}s ago"


def render_fleet_status(status: Dict[str, object]) -> str:
    """The ``campaign status`` text for one :func:`fleet_status` snapshot."""
    plan = status["plan_runs"]
    lines = [
        f"campaign : {status['campaign'] or '(unknown)'}"
        + (f"  [scenario {status['scenario']}]" if status["scenario"] else ""),
        f"dir      : {status['dir']}",
        f"state    : {status['state']}"
        + (f"  ({plan} run(s) planned)" if plan is not None else ""),
    ]
    if status["sidecar"] is None:
        lines.append("(no campaign sidecar found)")
        return "\n".join(lines)
    pending = status["pending"]
    lines += [
        f"runs     : {status['runs']} recorded, {status['failed']} failed, "
        f"{pending if pending is not None else '-'} pending",
        f"activity : {_age_text(status['age_s'])}",
        f"manifest : {status['manifest'] or '(not written yet)'}",
    ]
    return "\n".join(lines)
