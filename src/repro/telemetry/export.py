"""Snapshot and manifest exporters: JSON and CSV.

Exporters operate on plain snapshot dicts (the output of
:meth:`~repro.telemetry.registry.MetricsRegistry.snapshot` or
:func:`~repro.telemetry.registry.merge_snapshots`), never on live metric
objects, so they work identically on single-process runs and on
campaign aggregates shipped across process boundaries.

JSON is the canonical round-trippable form (``snapshot_from_json``
restores the exact dict, including the non-finite histogram min/max that
become ``null``).  CSV is a flat three-column view
(``metric,field,value``) for spreadsheet/pandas consumption.

Campaign manifests go through :func:`manifest_to_json` /
:func:`write_manifest` / :func:`load_manifest`, so every manifest —
whatever its worker count, resumed or not — serializes with the same
key ordering and layout.  Worker-count independence is a *byte*
guarantee, and it rests on there being exactly one serializer.
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
from typing import Dict, Optional, Union

__all__ = [
    "snapshot_to_json",
    "snapshot_from_json",
    "snapshot_to_csv",
    "write_snapshot",
    "manifest_to_json",
    "write_manifest",
    "load_manifest",
    "status_to_json",
]

Snapshot = Dict[str, Dict[str, object]]


def snapshot_to_json(snapshot: Snapshot, indent: Optional[int] = None) -> str:
    """Serialize a snapshot; keys are sorted so equal snapshots produce
    byte-identical JSON (the campaign determinism guarantee rests on this)."""
    return json.dumps(snapshot, indent=indent, sort_keys=True, allow_nan=False)


def snapshot_from_json(text: str) -> Snapshot:
    snapshot = json.loads(text)
    for section in ("counters", "gauges", "histograms"):
        snapshot.setdefault(section, {})
    return snapshot


def snapshot_to_csv(snapshot: Snapshot) -> str:
    """Flatten a snapshot to ``metric,field,value`` rows (sorted)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["metric", "field", "value"])
    for name in sorted(snapshot.get("counters", {})):
        writer.writerow([name, "count", snapshot["counters"][name]])
    for name in sorted(snapshot.get("gauges", {})):
        gauge = snapshot["gauges"][name]
        writer.writerow([name, "value", gauge["value"]])
        writer.writerow([name, "max", gauge["max"]])
    for name in sorted(snapshot.get("histograms", {})):
        hist = snapshot["histograms"][name]
        for field in ("count", "sum", "min", "max", "mean"):
            value = hist[field]
            writer.writerow([name, field, "" if value is None else value])
        for label in sorted(hist["buckets"]):
            writer.writerow([name, f"bucket<={label}", hist["buckets"][label]])
    return buffer.getvalue()


def write_snapshot(
    snapshot: Snapshot,
    path: Union[str, pathlib.Path],
    indent: Optional[int] = 2,
) -> pathlib.Path:
    """Write a snapshot to ``path``; format chosen by suffix (.json/.csv)."""
    path = pathlib.Path(path)
    if path.suffix == ".csv":
        text = snapshot_to_csv(snapshot)
    else:
        text = snapshot_to_json(snapshot, indent=indent) + "\n"
    path.write_text(text, encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# Campaign manifests
# ----------------------------------------------------------------------
def manifest_to_json(manifest: Dict[str, object]) -> str:
    """The one canonical manifest serialization (sorted keys, 2-space
    indent, trailing newline).  ``run_campaign`` emits through this,
    which is what makes "the aggregate is byte-identical for any worker
    count" a checkable claim rather than a hope."""
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def write_manifest(
    manifest: Dict[str, object], path: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Write a campaign manifest to ``path``."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(manifest_to_json(manifest), encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# Control-plane status snapshots
# ----------------------------------------------------------------------
def status_to_json(status: Dict[str, object]) -> str:
    """Canonical serialization for control-plane status snapshots
    (``campaign status --json``): same sorted-keys/2-indent/
    trailing-newline shape as manifests, so snapshots diff cleanly."""
    return json.dumps(status, indent=2, sort_keys=True, default=str) + "\n"


def load_manifest(path: Union[str, pathlib.Path]) -> Dict[str, object]:
    """Read a manifest back; raises ``ValueError`` naming the file on
    unreadable or non-JSON content (``campaign compare`` reports it)."""
    path = pathlib.Path(path)
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest {path} is not a JSON object")
    return manifest
