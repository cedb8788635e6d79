"""Observability and orchestration for the simulator.

Three cooperating pieces (see ``docs/telemetry.md``):

* **metrics** — :class:`MetricsRegistry` hands out counters, gauges, and
  histograms that the engine, medium, and ACK engines update on their hot
  paths (zero-cost when no registry is attached);
* **tracing** — :class:`SpanTracer` times simulation phases with span
  context managers, free when disabled;
* **campaigns** — :func:`run_campaign` fans a registered scenario out
  across seeds × parameter grids with ``multiprocessing``, writes a run
  manifest, and produces worker-count-independent aggregates.
"""

from repro.telemetry.campaign import (
    CampaignConfig,
    CampaignRunError,
    MissingShardsError,
    RunTimeoutError,
    ShardMismatchError,
    merge_manifest_files,
    merge_manifests,
    parse_sidecar_record,
    parse_sidecar_text,
    run_campaign,
    shard_manifest_path,
    shard_run_indices,
    summarize_manifest,
)
from repro.telemetry.compare import (
    compare_manifest_files,
    compare_manifests,
    format_comparison,
)
from repro.telemetry.export import (
    load_manifest,
    manifest_to_json,
    snapshot_from_json,
    snapshot_to_csv,
    snapshot_to_json,
    status_to_json,
    write_manifest,
    write_snapshot,
    write_status,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram
from repro.telemetry.registry import MetricsRegistry, merge_snapshots
from repro.telemetry.spans import NULL_TRACER, SpanRecord, SpanTracer

__all__ = [
    "CampaignConfig",
    "CampaignRunError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MissingShardsError",
    "NULL_TRACER",
    "RunTimeoutError",
    "ShardMismatchError",
    "SpanRecord",
    "SpanTracer",
    "compare_manifest_files",
    "compare_manifests",
    "format_comparison",
    "load_manifest",
    "manifest_to_json",
    "merge_manifest_files",
    "merge_manifests",
    "merge_snapshots",
    "parse_sidecar_record",
    "parse_sidecar_text",
    "run_campaign",
    "shard_manifest_path",
    "shard_run_indices",
    "snapshot_from_json",
    "snapshot_to_csv",
    "snapshot_to_json",
    "status_to_json",
    "summarize_manifest",
    "write_manifest",
    "write_snapshot",
    "write_status",
]
