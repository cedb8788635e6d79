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

The package re-exports lazily (PEP 562): a run that only updates
metrics imports neither the campaign runner nor ``multiprocessing``.
"""

import importlib

#: Every public name and the module that defines it, resolved on first
#: access (PEP 562).
_EXPORTS = {
    "CampaignConfig": "repro.telemetry.campaign",
    "CampaignRunError": "repro.telemetry.campaign",
    "RunTimeoutError": "repro.telemetry.campaign",
    "parse_sidecar_text": "repro.telemetry.campaign",
    "run_campaign": "repro.telemetry.campaign",
    "summarize_manifest": "repro.telemetry.campaign",
    "compare_manifest_files": "repro.telemetry.compare",
    "compare_manifests": "repro.telemetry.compare",
    "format_comparison": "repro.telemetry.compare",
    "load_manifest": "repro.telemetry.export",
    "manifest_to_json": "repro.telemetry.export",
    "snapshot_from_json": "repro.telemetry.export",
    "snapshot_to_csv": "repro.telemetry.export",
    "snapshot_to_json": "repro.telemetry.export",
    "status_to_json": "repro.telemetry.export",
    "write_manifest": "repro.telemetry.export",
    "write_snapshot": "repro.telemetry.export",
    "Counter": "repro.telemetry.metrics",
    "Gauge": "repro.telemetry.metrics",
    "Histogram": "repro.telemetry.metrics",
    "MetricsRegistry": "repro.telemetry.registry",
    "merge_snapshots": "repro.telemetry.registry",
    "NULL_TRACER": "repro.telemetry.spans",
    "SpanRecord": "repro.telemetry.spans",
    "SpanTracer": "repro.telemetry.spans",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
