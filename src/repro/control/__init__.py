"""Campaign control plane: watch campaigns from their directories.

``repro.telemetry.campaign`` runs a campaign — one supervised worker
pool, a streaming JSONL sidecar, and ``--resume``.  This package adds
the view a person at a campaign box wants on top of it (see
``docs/control-plane.md``): **fleet** (:mod:`repro.control.fleet`), a
point-in-time view reconstructed from the sidecar and manifest alone,
so ``campaign status <dir>`` works against a running campaign, a
crashed one, or a finished one.
"""

from repro.control.fleet import fleet_status, render_fleet_status

__all__ = ["fleet_status", "render_fleet_status"]
