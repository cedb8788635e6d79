"""Campaign control plane: watch campaigns from their directories.

``repro.telemetry.campaign`` runs a campaign — one supervised worker
pool, streaming JSONL sidecars, ``--resume``, and an identity-validated
shard merge.  This package adds the view a person at a campaign box
wants on top of it (see ``docs/control-plane.md``): **fleet**
(:mod:`repro.control.fleet`), a point-in-time view reconstructed from
the sidecars and manifests alone, so ``campaign status <dir>`` works
against a running campaign, a crashed one, or a finished one, whether
it ran as one process or as ``--shard i/N`` slices.
"""

from repro.control.fleet import fleet_status, render_fleet_status

__all__ = ["fleet_status", "render_fleet_status"]
