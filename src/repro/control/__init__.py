"""Campaign control plane: watch and serve campaigns.

``repro.telemetry.campaign`` runs a campaign — one supervised worker
pool, streaming JSONL sidecars, ``--resume``, and an identity-validated
shard merge.  This package adds what a person at a campaign box wants
on top of it (see ``docs/control-plane.md``):

* **fleet** (:mod:`repro.control.fleet`) — a point-in-time view
  reconstructed from the sidecars alone, so ``campaign status <dir>``
  works against a running campaign, a crashed one, or a finished one,
  whether it ran as one process or as ``--shard i/N`` slices;
* **service** (:mod:`repro.control.service`) — a stdlib-only HTTP JSON
  facade (``python -m repro serve``): submit a campaign spec, poll its
  status, fetch its manifest.
"""

from repro.control.fleet import fleet_status, render_fleet_status
from repro.control.service import ControlService, make_server

__all__ = [
    "ControlService",
    "fleet_status",
    "make_server",
    "render_fleet_status",
]
