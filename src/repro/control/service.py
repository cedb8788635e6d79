"""``python -m repro serve``: a JSON submission service for campaigns.

A deliberately small, stdlib-only (``http.server``) facade over the
driver, for the "campaign box" workflow: one long-lived process on the
machine with the cores, and collaborators submit sweeps with ``curl``
instead of shelling in.  Endpoints (see ``docs/control-plane.md``):

* ``GET  /api/health``            — liveness + registered scenarios;
* ``GET  /api/campaigns``         — every job this service has run;
* ``POST /api/campaigns``         — submit a campaign spec (JSON body);
  replies ``201`` with the job id, or ``400`` naming the invalid field
  (unknown scenario, bad parameter value, unknown spec key);
* ``GET  /api/campaigns/<id>``    — job state + the same fleet snapshot
  ``campaign status`` prints (read from disk, not driver memory);
* ``GET  /api/campaigns/<id>/manifest`` — the merged manifest, ``404``
  until the drive completes.

Each submission gets a directory under the service root
(``<root>/job-0001/...``) and a daemon thread running
:func:`~repro.control.driver.drive_campaign`; jobs survive as
*directories*, so anything the service reports can be re-derived after
a restart with ``campaign status``.

This is an operational convenience, not a security boundary: bind it
to localhost (the default) or a trusted network only.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Union

from repro.control.driver import DriverConfig, drive_campaign
from repro.control.fleet import fleet_status
from repro.scenario import available_scenarios
from repro.scenario.params import ParameterValueError
from repro.scenario.registry import UnknownParameterError, UnknownScenarioError
from repro.telemetry.campaign import SPEC_FIELDS, CampaignConfig
from repro.telemetry.export import load_manifest, status_to_json

__all__ = ["ControlService", "make_server", "main"]

#: Request keys `submit` understands: the campaign spec (whose heartbeat
#: interval is the service's to set) plus the fleet shape.  Everything
#: else is a 400, so a typo ("worker") cannot silently fall back to a
#: default.
_FLEET_KEYS = ("shards", "workers_per_shard")
_SUBMIT_KEYS = frozenset(SPEC_FIELDS) - {"heartbeat_s"} | set(_FLEET_KEYS)


class UnknownJobError(KeyError):
    """Lookup of a job id this service never issued."""


class ControlService:
    """The job registry the HTTP handler delegates to.

    Also usable in-process (tests drive it directly): ``submit`` →
    ``status`` → ``manifest`` round-trips without a socket.
    """

    def __init__(
        self,
        root: Union[str, pathlib.Path],
        heartbeat_s: float = 0.5,
        **fleet: object,
    ) -> None:
        """``heartbeat_s`` is every job's shard heartbeat interval;
        ``fleet`` takes :class:`~repro.control.driver.DriverConfig`'s
        fleet fields (``shards``, ``heartbeat_timeout_s``, ...), with its
        defaults, for every job.  A submission may override ``shards``
        and ``workers_per_shard``."""
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # Each job's DriverConfig is this one with its own campaign and
        # directory; building it now rejects an unknown fleet field here
        # rather than at the first submission.
        self.template = DriverConfig(
            CampaignConfig("", heartbeat_s=heartbeat_s), self.root, **fleet
        )
        self._jobs: Dict[str, Dict[str, object]] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------
    def submit(self, request: Dict[str, object]) -> Dict[str, object]:
        """Validate a submission, start its driver thread, return the job.

        Raises ``ValueError`` (including the scenario/parameter
        subclasses) on anything wrong with the request — the handler
        maps those to ``400`` — *before* any process is spawned: the
        spec's keys and types, the run policy, and every param and grid
        value against the scenario's schema, as ``run_campaign`` checks
        them.
        """
        if not isinstance(request, dict):
            raise ValueError("campaign submission must be a JSON object")
        unknown = sorted(set(request) - _SUBMIT_KEYS)
        if unknown:
            raise ValueError(
                f"unknown submission key(s): {', '.join(unknown)}; "
                f"valid: {', '.join(sorted(_SUBMIT_KEYS))}"
            )
        spec = {k: v for k, v in request.items() if k not in _FLEET_KEYS}
        campaign = CampaignConfig.from_spec_dict(
            spec, heartbeat_s=self.template.campaign.heartbeat_s
        ).coerced()
        shape = {k: request[k] for k in _FLEET_KEYS if request.get(k) is not None}
        for key, value in shape.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{key!r} must be an integer, got {value!r}")
        with self._lock:
            job_id = f"job-{next(self._ids):04d}"
        job_dir = self.root / job_id
        config = replace(
            self.template, campaign=campaign, out_dir=job_dir, **shape
        )
        config.validate()
        job: Dict[str, object] = {
            "id": job_id,
            "dir": str(job_dir),
            "scenario": campaign.scenario,
            "state": "running",
            "error": None,
            "submitted_unix": time.time(),
            "finished_unix": None,
        }
        with self._lock:
            self._jobs[job_id] = job
        thread = threading.Thread(
            target=self._run_job,
            args=(job, config),
            name=f"drive-{job_id}",
            daemon=True,
        )
        thread.start()
        job["_thread"] = thread
        return self.describe(job_id)

    def _run_job(self, job: Dict[str, object], config: DriverConfig) -> None:
        try:
            drive_campaign(config)
        except Exception as exc:  # noqa: BLE001 - job boundary
            job["state"] = "failed"
            job["error"] = str(exc)
        else:
            job["state"] = "done"
        job["finished_unix"] = time.time()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def _get(self, job_id: str) -> Dict[str, object]:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJobError(f"unknown campaign job {job_id!r}") from None

    def describe(self, job_id: str) -> Dict[str, object]:
        """The job record (sans thread handle) plus navigation links."""
        job = self._get(job_id)
        return {
            **{k: v for k, v in job.items() if not k.startswith("_")},
            "links": {
                "status": f"/api/campaigns/{job_id}",
                "manifest": f"/api/campaigns/{job_id}/manifest",
            },
        }

    def status(self, job_id: str) -> Dict[str, object]:
        """Job record + on-disk fleet snapshot (same source of truth as
        ``campaign status <dir>``)."""
        described = self.describe(job_id)
        job_dir = pathlib.Path(described["dir"])
        described["fleet"] = (
            fleet_status(job_dir) if job_dir.is_dir() else None
        )
        return described

    def manifest(self, job_id: str) -> Dict[str, object]:
        """The merged manifest; ``FileNotFoundError`` until it exists."""
        path = pathlib.Path(self._get(job_id)["dir"]) / "manifest.json"
        if not path.exists():
            raise FileNotFoundError(
                f"campaign {job_id} has no merged manifest yet"
            )
        return load_manifest(path)

    def list_jobs(self) -> List[Dict[str, object]]:
        with self._lock:
            ids = sorted(self._jobs)
        return [self.describe(job_id) for job_id in ids]


# ----------------------------------------------------------------------
# HTTP surface
# ----------------------------------------------------------------------
class _ControlServer(ThreadingHTTPServer):
    daemon_threads = True
    service: ControlService


class _Handler(BaseHTTPRequestHandler):
    server: _ControlServer

    # Silence the default per-request stderr logging; the service's
    # observable surface is its JSON, not access logs.
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    def _reply(self, code: int, payload: Dict[str, object]) -> None:
        body = status_to_json(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._reply(code, {"error": message})

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.rstrip("/") or "/"
        service = self.server.service
        if path == "/api/health":
            self._reply(
                200, {"ok": True, "scenarios": available_scenarios()}
            )
        elif path == "/api/campaigns":
            self._reply(200, {"campaigns": service.list_jobs()})
        elif path.startswith("/api/campaigns/"):
            parts = path[len("/api/campaigns/"):].split("/")
            try:
                if len(parts) == 1:
                    self._reply(200, service.status(parts[0]))
                elif len(parts) == 2 and parts[1] == "manifest":
                    self._reply(200, service.manifest(parts[0]))
                else:
                    self._error(404, f"no such endpoint: {self.path}")
            except UnknownJobError as exc:
                self._error(404, str(exc))
            except FileNotFoundError as exc:
                self._error(404, str(exc))
        else:
            self._error(404, f"no such endpoint: {self.path}")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path.rstrip("/") != "/api/campaigns":
            self._error(404, f"no such endpoint: {self.path}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            request = json.loads(self.rfile.read(length) or b"null")
        except (ValueError, OSError) as exc:
            self._error(400, f"unreadable JSON body: {exc}")
            return
        try:
            job = self.server.service.submit(request)
        except (
            UnknownScenarioError,
            UnknownParameterError,
            ParameterValueError,
            ValueError,
        ) as exc:
            self._error(400, str(exc.args[0] if isinstance(exc, KeyError) else exc))
            return
        self._reply(201, job)


def make_server(
    service: ControlService, host: str = "127.0.0.1", port: int = 0
) -> _ControlServer:
    """Bind the service to ``host:port`` (port 0 = ephemeral, for tests);
    caller runs ``serve_forever()`` / ``shutdown()``."""
    server = _ControlServer((host, port), _Handler)
    server.service = service
    return server


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro serve`` entry point."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="HTTP JSON service: submit campaigns, poll fleet "
        "status, fetch merged manifests (see docs/control-plane.md)",
    )
    parser.add_argument(
        "--root", default="campaign-jobs", metavar="DIR",
        help="directory job outputs land under (default: ./campaign-jobs)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642)
    parser.add_argument(
        "--shards", type=int, default=2,
        help="shard subprocesses per submitted campaign (default: 2)",
    )
    parser.add_argument(
        "--workers-per-shard", type=int, default=1,
        help="pool workers inside each shard (default: 1)",
    )
    args = parser.parse_args(argv)
    service = ControlService(
        args.root, shards=args.shards, workers_per_shard=args.workers_per_shard
    )
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"repro control service on http://{host}:{port} (root: {args.root})")
    print("POST /api/campaigns to submit; Ctrl-C to stop")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
    return 0
