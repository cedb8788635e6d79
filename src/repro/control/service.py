"""``python -m repro serve``: a JSON submission service for campaigns.

A deliberately small, stdlib-only (``http.server``) facade over the
campaign runner, for the "campaign box" workflow: one long-lived process
on the machine with the cores, and collaborators submit sweeps with
``curl`` instead of shelling in.  Endpoints (see
``docs/control-plane.md``):

* ``GET  /api/health``            — liveness + registered scenarios;
* ``GET  /api/campaigns``         — every job this service has run;
* ``POST /api/campaigns``         — submit a campaign spec (JSON body);
  replies ``201`` with the job id, or ``400`` naming the invalid field
  (unknown scenario, bad parameter value, unknown spec key);
* ``GET  /api/campaigns/<id>``    — job state + the same snapshot
  ``campaign status`` prints (read from disk, not service memory);
* ``GET  /api/campaigns/<id>/manifest`` — the job's manifest, ``404``
  until the campaign completes.

Each submission gets a directory under the service root
(``<root>/job-0001/``) holding its spec, ``campaign.json``, and runs as
one ``python -m repro campaign --spec-file <job>/campaign.json --out
<job>/manifest.json --workers W`` subprocess whose output goes to
``<job>/campaign.log``.  The job is ``done`` when that process exits 0
with its manifest written, and ``failed`` otherwise, with the exit code
and the log tail.  The campaign's own pool retries runs whose worker
died.  Jobs survive as *directories*, so anything the service reports
can be re-derived after a restart with ``campaign status``.

This is an operational convenience, not a security boundary: bind it
to localhost (the default) or a trusted network only.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Union

import repro
from repro.control.fleet import fleet_status
from repro.scenario import available_scenarios
from repro.scenario.params import ParameterValueError
from repro.scenario.registry import UnknownParameterError, UnknownScenarioError
from repro.telemetry.campaign import SPEC_FIELDS, CampaignConfig
from repro.telemetry.export import load_manifest, status_to_json, write_status

__all__ = ["ControlService", "make_server", "main"]

#: Request keys `submit` understands: the campaign spec, whose heartbeat
#: interval is the service's to set.  Everything else is a 400, so a
#: typo ("worker") cannot silently fall back to a default.
_SUBMIT_KEYS = frozenset(SPEC_FIELDS) - {"heartbeat_s"}


def _subprocess_env() -> Dict[str, str]:
    """A job's environment: this one, with repro's own ``src`` first on
    ``PYTHONPATH`` so the job runs the same repro as the service."""
    env = dict(os.environ)
    src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_dir, env.get("PYTHONPATH")])
    )
    return env


def _log_tail(path: pathlib.Path, lines: int = 15) -> str:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return "(no campaign log)"
    tail = text.strip().splitlines()[-lines:]
    return "\n".join(tail) if tail else "(campaign log empty)"


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
        workers: int = 1,
    ) -> None:
        """``heartbeat_s`` is every job's sidecar heartbeat interval and
        ``workers`` the size of every job's campaign pool."""
        if heartbeat_s <= 0:
            raise ValueError(
                f"heartbeat_s must be positive, got {heartbeat_s!r}"
            )
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.heartbeat_s = heartbeat_s
        self.workers = workers
        self._jobs: Dict[str, Dict[str, object]] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------
    def submit(self, request: Dict[str, object]) -> Dict[str, object]:
        """Validate a submission, start its campaign, return the job.

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
        campaign = CampaignConfig.from_spec_dict(
            request, heartbeat_s=self.heartbeat_s
        ).coerced()
        with self._lock:
            job_id = f"job-{next(self._ids):04d}"
        job_dir = self.root / job_id
        job_dir.mkdir(parents=True, exist_ok=True)
        write_status(campaign.to_spec_dict(), job_dir / "campaign.json")
        job: Dict[str, object] = {
            "id": job_id,
            "dir": str(job_dir),
            "scenario": campaign.scenario,
            "state": "running",
            "error": None,
            "exit_code": None,
            "submitted_unix": time.time(),
            "finished_unix": None,
        }
        with self._lock:
            self._jobs[job_id] = job
        threading.Thread(
            target=self._run_job,
            args=(job, job_dir),
            name=f"campaign-{job_id}",
            daemon=True,
        ).start()
        return self.describe(job_id)

    def _run_job(self, job: Dict[str, object], job_dir: pathlib.Path) -> None:
        log_path = job_dir / "campaign.log"
        try:
            with open(log_path, "w", encoding="utf-8") as log:
                code = subprocess.run(
                    [
                        sys.executable, "-m", "repro", "campaign",
                        "--spec-file", str(job_dir / "campaign.json"),
                        "--out", str(job_dir / "manifest.json"),
                        "--workers", str(self.workers),
                    ],
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    env=_subprocess_env(),
                ).returncode
        except OSError as exc:  # no log file, or no process to start
            job["state"] = "failed"
            job["error"] = f"cannot start the campaign: {exc}"
        else:
            job["exit_code"] = code
            if code == 0 and (job_dir / "manifest.json").exists():
                job["state"] = "done"
            else:
                job["state"] = "failed"
                job["error"] = (
                    f"campaign exited with code {code}; last log lines:\n"
                    f"{_log_tail(log_path)}"
                )
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
        """The job record plus navigation links."""
        job = self._get(job_id)
        return {
            **job,
            "links": {
                "status": f"/api/campaigns/{job_id}",
                "manifest": f"/api/campaigns/{job_id}/manifest",
            },
        }

    def status(self, job_id: str) -> Dict[str, object]:
        """Job record + on-disk status snapshot (same source of truth as
        ``campaign status <dir>``)."""
        described = self.describe(job_id)
        job_dir = pathlib.Path(described["dir"])
        described["fleet"] = (
            fleet_status(job_dir) if job_dir.is_dir() else None
        )
        return described

    def manifest(self, job_id: str) -> Dict[str, object]:
        """The job's manifest; ``FileNotFoundError`` until it exists."""
        path = pathlib.Path(self._get(job_id)["dir"]) / "manifest.json"
        if not path.exists():
            raise FileNotFoundError(f"campaign {job_id} has no manifest yet")
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
        description="HTTP JSON service: submit campaigns, poll their "
        "status, fetch their manifests (see docs/control-plane.md)",
    )
    parser.add_argument(
        "--root", default="campaign-jobs", metavar="DIR",
        help="directory job outputs land under (default: ./campaign-jobs)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642)
    parser.add_argument(
        "--workers", type=int, default=2,
        help="pool workers per submitted campaign (default: 2)",
    )
    args = parser.parse_args(argv)
    try:
        service = ControlService(args.root, workers=args.workers)
    except ValueError as exc:
        parser.error(str(exc))
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
