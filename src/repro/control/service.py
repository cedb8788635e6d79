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
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Union

from repro.control.driver import DriverConfig, drive_campaign
from repro.control.fleet import fleet_status
from repro.scenario import REGISTRY, available_scenarios
from repro.scenario.params import ParameterValueError
from repro.scenario.registry import UnknownParameterError, UnknownScenarioError
from repro.telemetry.export import load_manifest, status_to_json

__all__ = ["ControlService", "make_server", "main"]

#: Request keys `submit` understands; everything else is a 400, so a
#: typo ("worker") cannot silently fall back to a default.
_SUBMIT_KEYS = frozenset(
    {
        "scenario",
        "seeds",
        "params",
        "grid",
        "name",
        "shards",
        "workers_per_shard",
        "run_timeout_s",
        "retries",
        "retry_backoff_s",
        "on_error",
    }
)


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
        shards: int = 2,
        workers_per_shard: int = 1,
        heartbeat_s: float = 0.5,
        heartbeat_timeout_s: float = 30.0,
        poll_s: float = 0.2,
        slice_retries: int = 1,
        scenario_modules: tuple = (),
        extra_pythonpath: tuple = (),
    ) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.defaults = {
            "shards": shards,
            "workers_per_shard": workers_per_shard,
            "heartbeat_s": heartbeat_s,
            "heartbeat_timeout_s": heartbeat_timeout_s,
            "poll_s": poll_s,
            "slice_retries": slice_retries,
            "scenario_modules": tuple(scenario_modules),
            "extra_pythonpath": tuple(extra_pythonpath),
        }
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
        maps those to ``400`` — *before* any process is spawned.
        """
        if not isinstance(request, dict):
            raise ValueError("campaign submission must be a JSON object")
        unknown = sorted(set(request) - _SUBMIT_KEYS)
        if unknown:
            raise ValueError(
                f"unknown submission key(s): {', '.join(unknown)}; "
                f"valid: {', '.join(sorted(_SUBMIT_KEYS))}"
            )
        scenario = request.get("scenario")
        if not scenario or not isinstance(scenario, str):
            raise ValueError("submission needs a 'scenario' (string)")
        entry = REGISTRY.get(scenario)  # raises UnknownScenarioError
        params = dict(request.get("params") or {})
        params = entry.coerce_params(params)
        grid = request.get("grid") or None
        if grid is not None:
            if not isinstance(grid, dict) or not all(
                isinstance(v, list) and v for v in grid.values()
            ):
                raise ValueError(
                    "'grid' must map parameter names to non-empty value lists"
                )
            grid = entry.coerce_grid(grid)
        seeds = _parse_seeds(request.get("seeds", [0]))
        shards = int(request.get("shards") or self.defaults["shards"])
        workers = int(
            request.get("workers_per_shard")
            or self.defaults["workers_per_shard"]
        )
        with self._lock:
            job_id = f"job-{next(self._ids):04d}"
        job_dir = self.root / job_id
        config = DriverConfig(
            scenario=scenario,
            out_dir=job_dir,
            seeds=seeds,
            params=params,
            grid=grid,
            name=str(request.get("name") or ""),
            run_timeout_s=request.get("run_timeout_s"),
            retries=int(request.get("retries") or 0),
            retry_backoff_s=float(request.get("retry_backoff_s") or 0.0),
            on_error=str(request.get("on_error") or "raise"),
            heartbeat_s=self.defaults["heartbeat_s"],
            shards=shards,
            workers_per_shard=workers,
            heartbeat_timeout_s=self.defaults["heartbeat_timeout_s"],
            poll_s=self.defaults["poll_s"],
            slice_retries=self.defaults["slice_retries"],
            scenario_modules=self.defaults["scenario_modules"],
            extra_pythonpath=self.defaults["extra_pythonpath"],
        )
        config.validate()
        job: Dict[str, object] = {
            "id": job_id,
            "dir": str(job_dir),
            "scenario": scenario,
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


def _parse_seeds(raw: object) -> List[int]:
    """``8`` -> seeds 0..7 (matching the CLI); ``[3, 5]`` -> exactly those."""
    if isinstance(raw, bool):
        raise ValueError("'seeds' must be an integer count or a list of ints")
    if isinstance(raw, int):
        if raw < 1:
            raise ValueError("'seeds' count must be >= 1")
        return list(range(raw))
    if isinstance(raw, list) and raw and all(
        isinstance(s, int) and not isinstance(s, bool) for s in raw
    ):
        return list(raw)
    raise ValueError("'seeds' must be an integer count or a non-empty int list")


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
