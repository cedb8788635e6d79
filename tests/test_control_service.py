"""``python -m repro serve``: the HTTP submission service.

One real HTTP round trip (ephemeral port): submit a campaign, poll its
status until its ``campaign`` subprocess exits, fetch the manifest, and
check it byte-matches an in-process run of the same campaign.  The
validation surface (400s for unknown scenarios, bad parameter values,
unknown keys; 404s for unknown jobs and not-yet-written manifests) is
exercised against the same live server, and the in-process
:class:`~repro.control.service.ControlService` API is covered without
a socket where HTTP adds nothing.  Job subprocesses find the ``ctl-*``
scenarios through ``REPRO_SCENARIO_MODULES`` and ``PYTHONPATH``, set
here as a user of ``serve`` would set them.
"""

import json
import os
import pathlib
import threading
import time
import urllib.error
import urllib.request

import pytest

import tests.control_scenarios  # noqa: F401 - registers ctl-* scenarios
from repro.control.service import ControlService, UnknownJobError, make_server
from repro.telemetry import CampaignConfig, run_campaign

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture
def service(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SCENARIO_MODULES", "tests.control_scenarios")
    paths = [str(REPO_ROOT), os.environ.get("PYTHONPATH")]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, paths)))
    return ControlService(tmp_path / "jobs", heartbeat_s=0.1, workers=2)


@pytest.fixture
def server(service):
    server = make_server(service)  # port 0: ephemeral
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def _base(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def _get(server, path):
    try:
        with urllib.request.urlopen(_base(server) + path) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _post(server, path, payload):
    request = urllib.request.Request(
        _base(server) + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _await_job(server, job_id, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        code, status = _get(server, f"/api/campaigns/{job_id}")
        assert code == 200
        if status["state"] in ("done", "failed"):
            return status
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} still running after {timeout_s}s")


class TestRoundTrip:
    def test_submit_poll_fetch_matches_in_process_run(self, server):
        code, job = _post(
            server,
            "/api/campaigns",
            {"scenario": "ctl-noop", "seeds": 4, "params": {"draws": 3}},
        )
        assert code == 201
        assert job["state"] == "running"
        status = _await_job(server, job["id"])
        assert status["state"] == "done", status.get("error")
        assert status["exit_code"] == 0
        assert status["fleet"]["state"] == "done"
        assert all(s["state"] == "done" for s in status["fleet"]["shards"])
        code, manifest = _get(server, f"/api/campaigns/{job['id']}/manifest")
        assert code == 200
        reference = run_campaign(
            CampaignConfig(
                scenario="ctl-noop", seeds=[0, 1, 2, 3], params={"draws": 3}
            )
        )
        assert json.dumps(manifest["aggregate"], sort_keys=True) == json.dumps(
            reference["aggregate"], sort_keys=True
        )
        code, listing = _get(server, "/api/campaigns")
        assert code == 200
        assert [j["id"] for j in listing["campaigns"]] == [job["id"]]

    def test_health_lists_scenarios(self, server):
        code, health = _get(server, "/api/health")
        assert code == 200
        assert health["ok"] is True
        assert "ctl-noop" in health["scenarios"]
        assert "wardrive" in health["scenarios"]


class TestValidation:
    def test_unknown_scenario_is_400(self, server):
        code, body = _post(server, "/api/campaigns", {"scenario": "nope"})
        assert code == 400
        assert "unknown scenario" in body["error"]

    def test_bad_param_value_is_400(self, server):
        code, body = _post(
            server,
            "/api/campaigns",
            {"scenario": "ctl-noop", "params": {"draws": 0}},
        )
        assert code == 400
        assert "draws" in body["error"] and ">= 1" in body["error"]

    def test_bad_grid_value_is_400(self, server):
        code, body = _post(
            server,
            "/api/campaigns",
            {"scenario": "ctl-noop", "grid": {"draws": ["2", "oops"]}},
        )
        assert code == 400
        assert "expected an integer" in body["error"]

    def test_unknown_submission_key_is_400(self, server):
        code, body = _post(
            server, "/api/campaigns", {"scenario": "ctl-noop", "worker": 4}
        )
        assert code == 400
        assert "unknown submission key" in body["error"]

    def test_shard_count_is_not_a_submission_key(self, server):
        code, body = _post(
            server, "/api/campaigns", {"scenario": "ctl-noop", "shards": 2}
        )
        assert code == 400
        assert "unknown submission key(s): shards" in body["error"]

    def test_bad_run_policy_is_400_before_any_job(self, server):
        code, body = _post(
            server,
            "/api/campaigns",
            {"scenario": "ctl-noop", "on_error": "bogus"},
        )
        assert code == 400
        assert "on_error" in body["error"]
        assert _get(server, "/api/campaigns") == (200, {"campaigns": []})

    def test_non_object_body_is_400(self, server):
        code, body = _post(server, "/api/campaigns", [1, 2, 3])
        assert code == 400

    def test_unknown_job_is_404(self, server):
        code, body = _get(server, "/api/campaigns/job-9999")
        assert code == 404
        code, body = _get(server, "/api/campaigns/job-9999/manifest")
        assert code == 404

    def test_unknown_endpoint_is_404(self, server):
        assert _get(server, "/api/nope")[0] == 404
        assert _post(server, "/api/nope", {})[0] == 404


class TestServiceApi:
    """The in-process surface, no socket."""

    def test_validation_happens_before_any_spawn(self, service):
        with pytest.raises(ValueError, match="seeds"):
            service.submit({"scenario": "ctl-noop", "seeds": 0})
        with pytest.raises(ValueError, match="seeds"):
            service.submit({"scenario": "ctl-noop", "seeds": [0.5]})
        with pytest.raises(ValueError, match="grid"):
            service.submit({"scenario": "ctl-noop", "grid": {"draws": []}})
        with pytest.raises(ValueError, match="JSON object"):
            service.submit("not a dict")
        # The run policy is checked here too, not in the job subprocess.
        for bad in (
            {"on_error": "bogus"},
            {"run_timeout_s": -1},
            {"retries": -1},
        ):
            (key,) = bad
            with pytest.raises(ValueError, match=key):
                service.submit({"scenario": "ctl-noop", **bad})
        assert service.list_jobs() == []  # nothing was started

    def test_manifest_before_merge_raises_file_not_found(self, service):
        with pytest.raises(UnknownJobError):
            service.manifest("job-0042")

    def test_params_are_coerced_at_submission_time(self, service, tmp_path):
        job = service.submit(
            {"scenario": "ctl-noop", "seeds": 2, "params": {"draws": "5"}}
        )
        try:
            spec_path = pathlib.Path(job["dir"]) / "campaign.json"
            deadline = time.monotonic() + 30.0
            while not spec_path.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            spec = json.loads(spec_path.read_text())
            assert spec["params"]["draws"] == 5  # int, not "5"
        finally:
            _await_inprocess(service, job["id"])


    def test_nonzero_campaign_exit_fails_the_job_with_its_log_tail(
        self, service
    ):
        job = service.submit(
            {"scenario": "ctl-boom", "seeds": 2, "on_error": "record"}
        )
        described = _await_inprocess(service, job["id"])
        assert described["state"] == "failed"
        assert described["exit_code"] == 1
        assert "campaign exited with code 1" in described["error"]
        # The tail is the campaign's own summary of the failed runs.
        assert "ctl-boom always fails" in described["error"]

    def test_bad_service_knobs_are_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            ControlService(tmp_path / "jobs", workers=0)
        with pytest.raises(ValueError, match="heartbeat_s"):
            ControlService(tmp_path / "jobs", heartbeat_s=0.0)


def _await_inprocess(service, job_id, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        described = service.describe(job_id)
        if described["state"] in ("done", "failed"):
            return described
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} still running after {timeout_s}s")
