"""Fault injection for the campaign runner.

What dies here, on purpose: a whole campaign process (SIGKILL
mid-sweep), a sidecar's final record (torn mid-write), and scenarios
that hang, flake, or always raise.  The contracts pinned:

* a killed campaign, resumed, reproduces an uninterrupted run's
  aggregate and per-run outputs **byte-for-byte**;
* a raising scenario is retried exactly the configured number of times
  and then *surfaced* in the manifest (``status: "failed"``, error type
  and message, attempt count) — never swallowed;
* a hung run trips ``run_timeout_s`` and is handled like any failure;
* the sidecar survives a crashing campaign (closed, valid, replayable)
  even when the crash comes out of a pool worker;
* heartbeat records make a live-but-slow worker observable without
  confusing the resume machinery.
"""

import json
import os
import signal
import time

import pytest

from repro.scenario import FloatParam, IntParam, StrParam, scenario
from repro.telemetry import CampaignConfig, CampaignRunError, run_campaign
from repro.telemetry.campaign import _pool_context, sidecar_path


@scenario(
    "unit-fault-sleepy",
    param_schema={"sleep_s": FloatParam(minimum=0.0, default=0.0)},
)
def _sleepy(ctx):
    """Deterministic output after a configurable host-clock sleep —
    slow enough to SIGKILL mid-run, or to trip a run timeout."""
    import numpy as np

    time.sleep(ctx.params["sleep_s"])
    rng = np.random.default_rng(ctx.spec.seed)
    ctx.metrics.counter("test.runs").inc()
    return {"value": int(rng.integers(0, 1000))}


@scenario(
    "unit-fault-flaky",
    param_schema={
        "marker": StrParam(),
        "fail_times": IntParam(minimum=0, default=0),
    },
)
def _flaky(ctx):
    """Raises until a file-backed counter reaches ``fail_times`` —
    file-backed so the count survives pool-worker process boundaries."""
    import numpy as np

    marker = ctx.params["marker"]
    failures = 0
    if os.path.exists(marker):
        with open(marker) as handle:
            failures = int(handle.read() or 0)
    if failures < ctx.params["fail_times"]:
        with open(marker, "w") as handle:
            handle.write(str(failures + 1))
        raise RuntimeError(f"flaky failure #{failures + 1}")
    rng = np.random.default_rng(ctx.spec.seed)
    ctx.metrics.counter("test.runs").inc()
    return {"value": int(rng.integers(0, 1000))}


@scenario("unit-fault-boom")
def _boom(ctx):
    """Always raises."""
    raise RuntimeError("boom")


@scenario(
    "unit-fault-gated",
    param_schema={
        "marker": StrParam(),
        "fail_from": IntParam(default=10**9),
    },
)
def _gated(ctx):
    """Raises for seeds >= ``fail_from`` while the marker file exists —
    lets a test crash a campaign partway, 'fix the bug' (remove the
    marker), and resume."""
    import numpy as np

    seed = ctx.spec.seed
    if seed >= ctx.params["fail_from"] and os.path.exists(ctx.params["marker"]):
        raise RuntimeError(f"gated failure for seed {seed}")
    rng = np.random.default_rng(seed)
    ctx.metrics.counter("test.runs").inc()
    return {"value": int(rng.integers(0, 1000))}


def _aggregate_json(manifest):
    return json.dumps(manifest["aggregate"], sort_keys=True)


def _outputs_json(manifest):
    return json.dumps([r["outputs"] for r in manifest["runs"]], sort_keys=True)


SLEEPY_PARAMS = {"sleep_s": 0.3}
SLEEPY_SEEDS = [0, 1, 2, 3, 4, 5]


def _sleepy_config(tmp_path, **overrides):
    defaults = dict(
        scenario="unit-fault-sleepy",
        seeds=SLEEPY_SEEDS,
        params=dict(SLEEPY_PARAMS),
        output_path=tmp_path / "out.json",
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


class TestSigkillRecovery:
    """SIGKILL the campaign process mid-sweep, resume it: byte-identical
    to an uninterrupted run."""

    def _wait_for_first_run_record(self, sidecar, timeout_s=30.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if sidecar.exists():
                runs = [
                    line
                    for line in sidecar.read_text().splitlines()
                    if line.strip() and '"kind"' not in line
                ]
                if runs:
                    return
            time.sleep(0.005)
        raise AssertionError("campaign child produced no run record in time")

    def test_killed_campaign_resumes_byte_identically(self, tmp_path):
        reference = run_campaign(
            _sleepy_config(tmp_path, output_path=tmp_path / "ref.json")
        )
        child = _pool_context().Process(
            target=run_campaign, args=(_sleepy_config(tmp_path),)
        )
        child.start()
        try:
            # Wait until at least one run landed, then kill mid-sweep:
            # with six 0.3s runs, the child is mid-run-2.
            self._wait_for_first_run_record(sidecar_path(tmp_path / "out.json"))
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.join(timeout=30.0)
        assert child.exitcode == -signal.SIGKILL
        # No manifest was written — the process died mid-sweep.
        assert not (tmp_path / "out.json").exists()
        resumed = run_campaign(_sleepy_config(tmp_path, resume=True))
        assert 1 <= resumed["resumed_runs"] < len(resumed["runs"])
        assert _aggregate_json(resumed) == _aggregate_json(reference)
        assert _outputs_json(resumed) == _outputs_json(reference)

    def test_torn_sidecar_line_resumes_byte_identically(self, tmp_path):
        config = _sleepy_config(tmp_path, seeds=[0, 1, 2, 3], params={})
        reference = run_campaign(config)
        (tmp_path / "out.json").unlink()  # crash before the manifest
        sidecar = sidecar_path(tmp_path / "out.json")
        text = sidecar.read_text()
        sidecar.write_text(text[:-30])  # tear the final record mid-JSON
        resumed = run_campaign(
            _sleepy_config(tmp_path, seeds=[0, 1, 2, 3], params={}, resume=True)
        )
        assert resumed["resumed_runs"] == 3  # intact records reused
        assert _aggregate_json(resumed) == _aggregate_json(reference)
        assert _outputs_json(resumed) == _outputs_json(reference)


class TestRetriesAndTimeouts:
    def test_flaky_run_retried_until_it_succeeds(self, tmp_path):
        marker = tmp_path / "flaky.count"
        manifest = run_campaign(
            CampaignConfig(
                scenario="unit-fault-flaky",
                seeds=[0],
                params={"marker": str(marker), "fail_times": 2},
                retries=2,
            )
        )
        run = manifest["runs"][0]
        assert run["status"] == "ok"
        assert run["attempts"] == 3
        assert manifest["failed_runs"] == []
        assert manifest["aggregate"]["runs"] == 1

    def test_exhausted_retries_surface_in_the_manifest(self, tmp_path):
        manifest = run_campaign(
            CampaignConfig(
                scenario="unit-fault-boom", seeds=[0, 1],
                retries=1, on_error="record",
                output_path=tmp_path / "boom.json",
            )
        )
        assert manifest["failed_runs"] == [0, 1]
        for run in manifest["runs"]:
            assert run["status"] == "failed"
            assert run["attempts"] == 2  # 1 try + 1 retry, then surfaced
            assert run["error"]["type"] == "RuntimeError"
            assert run["error"]["message"] == "boom"
        assert manifest["aggregate"]["runs"] == 0
        assert manifest["aggregate"]["failed"] == 2
        # The failures are in the sidecar too (auditable), but a resume
        # re-executes them rather than reusing the failure.
        resumed = run_campaign(
            CampaignConfig(
                scenario="unit-fault-boom", seeds=[0, 1],
                on_error="record", output_path=tmp_path / "boom.json",
                resume=True,
            )
        )
        assert resumed["resumed_runs"] == 0

    def test_exhausted_retries_raise_by_default(self):
        with pytest.raises(CampaignRunError, match="2 attempt"):
            run_campaign(
                CampaignConfig(
                    scenario="unit-fault-boom", seeds=[0], retries=1
                )
            )

    def test_pool_worker_failure_propagates_with_run_identity(self):
        with pytest.raises(CampaignRunError, match="seed="):
            run_campaign(
                CampaignConfig(
                    scenario="unit-fault-boom", seeds=[0, 1], workers=2
                )
            )

    def test_hung_run_trips_the_timeout(self):
        if not hasattr(signal, "setitimer"):
            pytest.skip("no setitimer on this platform")
        start = time.monotonic()
        manifest = run_campaign(
            CampaignConfig(
                scenario="unit-fault-sleepy", seeds=[0],
                params={"sleep_s": 30.0},
                run_timeout_s=0.2, on_error="record",
            )
        )
        assert time.monotonic() - start < 10.0
        run = manifest["runs"][0]
        assert run["status"] == "failed"
        assert run["error"]["type"] == "RunTimeoutError"
        assert "0.2" in run["error"]["message"]

    def test_timeout_applies_per_attempt(self):
        if not hasattr(signal, "setitimer"):
            pytest.skip("no setitimer on this platform")
        manifest = run_campaign(
            CampaignConfig(
                scenario="unit-fault-sleepy", seeds=[0],
                params={"sleep_s": 30.0},
                run_timeout_s=0.1, retries=2, on_error="record",
            )
        )
        assert manifest["runs"][0]["attempts"] == 3

    def test_invalid_policy_configs_rejected(self):
        for overrides in (
            {"run_timeout_s": 0.0},
            {"retries": -1},
            {"retry_backoff_s": -0.5},
            {"on_error": "explode"},
            {"heartbeat_s": 0.0},
        ):
            with pytest.raises(ValueError):
                CampaignConfig(
                    scenario="unit-fault-boom", seeds=[0], **overrides
                ).validate()


class TestSidecarCrashSafety:
    def test_sidecar_closed_and_valid_when_a_pool_worker_raises(
        self, tmp_path
    ):
        path = tmp_path / "crash.json"
        with pytest.raises(CampaignRunError):
            run_campaign(
                CampaignConfig(
                    scenario="unit-fault-boom", seeds=[0, 1, 2], workers=2,
                    output_path=path,
                )
            )
        sidecar = sidecar_path(path)
        assert sidecar.exists()
        text = sidecar.read_text()
        assert text.endswith("\n")  # fully flushed, not torn by the crash
        meta = json.loads(text.splitlines()[0])
        assert meta["kind"] == "campaign-meta"
        assert meta["scenario"] == "unit-fault-boom"

    def test_crashed_campaign_resumes_from_its_sidecar(self, tmp_path):
        marker = tmp_path / "gate.marker"
        marker.write_text("broken")
        path = tmp_path / "gated.json"
        params = {"marker": str(marker), "fail_from": 1}
        with pytest.raises(CampaignRunError, match="seed 1"):
            run_campaign(
                CampaignConfig(
                    scenario="unit-fault-gated", seeds=[0, 1],
                    params=params, output_path=path,
                )
            )
        # Seed 0 completed and must be on disk despite the crash.
        runs = [
            json.loads(line)
            for line in sidecar_path(path).read_text().splitlines()[1:]
        ]
        assert [r["seed"] for r in runs] == [0]
        marker.unlink()  # "fix the bug", then resume
        resumed = run_campaign(
            CampaignConfig(
                scenario="unit-fault-gated", seeds=[0, 1],
                params=params, output_path=path, resume=True,
            )
        )
        assert resumed["resumed_runs"] == 1
        reference = run_campaign(
            CampaignConfig(
                scenario="unit-fault-gated", seeds=[0, 1], params=params
            )
        )
        assert _aggregate_json(resumed) == _aggregate_json(reference)


class TestHeartbeats:
    def test_heartbeats_stream_while_runs_are_in_flight(self, tmp_path):
        path = tmp_path / "hb.json"
        run_campaign(
            CampaignConfig(
                scenario="unit-fault-sleepy", seeds=[0, 1, 2, 3],
                params={"sleep_s": 0.05}, workers=2,
                heartbeat_s=0.02, output_path=path,
            )
        )
        records = [
            json.loads(line)
            for line in sidecar_path(path).read_text().splitlines()
        ]
        beats = [r for r in records if r.get("kind") == "heartbeat"]
        assert beats, "expected at least one heartbeat record"
        for beat in beats:
            assert beat["completed"] >= 0
            assert beat["pending"] >= 1  # emitted only while runs in flight
            assert beat["unix"] > 0
        # Heartbeats never pollute resume: everything is reused.
        resumed = run_campaign(
            CampaignConfig(
                scenario="unit-fault-sleepy", seeds=[0, 1, 2, 3],
                params={"sleep_s": 0.05}, heartbeat_s=0.02,
                output_path=path, resume=True,
            )
        )
        assert resumed["resumed_runs"] == 4

    def test_inline_runner_emits_heartbeats_too(self, tmp_path):
        path = tmp_path / "hb1.json"
        run_campaign(
            CampaignConfig(
                scenario="unit-fault-sleepy", seeds=[0, 1, 2],
                params={"sleep_s": 0.05}, workers=1,
                heartbeat_s=0.01, output_path=path,
            )
        )
        records = [
            json.loads(line)
            for line in sidecar_path(path).read_text().splitlines()
        ]
        assert any(r.get("kind") == "heartbeat" for r in records)
