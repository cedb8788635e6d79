"""Fault injection for the campaign driver (the control-plane tentpole).

The contracts pinned here:

* a driven fleet with **no** faults merges to the same aggregate, byte
  for byte, as an unsharded in-process run of the same campaign;
* a shard **SIGKILLed mid-run** has its slice stolen — relaunched on
  the same shard index with ``--resume`` — and the final merge is
  *still* byte-identical to the unsharded run (the ISSUE acceptance
  check);
* a shard that **hangs** (SIGSTOP: process alive, heartbeats stopped)
  is detected by heartbeat timeout and its slice reassigned;
* a shard that is merely **slow** — one long run, heartbeats flowing
  from the writer's beat thread — is *not* declared dead even when the
  run takes several timeouts' worth of wall clock (the false-positive
  case);
* a shard that dies more times than ``slice_retries`` allows fails the
  drive with :class:`~repro.control.driver.DriverError` instead of
  merging a partial campaign.

Scenarios come from ``tests/control_scenarios.py`` so the shard
subprocesses can import them by module path (the driver exports
``REPRO_SCENARIO_MODULES``); the in-process reference runs import the
same module directly.
"""

import json
import pathlib

import pytest

import tests.control_scenarios  # noqa: F401 - registers ctl-* scenarios
from repro.control import DriverConfig, DriverError, drive_campaign
from repro.telemetry import CampaignConfig, run_campaign
from repro.telemetry.campaign import SPEC_FIELDS

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

SEEDS = [0, 1, 2, 3, 4, 5]
PARAMS = {"draws": 3}


def _driver_config(tmp_path, **overrides):
    """A fast test fleet; chaos/timeout knobs come in via overrides.
    Overrides named after a campaign spec field go to the campaign, the
    rest to the fleet."""
    campaign = dict(
        scenario="ctl-noop",
        seeds=SEEDS,
        params=dict(PARAMS),
        heartbeat_s=0.1,
    )
    campaign.update(
        {key: overrides.pop(key) for key in SPEC_FIELDS if key in overrides}
    )
    defaults = dict(
        campaign=CampaignConfig(**campaign),
        out_dir=tmp_path / "fleet",
        shards=2,
        # Generous: only the timeout-specific tests tighten this.
        heartbeat_timeout_s=60.0,
        poll_s=0.05,
        slice_retries=1,
        scenario_modules=("tests.control_scenarios",),
        extra_pythonpath=(REPO_ROOT,),
    )
    defaults.update(overrides)
    return DriverConfig(**defaults)


def _reference_manifest(seeds=SEEDS, params=PARAMS):
    """The unsharded, in-process ground truth for the same campaign."""
    return run_campaign(
        CampaignConfig(scenario="ctl-noop", seeds=seeds, params=dict(params))
    )


def _aggregate_json(manifest):
    return json.dumps(manifest["aggregate"], sort_keys=True)


class TestHappyPath:
    def test_drive_matches_unsharded_byte_identically(self, tmp_path):
        result = drive_campaign(_driver_config(tmp_path))
        merged, reference = result["manifest"], _reference_manifest()
        assert result["reassignments"] == 0
        assert result["shard_attempts"] == {0: 1, 1: 1}
        assert merged["complete"] is True
        assert _aggregate_json(merged) == _aggregate_json(reference)
        assert [r["outputs"] for r in merged["runs"]] == [
            r["outputs"] for r in reference["runs"]
        ]

    def test_drive_writes_the_campaign_artifacts(self, tmp_path):
        result = drive_campaign(_driver_config(tmp_path))
        out_dir = pathlib.Path(result["out_dir"])
        assert (out_dir / "campaign.json").exists()
        assert (out_dir / "driver.json").exists()
        assert (out_dir / "manifest.json").exists()
        driver_state = json.loads((out_dir / "driver.json").read_text())
        assert driver_state["state"] == "done"
        assert driver_state["shard_count"] == 2
        assert [s["state"] for s in driver_state["shards"]] == ["done", "done"]

    def test_merged_manifest_on_disk_matches_returned_one(self, tmp_path):
        result = drive_campaign(_driver_config(tmp_path))
        on_disk = json.loads(pathlib.Path(result["manifest_path"]).read_text())
        assert _aggregate_json(on_disk) == _aggregate_json(result["manifest"])


class TestSliceStealing:
    def test_sigkilled_shard_slice_is_stolen_and_merge_is_byte_identical(
        self, tmp_path
    ):
        events = []
        result = drive_campaign(
            _driver_config(
                tmp_path,
                # Long enough that the SIGKILL (fired after the first
                # completed run record) lands mid-slice.
                params={**PARAMS, "sleep_s": 0.2},
                chaos_kill_shard=0,
            ),
            on_event=events.append,
        )
        kinds = [e["kind"] for e in events]
        assert "chaos-kill" in kinds
        reassigns = [e for e in events if e["kind"] == "reassign"]
        assert [e["shard"] for e in reassigns] == [0]
        assert result["reassignments"] == 1
        assert result["shard_attempts"][0] == 2
        assert result["shard_attempts"][1] == 1
        reference = _reference_manifest(params={**PARAMS, "sleep_s": 0.2})
        merged = result["manifest"]
        assert merged["complete"] is True
        assert _aggregate_json(merged) == _aggregate_json(reference)
        assert [r["outputs"] for r in merged["runs"]] == [
            r["outputs"] for r in reference["runs"]
        ]

    def test_relaunched_shard_resumes_completed_runs(self, tmp_path):
        """The steal is a resume, not a redo: the relaunched shard
        reuses the runs its predecessor streamed to the sidecar."""
        result = drive_campaign(
            _driver_config(
                tmp_path,
                params={**PARAMS, "sleep_s": 0.2},
                chaos_kill_shard=0,
            )
        )
        shard0 = json.loads(
            (pathlib.Path(result["out_dir"]) / "manifest.shard1of2.json")
            .read_text()
        )
        assert shard0["resumed_runs"] >= 1

    def test_hung_shard_is_detected_by_heartbeat_timeout(self, tmp_path):
        """SIGSTOP leaves the process *alive* — only the heartbeat
        timeout can catch it.  The driver must SIGKILL and reassign."""
        events = []
        result = drive_campaign(
            _driver_config(
                tmp_path,
                params={**PARAMS, "sleep_s": 0.1},
                chaos_stop_shard=1,
                heartbeat_timeout_s=1.0,
            ),
            on_event=events.append,
        )
        dead = [e for e in events if e["kind"] == "dead"]
        assert any(
            e["shard"] == 1 and "no sidecar activity" in e["reason"]
            for e in dead
        )
        assert result["reassignments"] == 1
        assert result["shard_attempts"][1] == 2
        reference = _reference_manifest(params={**PARAMS, "sleep_s": 0.1})
        assert _aggregate_json(result["manifest"]) == _aggregate_json(reference)


class TestFalsePositives:
    def test_slow_but_alive_shard_is_not_shot(self, tmp_path):
        """One run takes several heartbeat-timeouts of wall clock; the
        sidecar's heartbeat thread keeps beating through it, so the
        driver must not declare the shard dead."""
        events = []
        result = drive_campaign(
            _driver_config(
                tmp_path,
                seeds=[0, 1],
                params={**PARAMS, "sleep_s": 1.5},
                heartbeat_s=0.05,
                heartbeat_timeout_s=0.5,
            ),
            on_event=events.append,
        )
        assert [e for e in events if e["kind"] in ("dead", "reassign")] == []
        assert result["reassignments"] == 0
        assert result["shard_attempts"] == {0: 1, 1: 1}
        reference = _reference_manifest(
            seeds=[0, 1], params={**PARAMS, "sleep_s": 1.5}
        )
        assert _aggregate_json(result["manifest"]) == _aggregate_json(reference)


class TestBudgetExhaustion:
    def test_always_dying_shard_exhausts_slice_retries(self, tmp_path):
        with pytest.raises(DriverError, match="relaunch budget"):
            drive_campaign(
                _driver_config(
                    tmp_path, scenario="ctl-boom", params={}, slice_retries=1
                )
            )

    def test_failed_drive_leaves_driver_json_failed(self, tmp_path):
        config = _driver_config(
            tmp_path, scenario="ctl-boom", params={}, slice_retries=0
        )
        with pytest.raises(DriverError):
            drive_campaign(config)
        driver_state = json.loads(
            (pathlib.Path(config.out_dir) / "driver.json").read_text()
        )
        assert driver_state["state"] == "failed"


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"shards": 0},
            {"workers_per_shard": 0},
            {"heartbeat_s": 0.0},
            {"heartbeat_timeout_s": 0.05},  # below heartbeat_s
            {"poll_s": 0.0},
            {"slice_retries": -1},
            {"chaos_kill_shard": 5},
            {"chaos_stop_shard": -1},
        ],
    )
    def test_bad_knobs_fail_fast(self, tmp_path, overrides):
        with pytest.raises(ValueError):
            _driver_config(tmp_path, **overrides).validate()

    def test_unknown_builtin_scenario_fails_before_spawning(self, tmp_path):
        config = _driver_config(
            tmp_path, scenario="no-such-scenario", scenario_modules=()
        )
        with pytest.raises(DriverError, match="unknown scenario"):
            drive_campaign(config)
