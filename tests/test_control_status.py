"""``campaign status`` / ``fleet_status``: the from-disk campaign view.

Most of these are built from hand-written sidecars and manifests with
no campaign running, because that is the contract: status is
reconstructed from what a campaign leaves on disk, so it works against
running, finished, and crashed campaigns alike.  Pinned specifically:

* states (pending / running / stalled / done) derive from the
  manifest, heartbeat freshness, and the stall threshold;
* campaign, scenario and plan size come from the sidecar's meta line;
* a finished campaign has nothing pending, whatever its last heartbeat
  said (checked against a real campaign too), and is ``done`` whatever
  its manifest is called;
* a resumed campaign read mid-run is ``running``, not ``done`` on the
  strength of the manifest its earlier run left;
* two campaigns in one directory are an error, not a lost row;
* the stall threshold is four heartbeat intervals, read from the
  sidecar's meta line;
* a **torn trailing sidecar line** (a SIGKILLed campaign's signature)
  is tolerated, not fatal — reusing the shared sidecar parsing.
"""

import json
import threading
import time

import pytest

import tests.control_scenarios  # noqa: F401 - registers ctl-* scenarios
from repro.control import fleet_status, render_fleet_status
from repro.telemetry import CampaignConfig, run_campaign, status_to_json
from repro.telemetry.campaign import parse_sidecar_text, sidecar_path

NOW = time.time()


def _sidecar(
    tmp_path,
    run_indices=(),
    heartbeat=None,
    torn_tail=False,
    with_manifest=False,
    failed=(),
    heartbeat_s=None,
):
    """Write the campaign's sidecar (and optionally its manifest) by hand."""
    lines = [
        json.dumps(
            {
                "kind": "campaign-meta",
                "scenario": "ctl-noop",
                "campaign": "status-test",
                "heartbeat_s": heartbeat_s,
                "plan_runs": 4,
                "created_unix": NOW - 60.0,
            }
        )
    ]
    for run_index in run_indices:
        lines.append(
            json.dumps(
                {
                    "index": run_index,
                    "seed": run_index,
                    "params": {},
                    "status": "failed" if run_index in failed else "ok",
                    "outputs": {"value": run_index},
                }
            )
        )
    if heartbeat is not None:
        lines.append(json.dumps({"kind": "heartbeat", **heartbeat}))
    text = "\n".join(lines) + "\n"
    if torn_tail:
        text += '{"index": 99, "seed": 99, "params": {}, "outpu'  # mid-write
    path = tmp_path / "manifest.json.runs.jsonl"
    path.write_text(text)
    if with_manifest:
        (tmp_path / "manifest.json").write_text("{}\n")
    return path


class TestStates:
    def test_done_when_manifest_exists(self, tmp_path):
        _sidecar(
            tmp_path, run_indices=(0, 1, 2, 3), with_manifest=True,
            heartbeat={"unix": NOW - 1.0, "completed": 2, "pending": 2},
        )
        status = fleet_status(tmp_path, now=NOW)
        assert (status["state"], status["runs"], status["pending"]) == (
            "done", 4, 0,
        )
        assert status["plan_runs"] == 4
        assert status["manifest"] == str(tmp_path / "manifest.json")

    def test_running_with_fresh_heartbeat(self, tmp_path):
        _sidecar(
            tmp_path, run_indices=(0, 1),
            heartbeat={"unix": NOW - 0.2, "completed": 2, "pending": 2},
        )
        status = fleet_status(tmp_path, now=NOW)
        assert status["state"] == "running"
        assert status["runs"] == 2
        assert status["pending"] == 2
        assert status["last_heartbeat_unix"] == pytest.approx(NOW - 0.2)
        assert status["manifest"] is None

    def test_stalled_after_silence(self, tmp_path):
        _sidecar(
            tmp_path, run_indices=(0,), heartbeat_s=0.5,  # stall: 2s
            heartbeat={"unix": NOW - 60.0, "completed": 1, "pending": 3},
        )
        status = fleet_status(tmp_path, now=NOW + 120.0)
        assert status["state"] == "stalled"

    def test_finished_campaign_has_nothing_pending(self, tmp_path):
        # Heartbeats beat while the two slow runs are in flight, so the
        # last one reads pending >= 1; the manifest says otherwise.
        run_campaign(
            CampaignConfig(
                "ctl-noop", seeds=[0, 1], params={"sleep_s": 0.3},
                workers=2, heartbeat_s=0.05,
                output_path=tmp_path / "manifest.json",
            )
        )
        status = fleet_status(tmp_path)
        assert status["last_heartbeat_unix"] is not None
        assert (status["state"], status["runs"], status["pending"]) == (
            "done", 2, 0,
        )
        assert status["stall_after_s"] == pytest.approx(4 * 0.05)
        assert (status["campaign"], status["scenario"]) == (
            "ctl-noop", "ctl-noop",
        )
        assert status["plan_runs"] == 2

    def test_finished_campaign_is_done_under_any_name(self, tmp_path):
        run_campaign(
            CampaignConfig(
                "ctl-noop", seeds=[0, 1], name="probe-sweep",
                output_path=tmp_path / "sweep.json",
            )
        )
        status = fleet_status(tmp_path)
        assert status["state"] == "done"
        assert status["manifest"] == str(tmp_path / "sweep.json")
        assert (status["campaign"], status["plan_runs"]) == ("probe-sweep", 2)
        assert "(not written yet)" not in render_fleet_status(status)

    def test_resumed_campaign_reads_running_mid_run(self, tmp_path):
        # A finished 2-seed campaign, widened to 5 seeds by --resume: its
        # old manifest must not make the running resume read as done.
        out = tmp_path / "manifest.json"
        run_campaign(CampaignConfig("ctl-noop", seeds=[0, 1], output_path=out))
        resume = threading.Thread(
            target=run_campaign,
            args=(
                CampaignConfig(
                    "ctl-noop", seeds=[0, 1, 2, 3, 4], params={"sleep_s": 0.3},
                    heartbeat_s=0.02, output_path=out, resume=True,
                ),
            ),
        )
        resume.start()
        try:
            deadline = time.monotonic() + 30.0
            while not any(
                record.get("kind") == "heartbeat"
                for record in parse_sidecar_text(sidecar_path(out).read_text())
            ):
                assert time.monotonic() < deadline, "no heartbeat in time"
                time.sleep(0.005)
            status = fleet_status(tmp_path)
        finally:
            resume.join(timeout=30.0)
        assert status["state"] == "running"
        assert status["pending"] > 0
        assert status["runs"] < status["plan_runs"] == 5
        assert status["manifest"] is None
        assert fleet_status(tmp_path)["state"] == "done"

    def test_stall_threshold_comes_from_the_sidecar_heartbeat(
        self, tmp_path
    ):
        # No campaign.json: the sidecar's meta line alone sets it.
        _sidecar(
            tmp_path, run_indices=(0,), heartbeat_s=0.2,
            heartbeat={"unix": NOW - 1.0, "completed": 1, "pending": 1},
        )
        later = time.time() + 10.0  # past the file's mtime as well
        status = fleet_status(tmp_path, now=later)
        assert status["stall_after_s"] == pytest.approx(0.8)
        assert status["state"] == "stalled"
        assert fleet_status(tmp_path, now=later, stall_after_s=60.0)[
            "state"
        ] == "running"


class TestTornAndMissingArtifacts:
    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        _sidecar(tmp_path, run_indices=(0, 1, 2), torn_tail=True)
        status = fleet_status(tmp_path, now=NOW)
        assert status["runs"] == 3  # torn record not counted

    def test_no_spec_no_driver_sidecars_only(self, tmp_path):
        _sidecar(tmp_path, run_indices=(0,))
        status = fleet_status(tmp_path, now=NOW, stall_after_s=1e9)
        assert status["campaign"] == "status-test"  # from the meta line
        assert status["scenario"] == "ctl-noop"
        assert status["plan_runs"] == 4
        assert status["state"] == "running"

    def test_empty_directory_is_pending(self, tmp_path):
        status = fleet_status(tmp_path, now=NOW)
        assert (status["state"], status["sidecar"]) == ("pending", None)
        assert "no campaign sidecar" in render_fleet_status(status)

    def test_non_directory_raises(self, tmp_path):
        with pytest.raises(ValueError, match="not a campaign directory"):
            fleet_status(tmp_path / "nope")

    @pytest.mark.parametrize(
        "other_name", ["other.json", "other.shard1of2.json"],
        ids=["unsharded", "sharded"],
    )
    def test_two_campaigns_in_one_directory_raise(self, tmp_path, other_name):
        # One view would silently describe only one of them -- also when
        # the other sidecar carries the shard naming of an older layout.
        for output, seeds in (("sweep.json", [0, 1]), (other_name, [0, 1, 2])):
            run_campaign(
                CampaignConfig(
                    "ctl-noop", seeds=seeds, output_path=tmp_path / output
                )
            )
        with pytest.raises(ValueError, match="more than one campaign") as excinfo:
            fleet_status(tmp_path)
        message = str(excinfo.value)
        assert "sweep.json.runs.jsonl" in message
        assert f"{other_name}.runs.jsonl" in message

    def test_sidecar_without_plan_size_reads_as_unknown(self, tmp_path):
        meta = {"kind": "campaign-meta"}
        (tmp_path / "m.json.runs.jsonl").write_text(json.dumps(meta) + "\n")
        status = fleet_status(tmp_path, now=NOW)
        assert (status["campaign"], status["plan_runs"]) == (None, None)
        assert "campaign : (unknown)" in render_fleet_status(status)

    def test_failed_runs_are_counted(self, tmp_path):
        _sidecar(tmp_path, run_indices=(0, 1, 2), failed=(1,))
        status = fleet_status(tmp_path, now=NOW, stall_after_s=1e9)
        assert status["failed"] == 1


class TestRendering:
    def test_render_shows_progress_and_manifest(self, tmp_path):
        _sidecar(
            tmp_path, run_indices=(0, 2), failed=(2,),
            heartbeat={"unix": NOW - 0.2, "completed": 2, "pending": 2},
        )
        text = render_fleet_status(fleet_status(tmp_path, now=NOW))
        assert "[scenario ctl-noop]" in text
        assert "state    : running  (4 run(s) planned)" in text
        assert "runs     : 2 recorded, 1 failed, 2 pending" in text
        assert "manifest : (not written yet)" in text

    def test_status_snapshot_serializes_canonically(self, tmp_path):
        _sidecar(tmp_path, run_indices=(0,), with_manifest=True)
        status = fleet_status(tmp_path, now=NOW)
        text = status_to_json(status)
        assert json.loads(text)["dir"] == str(tmp_path)
        assert text.endswith("\n")
