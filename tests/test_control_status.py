"""``campaign status`` / ``fleet_status``: the from-disk campaign view.

Most of these are built from hand-written sidecars and manifests with
no campaign running, because that is the contract: status is
reconstructed from what a campaign leaves on disk, so it works against
running, finished, and crashed campaigns alike.  Pinned specifically:

* shard states (pending / running / stalled / done) derive from
  manifests, heartbeat freshness, and the stall threshold;
* campaign, scenario and plan size come from the sidecar's meta line;
* a finished shard has nothing pending, whatever its last heartbeat
  said (checked against a real campaign too);
* a finished unsharded campaign is ``done`` whatever its manifest is
  called; a sharded one waits for the merged ``manifest.json``;
* two campaigns in one directory are an error, not a lost row, even
  when their shards fit together by index and count;
* the stall threshold is four heartbeat intervals, read from the
  sidecar's meta line;
* a **torn trailing sidecar line** (a SIGKILLed shard's signature) is
  tolerated, not fatal — reusing the shared sidecar parsing;
* a **missing sidecar** for a known shard index reads as ``pending``.
"""

import json
import time

import pytest

import tests.control_scenarios  # noqa: F401 - registers ctl-* scenarios
from repro.control import fleet_status, render_fleet_status
from repro.telemetry import (
    CampaignConfig,
    merge_manifest_files,
    run_campaign,
    status_to_json,
)

NOW = time.time()


def _sidecar(
    tmp_path,
    index,
    count,
    run_indices=(),
    heartbeat=None,
    torn_tail=False,
    with_manifest=False,
    failed=(),
    heartbeat_s=None,
):
    """Write one shard sidecar (and optionally its manifest) by hand."""
    stem = f"manifest.shard{index + 1}of{count}.json"
    lines = [
        json.dumps(
            {
                "kind": "campaign-meta",
                "scenario": "ctl-noop",
                "campaign": "status-test",
                "shard": {"index": index, "count": count},
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
    path = tmp_path / f"{stem}.runs.jsonl"
    path.write_text(text)
    if with_manifest:
        (tmp_path / stem).write_text("{}\n")
    return path


class TestShardStates:
    def test_done_when_shard_manifest_exists(self, tmp_path):
        _sidecar(tmp_path, 0, 2, run_indices=(0, 2), with_manifest=True)
        _sidecar(tmp_path, 1, 2, run_indices=(1, 3), with_manifest=True)
        status = fleet_status(tmp_path, now=NOW)
        assert [s["state"] for s in status["shards"]] == ["done", "done"]
        assert status["state"] == "merge-pending"  # no merged manifest.json
        assert status["plan_runs"] == 4
        assert status["shard_count"] == 2

    def test_done_overall_once_merged_manifest_lands(self, tmp_path):
        _sidecar(tmp_path, 0, 1, run_indices=(0,), with_manifest=True)
        (tmp_path / "manifest.json").write_text("{}\n")
        status = fleet_status(tmp_path, now=NOW)
        assert status["state"] == "done"
        assert status["merged_manifest"] == str(tmp_path / "manifest.json")

    def test_running_with_fresh_heartbeat(self, tmp_path):
        _sidecar(
            tmp_path, 0, 1, run_indices=(0, 1),
            heartbeat={"unix": NOW - 0.2, "completed": 2, "pending": 2},
        )
        status = fleet_status(tmp_path, now=NOW)
        (shard,) = status["shards"]
        assert shard["state"] == "running"
        assert shard["runs"] == 2
        assert shard["pending"] == 2
        assert shard["last_heartbeat_unix"] == pytest.approx(NOW - 0.2)

    def test_stalled_after_silence(self, tmp_path):
        _sidecar(
            tmp_path, 0, 1, run_indices=(0,), heartbeat_s=0.5,  # stall: 2s
            heartbeat={"unix": NOW - 60.0, "completed": 1, "pending": 3},
        )
        status = fleet_status(tmp_path, now=NOW + 120.0)
        assert status["shards"][0]["state"] == "stalled"
        assert status["state"] == "stalled"

    def test_finished_shard_has_nothing_pending(self, tmp_path):
        _sidecar(
            tmp_path, 0, 1, run_indices=(0, 1, 2, 3), with_manifest=True,
            heartbeat={"unix": NOW - 1.0, "completed": 2, "pending": 2},
        )
        (shard,) = fleet_status(tmp_path, now=NOW)["shards"]
        assert shard["state"] == "done"
        assert shard["pending"] == 0

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
        (shard,) = status["shards"]
        assert shard["last_heartbeat_unix"] is not None
        assert (shard["state"], shard["runs"], shard["pending"]) == (
            "done", 2, 0,
        )
        assert status["state"] == "done"
        assert status["stall_after_s"] == pytest.approx(4 * 0.05)
        assert (status["campaign"], status["scenario"]) == (
            "ctl-noop", "ctl-noop",
        )
        assert status["plan_runs"] == 2

    def test_finished_unsharded_campaign_is_done_under_any_name(
        self, tmp_path
    ):
        # Nothing to merge: its own manifest is the result.
        run_campaign(
            CampaignConfig(
                "ctl-noop", seeds=[0, 1], name="probe-sweep",
                output_path=tmp_path / "sweep.json",
            )
        )
        status = fleet_status(tmp_path)
        assert status["state"] == "done"
        assert status["merged_manifest"] == str(tmp_path / "sweep.json")
        assert (status["campaign"], status["plan_runs"]) == ("probe-sweep", 2)
        assert "(not merged yet)" not in render_fleet_status(status)

    def test_sharded_campaign_waits_for_its_merge(self, tmp_path):
        out = tmp_path / "manifest.json"
        shards = [
            run_campaign(
                CampaignConfig(
                    "ctl-noop", seeds=[0, 1, 2], grid={"draws": [2, 3]},
                    shard_index=index, shard_count=2, output_path=out,
                )
            )
            for index in range(2)
        ]
        status = fleet_status(tmp_path)
        assert [s["state"] for s in status["shards"]] == ["done", "done"]
        assert status["state"] == "merge-pending"
        assert status["merged_manifest"] is None
        assert (status["scenario"], status["plan_runs"]) == ("ctl-noop", 6)
        assert status["shard_count"] == 2
        merge_manifest_files(
            [s["runs_jsonl"][: -len(".runs.jsonl")] for s in shards], out
        )
        status = fleet_status(tmp_path)
        assert status["state"] == "done"
        assert status["merged_manifest"] == str(out)

    def test_stall_threshold_comes_from_the_sidecar_heartbeat(
        self, tmp_path
    ):
        # No campaign.json: the sidecar's meta line alone sets it.
        _sidecar(
            tmp_path, 0, 1, run_indices=(0,), heartbeat_s=0.2,
            heartbeat={"unix": NOW - 1.0, "completed": 1, "pending": 1},
        )
        later = time.time() + 10.0  # past the file's mtime as well
        status = fleet_status(tmp_path, now=later)
        assert status["stall_after_s"] == pytest.approx(0.8)
        assert status["shards"][0]["state"] == "stalled"
        assert fleet_status(tmp_path, now=later, stall_after_s=60.0)[
            "shards"
        ][0]["state"] == "running"

    def test_missing_sidecar_reads_as_pending(self, tmp_path):
        _sidecar(tmp_path, 0, 3, run_indices=(0,), with_manifest=True)
        status = fleet_status(tmp_path, now=NOW)
        by_index = {s["index"]: s["state"] for s in status["shards"]}
        assert by_index == {0: "done", 1: "pending", 2: "pending"}


class TestTornAndMissingArtifacts:
    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        _sidecar(tmp_path, 0, 1, run_indices=(0, 1, 2), torn_tail=True)
        status = fleet_status(tmp_path, now=NOW)
        assert status["shards"][0]["runs"] == 3  # torn record not counted

    def test_no_spec_no_driver_sidecars_only(self, tmp_path):
        _sidecar(tmp_path, 0, 2, run_indices=(0,), with_manifest=True)
        _sidecar(tmp_path, 1, 2, run_indices=(1,))
        status = fleet_status(tmp_path, now=NOW, stall_after_s=1e9)
        assert status["campaign"] == "status-test"  # from the meta lines
        assert status["scenario"] == "ctl-noop"
        assert status["plan_runs"] == 4
        assert status["shard_count"] == 2
        assert [s["state"] for s in status["shards"]] == ["done", "running"]

    def test_empty_directory_has_no_shards(self, tmp_path):
        status = fleet_status(tmp_path, now=NOW)
        assert status["shards"] == []
        assert "no shard sidecars" in render_fleet_status(status)

    def test_non_directory_raises(self, tmp_path):
        with pytest.raises(ValueError, match="not a campaign directory"):
            fleet_status(tmp_path / "nope")

    @pytest.mark.parametrize(
        "other_shard", [None, 0], ids=["unsharded", "sharded"]
    )
    def test_two_campaigns_in_one_directory_raise(self, tmp_path, other_shard):
        # Either way one row would silently replace or hide the other.
        run_campaign(
            CampaignConfig(
                "ctl-noop", seeds=[0, 1], output_path=tmp_path / "sweep.json"
            )
        )
        run_campaign(
            CampaignConfig(
                "ctl-noop", seeds=[0, 1, 2],
                output_path=tmp_path / "other.json",
                shard_index=other_shard,
                shard_count=1 if other_shard is None else 2,
            )
        )
        with pytest.raises(ValueError) as excinfo:
            fleet_status(tmp_path)
        message = str(excinfo.value)
        assert "sweep.json.runs.jsonl" in message
        assert "other" in message

    def test_shards_of_two_campaigns_with_one_shard_count_raise(self, tmp_path):
        # Shard 1/2 of one sweep and shard 2/2 of another fit together by
        # index and count; the meta lines still tell them apart.
        for name, seeds, index in (("ctl-noop", [0, 1], 0), ("ctl-sigkill", [0, 1, 2], 1)):
            run_campaign(
                CampaignConfig(
                    name, seeds=seeds, output_path=tmp_path / f"{name}.json",
                    shard_index=index, shard_count=2,
                )
            )
        with pytest.raises(ValueError, match="different campaigns") as excinfo:
            fleet_status(tmp_path)
        message = str(excinfo.value)
        assert "ctl-noop.shard1of2.json.runs.jsonl" in message
        assert "ctl-sigkill.shard2of2.json.runs.jsonl" in message

    @pytest.mark.parametrize(
        "key, value", [("campaign", "other"), ("scenario", "ctl-boom"), ("plan_runs", 5)]
    )
    def test_meta_lines_must_agree(self, tmp_path, key, value):
        _sidecar(tmp_path, 0, 2)
        path = _sidecar(tmp_path, 1, 2)
        meta, rest = path.read_text().split("\n", 1)
        path.write_text(json.dumps({**json.loads(meta), key: value}) + "\n" + rest)
        with pytest.raises(ValueError, match=f"{key} .* vs {value!r}"):
            fleet_status(tmp_path, now=NOW)

    def test_sidecar_without_plan_size_reads_as_unknown(self, tmp_path):
        meta = {"kind": "campaign-meta", "shard": None}
        (tmp_path / "m.json.runs.jsonl").write_text(json.dumps(meta) + "\n")
        status = fleet_status(tmp_path, now=NOW)
        assert (status["campaign"], status["plan_runs"]) == (None, None)
        assert "campaign : (unknown)" in render_fleet_status(status)

    def test_failed_runs_are_counted(self, tmp_path):
        _sidecar(tmp_path, 0, 1, run_indices=(0, 1, 2), failed=(1,))
        status = fleet_status(tmp_path, now=NOW, stall_after_s=1e9)
        assert status["shards"][0]["failed"] == 1


class TestRendering:
    def test_render_includes_the_shard_table(self, tmp_path):
        _sidecar(tmp_path, 0, 2, run_indices=(0, 2), with_manifest=True)
        _sidecar(
            tmp_path, 1, 2, run_indices=(1,),
            heartbeat={"unix": NOW - 0.2, "completed": 1, "pending": 1},
        )
        text = render_fleet_status(fleet_status(tmp_path, now=NOW))
        assert "SHARD" in text and "STATE" in text and "PENDING" in text
        assert "1/2" in text and "2/2" in text
        assert "[scenario ctl-noop]" in text
        assert "4 run(s) planned across 2 shard(s)" in text

    def test_status_snapshot_serializes_canonically(self, tmp_path):
        _sidecar(tmp_path, 0, 1, run_indices=(0,), with_manifest=True)
        status = fleet_status(tmp_path, now=NOW)
        text = status_to_json(status)
        assert json.loads(text)["dir"] == str(tmp_path)
        assert text.endswith("\n")
