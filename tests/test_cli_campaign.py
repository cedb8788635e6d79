"""The campaign commands' command line: one flag declaration, one config.

``campaign`` and ``campaign drive`` declare the campaign-definition
flags in one helper and build their :class:`CampaignConfig` through one
path (the spec parser), so the same flags must give the same campaign
spec on both.  The subprocess checks pin what a malformed or terse spec
file does to a real ``python -m repro`` process: a seed count runs that
many seeds, and a bad value in ``campaign.json`` degrades ``campaign
status`` to its sidecar-only view instead of a traceback.
"""

import json
import os
import pathlib
import subprocess
import sys

from repro.__main__ import _campaign_command, _drive_command

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

CAMPAIGN_FLAGS = [
    "--scenario", "battery",
    "--seeds", "3,5",
    "--param", "duration_s=1.5",
    "--grid", "duration_s=1.0,2.0",
    "--name", "flags",
    "--timeout", "9",
    "--retries", "2",
    "--retry-backoff", "0.25",
    "--on-error", "record",
    "--heartbeat", "0.2",
]


def _repro(*argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")]
    )
    env["REPRO_SCENARIO_MODULES"] = "tests.control_scenarios"
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_campaign_and_drive_build_the_same_spec(tmp_path):
    _, _, single = _campaign_command(CAMPAIGN_FLAGS)
    _, _, driven = _drive_command(
        CAMPAIGN_FLAGS + ["--out-dir", str(tmp_path / "fleet")]
    )
    assert single.to_spec_dict() == driven.campaign.to_spec_dict()
    assert driven.campaign.retry_backoff_s == 0.25
    assert not (tmp_path / "fleet").exists()  # nothing was run


def test_spec_file_seed_count_runs_that_many_seeds(tmp_path):
    spec = tmp_path / "campaign.json"
    spec.write_text(json.dumps({"scenario": "ctl-noop", "seeds": 3}))
    done = _repro(
        "campaign", "--spec-file", str(spec), "--out", "m.json", cwd=tmp_path
    )
    assert done.returncode == 0, done.stderr
    manifest = json.loads((tmp_path / "m.json").read_text())
    assert manifest["seeds"] == [0, 1, 2]
    assert [run["seed"] for run in manifest["runs"]] == [0, 1, 2]


def test_status_with_a_bad_spec_value_shows_the_sidecar_view(tmp_path):
    (tmp_path / "campaign.json").write_text(
        json.dumps({"scenario": "ctl-noop", "params": [1]})
    )
    meta = {"kind": "campaign-meta", "scenario": "ctl-noop", "shard": None}
    run = {"index": 0, "seed": 0, "params": {}, "outputs": {}}
    (tmp_path / "m.json.runs.jsonl").write_text(
        json.dumps(meta) + "\n" + json.dumps(run) + "\n"
    )
    done = _repro("campaign", "status", str(tmp_path), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert "(no campaign.json)" in done.stdout
    assert "running" in done.stdout
