"""The campaign command line in real ``python -m repro`` processes.

``campaign`` builds its :class:`CampaignConfig` through the spec parser,
whether the campaign comes from flags or a spec file.  These checks pin
what a terse or malformed spec file does: a seed count runs that many
seeds, and a bad value in ``campaign.json`` degrades ``campaign status``
to its sidecar-only view instead of a traceback.
"""

import json
import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


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
