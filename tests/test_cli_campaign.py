"""The campaign command line in real ``python -m repro`` processes.

``campaign`` builds its :class:`CampaignConfig` through the spec parser,
whether the campaign comes from flags or a spec file.  These checks pin
that a spec file's seed count runs that many seeds, and that
``campaign status`` names a CLI campaign's scenario and plan from its
sidecar alone.
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
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"scenario": "ctl-noop", "seeds": 3}))
    done = _repro(
        "campaign", "--spec-file", str(spec), "--out", "m.json", cwd=tmp_path
    )
    assert done.returncode == 0, done.stderr
    manifest = json.loads((tmp_path / "m.json").read_text())
    assert manifest["seeds"] == [0, 1, 2]
    assert [run["seed"] for run in manifest["runs"]] == [0, 1, 2]


def test_status_of_a_cli_campaign_prints_its_scenario_and_plan(tmp_path):
    done = _repro(
        "campaign", "--scenario", "ctl-noop", "--seeds", "3",
        "--grid", "draws=2,3", "--out", "sweep.json", cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    shown = _repro("campaign", "status", str(tmp_path), cwd=tmp_path)
    assert shown.returncode == 0, shown.stderr
    assert "[scenario ctl-noop]" in shown.stdout
    assert "state    : done  (6 run(s) planned)" in shown.stdout
    assert f"manifest : {tmp_path / 'sweep.json'}" in shown.stdout
