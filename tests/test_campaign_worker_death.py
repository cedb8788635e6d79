"""A campaign pool worker dies mid-run: the campaign notices.

The ``ctl-sigkill`` scenario (``tests/control_scenarios.py``) SIGKILLs
the worker executing one chosen seed, deterministically, so these tests
have no timing race.  The contracts pinned:

* with ``retries >= 1`` the lost run is resent to a fresh worker and
  the campaign's aggregate and per-run outputs are byte-identical to a
  ``workers=1`` run of the non-dying twin;
* with its attempts spent, ``on_error="record"`` writes the run as
  failed with an error naming its seed, params and SIGKILL, and every
  other run completes;
* ``on_error="raise"`` raises :class:`CampaignRunError` naming the
  run's index, seed, params and the signal, and leaves no child
  process behind;
* the other way round, workers whose campaign process is SIGKILLed
  exit on their own instead of lingering as orphans.

Each campaign runs in a subprocess under a timeout, in its own process
group: a pool that cannot see a worker die hangs forever, and that must
fail the test, not hang the suite.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import tests.control_scenarios  # noqa: F401 - registers ctl-* scenarios
from repro.telemetry import CampaignConfig, run_campaign

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Far above the few seconds an undisturbed campaign takes here.
TIMEOUT_S = 30.0

SEEDS = [0, 1, 2, 3]

_CHILD = """
import json, multiprocessing, sys
import tests.control_scenarios
from repro.telemetry import CampaignConfig, CampaignRunError, run_campaign
config = CampaignConfig(**json.loads(sys.argv[1]))
try:
    result = {"manifest": run_campaign(config)}
except CampaignRunError as exc:
    result = {"error": str(exc)}
result["active_children"] = len(multiprocessing.active_children())
print(json.dumps(result, default=str))
"""


def _start_campaign(**config):
    """The campaign in a subprocess of its own process group."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")]
    )
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD, json.dumps(config)],
        cwd=REPO_ROOT, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )


def _campaign_in_subprocess(**config):
    child = _start_campaign(**config)
    try:
        out, err = child.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)  # the campaign and its pool
        child.communicate()
        pytest.fail(
            f"campaign still running after {TIMEOUT_S}s: the pool did not "
            f"notice its worker die"
        )
    assert child.returncode == 0, err
    return json.loads(out.splitlines()[-1])


def _sigkill_config(**overrides):
    config = dict(
        scenario="ctl-sigkill",
        seeds=SEEDS,
        params={"draws": 3, "kill_seed": 1},
        workers=2,
    )
    config.update(overrides)
    return config


def test_lost_run_is_resent_and_matches_the_serial_twin(tmp_path):
    marker = tmp_path / "killed-once"
    result = _campaign_in_subprocess(
        **_sigkill_config(
            params={"draws": 3, "kill_seed": 1, "marker": str(marker)},
            retries=1,
        )
    )
    assert marker.exists()  # the first attempt did die
    manifest = result["manifest"]
    twin = run_campaign(
        CampaignConfig("ctl-sigkill", seeds=SEEDS, params={"draws": 3})
    )
    assert json.dumps(manifest["aggregate"], sort_keys=True) == json.dumps(
        twin["aggregate"], sort_keys=True
    )
    assert [r["outputs"] for r in manifest["runs"]] == [
        r["outputs"] for r in twin["runs"]
    ]
    assert manifest["failed_runs"] == []
    assert [r["attempts"] for r in manifest["runs"]] == [1, 2, 1, 1]


@pytest.mark.parametrize("retries", [0, 1])
def test_exhausted_run_is_recorded_naming_the_signal(retries):
    result = _campaign_in_subprocess(
        **_sigkill_config(retries=retries, on_error="record")
    )
    manifest = result["manifest"]
    assert manifest["failed_runs"] == [1]
    failed = manifest["runs"][1]
    assert failed["status"] == "failed"
    assert failed["attempts"] == retries + 1
    assert failed["error"]["type"] == "WorkerDied"
    message = failed["error"]["message"]
    assert "SIGKILL" in message
    assert "seed=1" in message and '"kill_seed": 1' in message
    assert [r["status"] for r in manifest["runs"]] == [
        "ok", "failed", "ok", "ok"
    ]
    assert manifest["aggregate"]["runs"] == 3


def test_exhausted_run_raises_naming_the_run_and_signal():
    result = _campaign_in_subprocess(**_sigkill_config(on_error="raise"))
    error = result["error"]
    assert error.startswith("run 1 (seed=1, params=")
    assert '"kill_seed": 1' in error
    assert "killed by SIGKILL" in error
    assert result["active_children"] == 0


def _live_children(pid):
    """Pids whose parent is ``pid`` and that are not zombies (/proc)."""
    children = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        except (OSError, ValueError):
            continue
        if int(ppid) == pid and state != "Z":
            children.append(int(entry.name))
    return children


def _running(pid):
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(
    not pathlib.Path("/proc/self/stat").exists(), reason="reads /proc"
)
def test_workers_exit_when_the_campaign_process_is_killed():
    child = _start_campaign(
        scenario="ctl-noop", seeds=list(range(8)),
        params={"sleep_s": 0.3}, workers=2,
    )
    try:
        deadline = time.monotonic() + TIMEOUT_S
        workers = _live_children(child.pid)
        while len(workers) < 2:
            assert time.monotonic() < deadline, "the pool never started"
            time.sleep(0.05)
            workers = _live_children(child.pid)
        child.kill()
        child.wait()  # not communicate(): live workers hold its pipes
        # Each worker finishes the 0.3 s run it holds, then must see its
        # parent gone.
        deadline = time.monotonic() + 10.0
        while any(map(_running, workers)):
            assert time.monotonic() < deadline, (
                f"workers {workers} outlived their campaign"
            )
            time.sleep(0.05)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.communicate()
