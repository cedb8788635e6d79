"""Scenarios for the campaign and control-plane tests, in an importable
module.

Subprocesses know scenarios only by *name*; names outside
``repro.scenario.library`` resolve via the ``REPRO_SCENARIO_MODULES``
import hook.  These scenarios therefore live in a real module (not a
test body) so every side can import them: the test process directly,
and a ``python -m repro campaign`` subprocess through
``REPRO_SCENARIO_MODULES=tests.control_scenarios`` with the repository
root on ``PYTHONPATH``.
"""

from __future__ import annotations

import os
import signal
import time

from repro.scenario import FloatParam, IntParam, StrParam, scenario


def _draws(ctx):
    draws = ctx.params["draws"]
    values = ctx.rng.integers(0, 1000, size=draws)
    return {
        "draws": draws,
        "value_sum": int(values.sum()),
        "value_first": int(values[0]),
    }


@scenario(
    "ctl-noop",
    description="deterministic per-seed draws after an optional sleep",
    param_schema={
        "sleep_s": FloatParam(minimum=0.0, default=0.0),
        "draws": IntParam(minimum=1, default=4),
    },
)
def ctl_noop(ctx):
    """Cheap and deterministic: the control tests' workhorse.

    ``sleep_s`` stretches one run's wall-clock; the outputs depend only
    on the seed and ``draws``, which is what makes "this campaign equals
    that one, byte for byte" checkable after any amount of fault
    injection.
    """
    if ctx.params["sleep_s"]:
        time.sleep(ctx.params["sleep_s"])
    return _draws(ctx)


@scenario(
    "ctl-sigkill",
    description="ctl-noop whose kill_seed run SIGKILLs its own process",
    param_schema={
        "draws": IntParam(minimum=1, default=4),
        "kill_seed": IntParam(default=-1),
        "marker": StrParam(default=""),
    },
)
def ctl_sigkill(ctx):
    """A worker death on demand, with no timing race.

    The run whose seed is ``kill_seed`` SIGKILLs the process executing
    it: every time when ``marker`` is empty, else only while the marker
    file does not exist yet (the dying attempt creates it first), so a
    retry succeeds.  Every other run, and the default ``kill_seed=-1``
    twin, returns what ``ctl-noop`` returns.  Run it on a pool
    (``workers >= 2``) only: inline, the process it kills is the
    caller's.
    """
    if ctx.spec.seed == ctx.params["kill_seed"]:
        marker = ctx.params["marker"]
        if not marker or not os.path.exists(marker):
            if marker:
                open(marker, "w").close()
            os.kill(os.getpid(), signal.SIGKILL)
    return _draws(ctx)


@scenario("ctl-boom", description="always raises")
def ctl_boom(ctx):
    raise RuntimeError("ctl-boom always fails")
