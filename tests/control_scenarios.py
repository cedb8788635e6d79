"""Scenarios for the control-plane tests, in an importable module.

The driver's shard subprocesses know scenarios only by *name*; names
outside ``repro.scenario.library`` resolve via the
``REPRO_SCENARIO_MODULES`` import hook.  These scenarios therefore live
in a real module (not a test body) so both sides can import them: the
test process directly, the shard subprocesses through
``DriverConfig.scenario_modules=("tests.control_scenarios",)``.
"""

from __future__ import annotations

import time

from repro.scenario import FloatParam, IntParam, scenario


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

    ``sleep_s`` stretches one run's wall-clock (to kill a shard mid-run,
    or to prove a slow-but-alive shard is not shot); the outputs depend
    only on the seed and ``draws``, which is what makes "merged equals
    unsharded, byte for byte" checkable after any amount of fault
    injection.
    """
    if ctx.params["sleep_s"]:
        time.sleep(ctx.params["sleep_s"])
    draws = ctx.params["draws"]
    values = ctx.rng.integers(0, 1000, size=draws)
    return {
        "draws": draws,
        "value_sum": int(values.sum()),
        "value_first": int(values[0]),
    }


@scenario("ctl-boom", description="always raises")
def ctl_boom(ctx):
    raise RuntimeError("ctl-boom always fails")
