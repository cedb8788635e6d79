"""Start-up pays only for what the run uses.

Every e2e unit and campaign run pays its imports before its first event.
Two rules keep that small (``docs/performance.md``, "Start-up"):
optional dependencies are imported where they are used, and the
``repro``, ``repro.core`` and ``repro.telemetry`` package inits
re-export lazily (PEP 562).
Each check runs in a fresh interpreter, since this one has long since
imported whatever earlier tests needed.
"""

from __future__ import annotations

import pytest

from tests.conftest import run_fresh


def test_scenario_import_loads_no_scipy():
    run_fresh("""
import sys
import repro.scenario
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
""")


def test_battery_run_imports_nothing_after_first_event():
    # Everything a run needs is loaded by the time its engine first runs:
    # laziness must skip work, not move it into the timed run.  What it
    # does not need (another attack, the sensing stack) is never loaded.
    run_fresh("""
import sys
from repro.sim.engine import Engine
from repro.scenario import run_scenario

seen = []
run_until = Engine.run_until

def first_entry(self, *args, **kwargs):
    if not seen:
        seen.append(set(sys.modules))
    return run_until(self, *args, **kwargs)

Engine.run_until = first_entry
run_scenario("battery", seed=0, params={"rates_pps": [0, 50], "duration_s": 0.5},
             quiet=True)
assert seen, "the run never entered Engine.run_until"
late = sorted(set(sys.modules) - seen[0])
assert not late, f"imported during the run: {late}"
unused = [m for m in ("repro.core.keystroke", "repro.sensing", "multiprocessing",
                      "repro.telemetry.campaign") if m in sys.modules]
assert not unused, f"a battery run loaded {unused}"
""")


@pytest.mark.parametrize("package", ["repro", "repro.core", "repro.telemetry"])
def test_lazy_exports_resolve_and_list(package):
    run_fresh(f"""
import importlib
package = importlib.import_module({package!r})
listed = dir(package)
for name in package.__all__:
    assert getattr(package, name) is not None, name
    assert name in listed, name
assert sorted(set(listed)) == listed
try:
    package.NoSuchName
except AttributeError as exc:
    assert {package!r} in str(exc) and "NoSuchName" in str(exc), exc
else:
    raise AssertionError("unknown attribute resolved")
""")


def test_from_import_binds_the_defining_objects():
    run_fresh("""
from repro import Engine, WardrivePipeline, __version__
from repro.core import trilaterate
from repro.core.localization import trilaterate as defined
from repro.core.wardrive import WardrivePipeline as pipeline
from repro.sim.engine import Engine as engine
assert Engine is engine and WardrivePipeline is pipeline and trilaterate is defined
assert __version__ == "1.0.0"
""")
