"""Golden digests: seeded scenario runs pinned against checked-in history.

Each pinned run is reduced to three sha256 digests — the frame trace
export, the scenario outputs as canonical JSON, and the deterministic
metrics counters (host wall times left out) — and compared with
``tests/golden/digests.json``.  A refactor of the simulator core must
reproduce history exactly, not merely agree with another in-tree copy
of the same logic.

Regenerate (only for an intended behaviour change, and say why in the
change log)::

    PYTHONPATH=src python -m tests.test_golden_digests
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path
from typing import Dict

import numpy as np
import pytest

from repro.channel.csi import MultipathChannel
from repro.channel.motion import (
    HoldMotion,
    PickupMotion,
    ScheduledMotion,
    StillMotion,
    TypingMotion,
)
from repro.core.keystroke import KeystrokeInferenceAttack
from repro.mac.addresses import ATTACKER_FAKE_MAC
from repro.scenario import PlacementSpec, ScenarioSpec, SimContext, run_scenario
from repro.sim.medium import Medium
from repro.sim.world import Position

GOLDEN = Path(__file__).parent / "golden" / "digests.json"

#: ``id -> (scenario, params[, spec overrides])``; every run is seeded by
#: its scenario spec.
RUNS: Dict[str, tuple] = {
    "probe": ("probe", {}),
    "deauth": ("deauth", {}),
    "battery": ("battery", {"rates_pps": [0, 50, 200], "duration_s": 1.0}),
    "wardrive": ("wardrive", {}),
    "wardrive-full": ("wardrive-full", {"max_devices": 120}),
    "wardrive-metro": (
        "wardrive-metro",
        {"tiles_x": 1, "tiles_y": 1, "metro_scale": 0.01, "blocks_x": 3, "blocks_y": 2},
    ),
    # The Table 2 bench's physics: shadowed path loss and SNR frame errors.
    "wardrive-full-shadowed": (
        "wardrive-full",
        {"max_devices": 120},
        {
            "medium_seed": 98,
            "fer": "snr",
            "path_loss": {
                "kind": "shadowed", "exponent": 2.8, "walls": 1,
                "sigma_db": 4.0, "seed": 99,
            },
        },
    ),
    # Harsher shadowing on the same city: probes and ACKs get lost, so the
    # rig retries and re-queues targets (still verifying all 120).  At
    # 120 devices the run above loses no frame that matters; this one's
    # trace moves with every shadowing draw and frame-error coin,
    # including those of the moving rig's memoized links.
    "wardrive-full-lossy": (
        "wardrive-full",
        {"max_devices": 120},
        {
            "medium_seed": 98,
            "fer": "snr",
            "path_loss": {
                "kind": "shadowed", "exponent": 3.0, "walls": 1,
                "sigma_db": 6.0, "seed": 99,
            },
        },
    ),
}


def _figure5_csi():
    """A short seeded Figure 5 timeline: the sensing path.

    Wired like ``benchmarks/bench_figure5_keystroke_csi.py``: an ESP32
    injects fake frames at a victim tablet and measures the CSI of its
    ACKs, with CSI estimation noise, through a registered multipath link
    whose scatterer is still, picks the tablet up, holds it and types,
    half a second to a second each.  Returns ``(ctx, outputs)``; the
    outputs hold every measured ACK's time and amplitude.
    """
    ctx = SimContext(ScenarioSpec(
        seed=7,
        trace=True,
        csi_noise={"snr_db": 35.0, "seed": 5007},
        placements=[
            PlacementSpec(kind="station", mac="f2:6e:0b:11:22:33", role="victim", z=1),
            PlacementSpec(
                kind="esp32_sniffer", mac="02:e5:93:20:00:01", role="esp", x=8, y=3, z=1,
                options={"expected_ack_ra": str(ATTACKER_FAKE_MAC)},
            ),
        ],
    ))
    devices = ctx.place_devices()
    victim, esp = devices["victim"], devices["esp"]
    rng = np.random.default_rng(7)
    timeline = ScheduledMotion([
        (0.0, 0.5, "still", StillMotion()),
        (0.5, 1.5, "pickup", PickupMotion(start=0.5, duration=1.0)),
        (1.5, 2.5, "hold", HoldMotion(rng)),
        (2.5, 3.5, "typing", TypingMotion(rng, start=2.5, duration=1.0)),
    ])
    ctx.csi_model.register_link(
        str(victim.mac), str(esp.mac),
        MultipathChannel(
            Position(0, 0, 1), Position(8, 3, 1), np.random.default_rng(107), motion=timeline,
        ),
    )
    result = KeystrokeInferenceAttack(esp, victim.mac).run(duration_s=3.5)
    return ctx, {
        "frames_injected": result.frames_injected,
        "acks_measured": result.acks_measured,
        "times": result.series.times.tolist(),
        "amplitudes": result.series.amplitudes.tolist(),
    }


#: Pinned runs built by hand instead of by a scenario: ``id -> builder``
#: returning ``(ctx, outputs)``.
BUILT = {"figure5-csi": _figure5_csi}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(data: Dict[str, object]) -> str:
    """Canonical JSON minus host-dependent keys (wall times, fingerprints)."""
    kept = {
        key: value
        for key, value in data.items()
        if "wall_time" not in key and "fingerprint" not in key
        and not key.startswith("span.")
    }
    return json.dumps(kept, sort_keys=True)


def _run(run_id: str, **options: object):
    """The pinned run, with its spec overrides and ``options`` applied."""
    name, params, *overrides = RUNS[run_id]
    spec_overrides = dict(overrides[0]) if overrides else {}
    spec_overrides.update(options)
    return run_scenario(name, params=dict(params), quiet=True, **spec_overrides)


def digests(run_id: str) -> Dict[str, str]:
    if run_id in BUILT:
        ctx, outputs = BUILT[run_id]()
    else:
        result = _run(run_id, trace=True)
        ctx, outputs = result.ctx, result.outputs
    counters = ctx.metrics.snapshot()["counters"]
    return {
        "trace": _sha(ctx.trace.to_jsonl()),
        "outputs": _sha(_canonical(outputs)),
        "counters": _sha(_canonical(counters)),
    }


@pytest.mark.parametrize("run_id", sorted([*RUNS, *BUILT]))
def test_seeded_run_matches_golden_digests(run_id):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digests(run_id) == golden[run_id]


def test_contended_starts_count_the_capture_model_runs(monkeypatch):
    # Arrival starts that find company on their receiver's air are the
    # only ones that pay for the capture model, and they stay rare.
    calls = []
    resolve = Medium._resolve_overlap

    def counted(self, *args):
        calls.append(None)
        return resolve(self, *args)

    monkeypatch.setattr(Medium, "_resolve_overlap", counted)
    result = _run("wardrive-full")
    counters = result.ctx.metrics.snapshot()["counters"]
    arrivals = counters["medium.frames.delivered"] + counters["medium.frames.dropped"]
    contended = result.ctx.medium.contended_starts
    assert contended == len(calls)
    assert 0 < contended < 0.02 * arrivals


def test_lossy_pin_retries_and_moves_the_trace():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["wardrive-full-lossy"]["trace"] != golden["wardrive-full"]["trace"]
    result = _run("wardrive-full-lossy", trace=True)
    probes = Counter(
        record.destination
        for record in result.ctx.trace
        if record.info.startswith("Null function")
    )
    assert len(probes) == result.outputs["probed"] == result.outputs["responded"]
    assert sum(probes.values()) > len(probes)  # at least one target re-probed


def test_figure5_pin_measures_acks_through_the_multipath_link():
    # The pin digests what the sensing path computes: one noisy CSI
    # amplitude per measured ACK, moving with the scatterer.
    _, outputs = _figure5_csi()
    assert outputs["frames_injected"] > 400
    assert outputs["acks_measured"] > 0.9 * outputs["frames_injected"]
    amplitudes = np.array(outputs["amplitudes"])
    times = np.array(outputs["times"])
    assert np.std(amplitudes[(times > 0.6) & (times < 1.4)]) > np.std(amplitudes[times < 0.5])


def test_every_pinned_run_has_a_golden_entry():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted([*RUNS, *BUILT])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {run_id: digests(run_id) for run_id in sorted([*RUNS, *BUILT])}
    text = json.dumps(table, indent=2, sort_keys=True) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {GOLDEN}")
