"""Section 2.2 — why Polite WiFi is not preventable, quantified.

Three sub-results:

1. the SIFS-vs-decode-time deadline table across decoder classes, bands,
   and frame sizes (paper: decode takes 200–700 µs against a 10/16 µs
   budget — "orders of magnitude longer than SIFS");
2. a checking device (validates before ACK) simulated against an honest
   sender: every frame times out and is retransmitted to exhaustion, so
   the "fix" breaks legitimate WiFi;
3. the RTS/CTS fallback: the same checking device still answers RTS with
   CTS, because control frames cannot be encrypted.
"""

import numpy as np

from repro.analysis.tables import render_table
from repro.core.defenses import DefenseAnalysis
from repro.core.probe import PoliteWiFiProbe
from repro.crypto.timing_model import DecoderClass
from repro.devices.dongle import MonitorDongle
from repro.devices.station import Station
from repro.mac.addresses import MacAddress
from repro.mac.frames import NullDataFrame
from repro.mac.transmitter import TxOutcome
from repro.sim.engine import Engine
from repro.sim.medium import Medium
from repro.sim.world import Position

from benchmarks.conftest import once


def _run_defense_analysis():
    rows = DefenseAnalysis.deadline_table()

    # --- checking device vs an honest sender -------------------------
    engine = Engine()
    medium = Medium(engine)
    rng = np.random.default_rng(0)
    sender = Station(
        mac=MacAddress("02:01:00:00:00:01"),
        medium=medium, position=Position(0, 0), rng=rng,
    )
    checker = Station(
        mac=MacAddress("02:02:00:00:00:01"),
        medium=medium, position=Position(3, 0), rng=rng,
        ack_config=DefenseAnalysis.checking_device_config(),
    )
    outcomes = []
    for _ in range(10):
        frame = NullDataFrame(addr1=checker.mac, addr2=sender.mac)
        sender.send(frame, on_complete=outcomes.append)
    engine.run_until(20.0)

    # --- RTS fallback against the same checking device ---------------
    attacker = MonitorDongle(
        mac=MacAddress("02:dd:00:00:00:01"),
        medium=medium, position=Position(5, 0), rng=rng,
    )
    probe = PoliteWiFiProbe(attacker)
    null_probe = probe.probe(checker.mac, kind="null")
    rts_probe = probe.probe(checker.mac, kind="rts")
    return rows, outcomes, null_probe, rts_probe


def test_defense_feasibility(benchmark, report):
    rows, outcomes, null_probe, rts_probe = once(benchmark, _run_defense_analysis)

    # 1. Nothing — not even a 10x-faster hypothetical ASIC — meets SIFS.
    assert not DefenseAnalysis.any_feasible(rows)
    mainstream = [
        r for r in rows if r.decoder_class is DecoderClass.MAINSTREAM
    ]
    # Over budget by >20x at 2.4 GHz; the roomier 16 us SIFS at 5 GHz
    # still leaves every size >10x over.
    assert all(10.0 <= r.overshoot_factor for r in mainstream)

    # 2. The checking device breaks honest traffic: all sends exhausted.
    assert len(outcomes) == 10
    assert all(o.outcome is TxOutcome.NO_ACK for o in outcomes)
    retransmissions = sum(o.attempts - 1 for o in outcomes)
    assert retransmissions == 10 * outcomes[0].attempts - 10

    # 3. The RTS path stays open.
    assert not null_probe.responded  # validation suppressed the fake ACK
    assert rts_probe.responded  # the CTS came anyway

    lines = [DefenseAnalysis.render_deadline_table(rows), ""]
    lines.append(
        "Checking-device experiment (validate-before-ACK vs honest sender):"
    )
    lines.append(
        f"  frames offered: {len(outcomes)}; delivered in time: 0; "
        f"retransmissions: {retransmissions}; all declared lost."
    )
    lines.append("")
    lines.append("RTS/CTS fallback against the checking device:")
    lines.append(
        f"  null-frame probe answered: {null_probe.responded}; "
        f"RTS probe answered with CTS: {rts_probe.responded}"
    )
    lines.append(
        f"  required validation speedup to meet SIFS: "
        f"{DefenseAnalysis.required_speedup_for_deadline():.0f}x "
        "(and the control-frame path would remain open regardless)"
    )
    report("defense_feasibility", "\n".join(lines))
