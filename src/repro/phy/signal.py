"""Link-budget models: path loss and SNR→frame-error conversion.

The wardriving survey (Section 3) exercises links from a few metres (the
victim tablet one room away) out to street-to-building distances, so the
medium needs a propagation model with an indoor/urban exponent and
wall-penetration loss, plus a frame-error model so that marginal links
lose frames and the probe logic has to retry — exactly why the paper's
scanner uses a verify thread instead of assuming delivery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.phy.rates import rate_info
from repro.sim.world import Position


@dataclass
class LogDistancePathLoss:
    """Log-distance path loss with optional wall penetration.

    ``PL(d) = PL(d0) + 10·n·log10(d/d0) + walls·wall_loss_db``

    Defaults model a 2.4 GHz urban-residential environment: ~40 dB at the
    1 m reference and an exponent of 3.0 (between free space and heavy
    indoor clutter).
    """

    exponent: float = 3.0
    reference_loss_db: float = 40.0
    reference_distance_m: float = 1.0
    wall_loss_db: float = 6.0
    walls: int = 0

    def __call__(self, tx: Position, rx: Position) -> float:
        distance = max(tx.distance_to(rx), self.reference_distance_m)
        loss = self.reference_loss_db + 10.0 * self.exponent * math.log10(
            distance / self.reference_distance_m
        )
        return loss + self.walls * self.wall_loss_db

    def max_range_m(self, tx_power_dbm: float, sensitivity_dbm: float) -> float:
        """Distance at which RSSI falls to the receiver sensitivity."""
        budget = tx_power_dbm - sensitivity_dbm - self.reference_loss_db
        budget -= self.walls * self.wall_loss_db
        if budget <= 0.0:
            return self.reference_distance_m
        return self.reference_distance_m * 10.0 ** (budget / (10.0 * self.exponent))


def _q_function(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def bit_error_rate(snr_db: float, modulation: str) -> float:
    """Approximate uncoded BER for the modulations in our rate tables.

    Standard AWGN approximations: coherent BPSK/QPSK and square M-QAM with
    Gray mapping.  DSSS modulations reuse the BPSK/QPSK curves; CCK is
    approximated as QPSK with 3 dB spreading gain.
    """
    snr = 10.0 ** (snr_db / 10.0)
    if modulation in ("BPSK", "DBPSK"):
        return _q_function(math.sqrt(2.0 * snr))
    if modulation in ("QPSK", "DQPSK"):
        return _q_function(math.sqrt(snr))
    if modulation == "CCK":
        return _q_function(math.sqrt(2.0 * snr))
    if modulation == "16-QAM":
        return 0.75 * _q_function(math.sqrt(snr / 5.0))
    if modulation == "64-QAM":
        return (7.0 / 12.0) * _q_function(math.sqrt(snr / 21.0))
    raise ValueError(f"unknown modulation {modulation!r}")


@dataclass
class SnrFerModel:
    """Convert (SNR, rate, length) into a frame-error probability.

    ``FER = 1 − (1 − BER_coded)^(8·L)`` with a crude coding gain applied to
    the SNR for convolutionally-coded OFDM rates.  The model is monotone in
    SNR and length, which is what the tests and the survey realism rely on;
    absolute values are textbook approximations.
    """

    coding_gain_db: float = 4.0

    def __call__(self, snr_db: float, rate_mbps: float, length_bytes: int) -> float:
        info = rate_info(rate_mbps)
        effective_snr = snr_db
        if info.coding_rate != "-":
            effective_snr += self.coding_gain_db
        ber = bit_error_rate(effective_snr, info.modulation)
        if ber <= 0.0:
            return 0.0
        bits = max(8 * length_bytes, 1)
        fer = 1.0 - (1.0 - min(ber, 0.5)) ** bits
        return min(max(fer, 0.0), 1.0)
