"""Link-budget models: path loss and SNR→frame-error conversion.

The wardriving survey (Section 3) exercises links from a few metres (the
victim tablet one room away) out to street-to-building distances, so the
medium needs a propagation model with an indoor/urban exponent and
wall-penetration loss, plus a frame-error model so that marginal links
lose frames and the probe logic has to retry — exactly why the paper's
scanner uses a verify thread instead of assuming delivery.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.phy.rates import rate_info
from repro.sim.world import Position


@functools.cache
def _vector_erfc():
    """SciPy's array ``erfc``, or ``None`` without SciPy.

    Imported on the first :meth:`SnrFerModel.batch` call, not with this
    module: SciPy is optional, and no scenario needs it.
    """
    try:
        from scipy.special import erfc
    except ImportError:
        return None
    return erfc


def free_space_path_loss_db(distance_m, frequency_hz: float):
    """Friis free-space path loss from distance(s), clamped below 1 m.

    The array-accepting twin of
    :func:`repro.sim.medium.free_space_path_loss_db` (which takes
    :class:`Position` pairs): pass a scalar or an ndarray of distances
    and get the loss back in the same shape.  The medium's delivery hot
    path keeps its scalar ``math.log10`` form so seeded traces stay
    byte-identical across revisions; this form is for bulk evaluation
    (budget sweeps, benchmarks, the SoA gate's sanity tests) and agrees
    with the scalar form to within one ULP.
    """
    wavelength = 299_792_458.0 / frequency_hz
    distance = np.maximum(distance_m, 1.0)
    return 20.0 * np.log10(4.0 * math.pi * distance / wavelength)


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

    def batch(self, distances_m) -> np.ndarray:
        """Vectorized loss for an array of distances (same formula)."""
        distance = np.maximum(np.asarray(distances_m, dtype=float),
                              self.reference_distance_m)
        loss = self.reference_loss_db + 10.0 * self.exponent * np.log10(
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

    def batch(
        self, snr_db, rate_mbps: float, length_bytes: int
    ) -> np.ndarray:
        """Vectorized FER for an array of SNRs at one (rate, length).

        Mirrors :meth:`__call__` elementwise.  SciPy is optional: with
        it, the Q-function runs vectorized (agreement within a few ULP
        of the scalar ``math.erfc`` form); without it, elements fall
        back to the scalar path, bit-identical to :meth:`__call__`.
        ``scipy.special`` is imported on the first call, not at
        start-up (the start-up budget test, ``tests/test_startup.py``,
        fails if ``import repro.scenario`` loads it).  The medium's
        delivery path memoizes the scalar form per distinct SNR, which
        keeps seeded traces byte-identical — this form serves bulk
        evaluation and the model-level tests.
        """
        snr_arr = np.atleast_1d(np.asarray(snr_db, dtype=float))
        erfc = _vector_erfc()
        if erfc is None:
            return np.array(
                [self(s, rate_mbps, length_bytes) for s in snr_arr.tolist()]
            )
        info = rate_info(rate_mbps)
        effective = snr_arr.copy()
        if info.coding_rate != "-":
            effective += self.coding_gain_db
        snr = 10.0 ** (effective / 10.0)
        modulation = info.modulation
        if modulation in ("BPSK", "DBPSK", "CCK"):
            ber = 0.5 * erfc(np.sqrt(2.0 * snr) / math.sqrt(2.0))
        elif modulation in ("QPSK", "DQPSK"):
            ber = 0.5 * erfc(np.sqrt(snr) / math.sqrt(2.0))
        elif modulation == "16-QAM":
            ber = 0.75 * 0.5 * erfc(np.sqrt(snr / 5.0) / math.sqrt(2.0))
        elif modulation == "64-QAM":
            ber = (7.0 / 12.0) * 0.5 * erfc(
                np.sqrt(snr / 21.0) / math.sqrt(2.0)
            )
        else:  # pragma: no cover - rate tables only carry the above
            raise ValueError(f"unknown modulation {modulation!r}")
        bits = max(8 * length_bytes, 1)
        fer = 1.0 - (1.0 - np.minimum(ber, 0.5)) ** bits
        fer = np.clip(fer, 0.0, 1.0)
        fer[ber <= 0.0] = 0.0
        return fer
