"""CSI measurement noise.

A receiver estimates CSI from the preamble of each frame; the estimate
carries additive noise set by the link SNR and, on cheap hardware like
the paper's ESP32, coarse quantization (8-bit I/Q).  Both effects matter
to the sensing pipeline: they set the floor below which keystroke-scale
CSI wobble disappears, which the sensing-range ablation sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class CsiMeasurementNoise:
    """Additive complex Gaussian noise plus optional I/Q quantization.

    ``snr_db`` is the per-subcarrier estimation SNR.  ``quantization_bits``
    of ``None`` disables quantization; 8 mimics the ESP32's CSI export.
    """

    snr_db: float = 25.0
    quantization_bits: Optional[int] = 8
    rng: Optional[np.random.Generator] = None

    def __post_init__(self) -> None:
        if self.rng is None:
            self.rng = np.random.default_rng(0)

    def apply(self, csi: np.ndarray) -> np.ndarray:
        """Return a corrupted copy of a clean CSI vector."""
        signal_power = float(np.mean(np.abs(csi) ** 2))
        noise_power = signal_power / (10.0 ** (self.snr_db / 10.0))
        sigma = np.sqrt(noise_power / 2.0)
        noisy = csi + sigma * (
            self.rng.standard_normal(len(csi))
            + 1j * self.rng.standard_normal(len(csi))
        )
        if self.quantization_bits is None:
            return noisy
        # Scale to the ADC full range, round, scale back.
        levels = 2 ** (self.quantization_bits - 1)
        peak = float(np.max(np.abs([noisy.real, noisy.imag]))) or 1.0
        step = peak / levels
        quantized = (
            np.round(noisy.real / step) * step
            + 1j * np.round(noisy.imag / step) * step
        )
        return quantized
