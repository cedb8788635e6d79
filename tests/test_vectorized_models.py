"""Array-accepting twins of the link-budget and channel models.

Each batch form must agree with its scalar original elementwise — the
batch APIs exist so bulk evaluation (benchmarks, budget sweeps, the SoA
range gate) never has to loop in Python, but the scalar forms remain the
bit-exact reference the medium's delivery path uses.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from repro.channel.noise import CsiMeasurementNoise
from repro.channel.propagation import ShadowedPathLoss
from repro.phy.signal import (
    LogDistancePathLoss,
    SnrFerModel,
    free_space_path_loss_db,
)
from repro.sim.medium import free_space_path_loss_db as free_space_positions
from repro.sim.world import Position
from tests.conftest import run_fresh


class TestFreeSpaceArrayForm:
    def test_matches_position_based_scalar(self):
        freq = 2.437e9
        positions = [Position(0.3, 0.0), Position(10.0, 0.0), Position(0, 250.0)]
        tx = Position(0.0, 0.0)
        scalar = [free_space_positions(tx, rx, freq) for rx in positions]
        distances = np.array([tx.distance_to(rx) for rx in positions])
        batch = free_space_path_loss_db(distances, freq)
        assert np.allclose(batch, scalar, rtol=1e-12, atol=0.0)

    def test_scalar_input_accepted(self):
        loss = free_space_path_loss_db(10.0, 2.437e9)
        assert float(loss) == pytest.approx(60.2, abs=0.5)

    def test_sub_metre_clamp(self):
        # Distances below 1 m collapse to the 1 m loss, like the scalar.
        losses = free_space_path_loss_db(np.array([0.01, 0.5, 1.0]), 2.437e9)
        assert losses[0] == losses[1] == losses[2]


class TestLogDistanceBatch:
    def test_matches_scalar_calls(self):
        model = LogDistancePathLoss(exponent=3.0, walls=2)
        tx = Position(0, 0)
        receivers = [Position(0.2, 0), Position(5, 5), Position(120, 30)]
        scalar = [model(tx, rx) for rx in receivers]
        distances = np.array([tx.distance_to(rx) for rx in receivers])
        assert np.allclose(model.batch(distances), scalar, rtol=1e-12, atol=0.0)


class TestSnrFerBatch:
    @pytest.mark.parametrize("rate", [1.0, 6.0, 11.0, 24.0, 54.0])
    def test_matches_scalar_elementwise(self, rate):
        model = SnrFerModel()
        snrs = np.linspace(-5.0, 35.0, 41)
        scalar = np.array([model(s, rate, 300) for s in snrs.tolist()])
        batch = model.batch(snrs, rate, 300)
        assert np.allclose(batch, scalar, rtol=1e-9, atol=1e-12)

    def test_monotone_in_snr(self):
        fers = SnrFerModel().batch(np.linspace(0.0, 30.0, 31), 6.0, 1000)
        assert np.all(np.diff(fers) <= 1e-12)
        assert fers[0] > fers[-1]

    def test_bounds(self):
        fers = SnrFerModel().batch(np.linspace(-20.0, 60.0, 17), 54.0, 1500)
        assert np.all(fers >= 0.0) and np.all(fers <= 1.0)

    @pytest.fixture
    def scipy_absent(self, monkeypatch):
        # ``None`` in ``sys.modules`` makes ``import scipy.special`` raise
        # ImportError; clearing the loader's cache on both sides makes it
        # retry the import under the patch and again after it.
        from repro.phy.signal import _vector_erfc

        monkeypatch.setitem(sys.modules, "scipy.special", None)
        _vector_erfc.cache_clear()
        yield
        _vector_erfc.cache_clear()

    @pytest.mark.parametrize("rate,length", [(1.0, 64), (6.0, 300), (54.0, 1500)])
    def test_scipy_absent_fallback_bit_identical(self, scipy_absent, rate, length):
        # Without SciPy, batch() must degrade to the scalar loop — not a
        # divergent numpy reimplementation.  Bit-identity (not allclose)
        # on a seeded sweep pins that the fallback *is* the scalar path.
        model = SnrFerModel()
        snrs = np.random.default_rng(1234).uniform(-10.0, 45.0, size=64)
        fallback = model.batch(snrs, rate, length)
        scalar = np.array([model(s, rate, length) for s in snrs.tolist()])
        assert np.array_equal(fallback, scalar)

    def test_scipy_absent_fallback_accepts_scalar_input(self, scipy_absent):
        model = SnrFerModel()
        out = model.batch(12.0, 6.0, 300)
        assert out.shape == (1,)
        assert float(out[0]) == model(12.0, 6.0, 300)

    def test_scipy_loaded_on_first_batch_call(self):
        # A fresh interpreter: this one may have imported SciPy already.
        pytest.importorskip("scipy.special")
        run_fresh("""
import sys
import numpy as np
from repro.phy.signal import SnrFerModel
assert "scipy.special" not in sys.modules, "scipy.special loaded at import"
model = SnrFerModel()
snrs = np.linspace(-5.0, 35.0, 41)
batch = model.batch(snrs, 54.0, 300)
assert "scipy.special" in sys.modules, "batch() did not take the SciPy path"
scalar = np.array([model(s, 54.0, 300) for s in snrs.tolist()])
assert np.allclose(batch, scalar, rtol=1e-9, atol=1e-12)
""")


class TestShadowedBatch:
    def test_matches_scalar_and_shares_the_frozen_draws(self):
        tx = Position(0, 0)
        receivers = [Position(10, 0), Position(0, 40), Position(25, 25)]
        a = ShadowedPathLoss(rng=np.random.default_rng(11))
        b = ShadowedPathLoss(rng=np.random.default_rng(11))
        scalar = [a(tx, rx) for rx in receivers]
        batch = b.batch(tx, receivers)
        # Same seed, same index order => same frozen shadowing draws.
        assert np.allclose(batch, scalar, rtol=1e-12, atol=0.0)
        # And re-evaluating either way reuses the frozen offsets exactly.
        assert np.allclose(b.batch(tx, receivers), batch, rtol=0.0, atol=0.0)
        assert [b(tx, rx) for rx in receivers] == list(batch)


class TestCsiNoiseBatch:
    def test_rows_bit_identical_to_sequential_apply(self):
        rows = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 64)).reshape(1, -1)
        rows = np.vstack([rows, 2.0 * rows, 0.5 * rows[:, ::-1]])
        a = CsiMeasurementNoise(snr_db=25.0, rng=np.random.default_rng(3))
        b = CsiMeasurementNoise(snr_db=25.0, rng=np.random.default_rng(3))
        sequential = np.stack([a.apply(row) for row in rows])
        batch = b.apply_batch(rows)
        assert np.array_equal(batch, sequential)

    def test_no_quantization_path(self):
        rows = np.ones((2, 16), dtype=complex)
        a = CsiMeasurementNoise(
            snr_db=30.0, quantization_bits=None, rng=np.random.default_rng(5)
        )
        b = CsiMeasurementNoise(
            snr_db=30.0, quantization_bits=None, rng=np.random.default_rng(5)
        )
        sequential = np.stack([a.apply(row) for row in rows])
        assert np.array_equal(b.apply_batch(rows), sequential)
