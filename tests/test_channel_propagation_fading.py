"""Shadowed path loss and small-scale fading."""

import numpy as np
import pytest

from repro.channel.fading import RayleighFading, RicianFading
from repro.channel.propagation import ShadowedPathLoss
from repro.phy.signal import LogDistancePathLoss
from repro.sim.world import Position


class TestShadowedPathLoss:
    def test_shadowing_is_frozen_per_link(self):
        model = ShadowedPathLoss(rng=np.random.default_rng(0))
        tx, rx = Position(0, 0), Position(25, 10)
        assert model(tx, rx) == model(tx, rx)

    def test_different_links_get_different_shadowing(self):
        model = ShadowedPathLoss(rng=np.random.default_rng(0))
        tx = Position(0, 0)
        values = {model(tx, Position(30 + i * 5, 0)) for i in range(10)}
        assert len(values) > 5  # not all equal

    def test_mean_shadowing_is_zero(self):
        rng = np.random.default_rng(0)
        base = LogDistancePathLoss()
        model = ShadowedPathLoss(base=base, shadowing_sigma_db=6.0, rng=rng)
        tx = Position(0, 0)
        offsets = []
        for i in range(400):
            rx = Position(50, float(i))
            offsets.append(model(tx, rx) - base(tx, rx))
        assert np.mean(offsets) == pytest.approx(0.0, abs=1.0)
        assert np.std(offsets) == pytest.approx(6.0, abs=1.0)

    def test_zero_sigma_equals_base(self):
        base = LogDistancePathLoss()
        model = ShadowedPathLoss(base=base, shadowing_sigma_db=0.0,
                                 rng=np.random.default_rng(0))
        tx, rx = Position(0, 0), Position(40, 0)
        assert model(tx, rx) == pytest.approx(base(tx, rx))

    def test_oldest_links_are_forgotten_first_past_the_cap(self):
        # The model remembers the 100,000 most recent links.  Past that,
        # the links drawn first are the ones forgotten, so they (and only
        # they) draw afresh: the next values of the one RNG stream.
        cap, extra = 100_000, 5
        stream = np.random.default_rng(7)
        draws = [float(stream.normal(0.0, 4.0)) for _ in range(cap + 2 * extra)]
        model = ShadowedPathLoss(shadowing_sigma_db=4.0, rng=np.random.default_rng(7))
        tx = Position(0, 0)
        links = [Position(float(i), 0) for i in range(cap + extra)]
        offsets = [model.shadowing_for(tx, rx) for rx in links]
        assert offsets == draws[: cap + extra]
        recent = links[extra:]
        assert [model.shadowing_for(tx, rx) for rx in recent] == offsets[extra:]
        redrawn = [model.shadowing_for(tx, rx) for rx in links[:extra]]
        assert redrawn == draws[cap + extra:]


class TestFading:
    def test_rayleigh_unit_mean_power(self):
        fading = RayleighFading(np.random.default_rng(0))
        gains = [fading.gain_linear() for _ in range(5000)]
        assert np.mean(gains) == pytest.approx(1.0, abs=0.05)

    def test_rician_unit_mean_power(self):
        fading = RicianFading(np.random.default_rng(0), k_factor_db=6.0)
        gains = [fading.gain_linear() for _ in range(5000)]
        assert np.mean(gains) == pytest.approx(1.0, abs=0.05)

    def test_rician_less_variable_than_rayleigh(self):
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(0)
        rayleigh = [RayleighFading(rng_a).gain_linear() for _ in range(3000)]
        rician = [RicianFading(rng_b, k_factor_db=10.0).gain_linear() for _ in range(3000)]
        assert np.std(rician) < np.std(rayleigh)

    def test_gain_db_finite(self):
        fading = RayleighFading(np.random.default_rng(1))
        for _ in range(100):
            assert np.isfinite(fading.gain_db())
