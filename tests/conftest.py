"""Shared fixtures: a fresh simulation per test plus device factories."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from repro.devices.access_point import AccessPoint, ApBehavior
from repro.devices.dongle import MonitorDongle
from repro.devices.station import Station
from repro.mac.addresses import MacAddress
from repro.sim.engine import Engine
from repro.sim.medium import Medium
from repro.sim.trace import FrameTrace
from repro.sim.world import Position

#: ``--hypothesis-profile=deep``: 20x the default example count, for
#: fuzzing one test file at a time (CI runs the medium fuzzer this way).
settings.register_profile("deep", max_examples=2000)

_mac_counter = itertools.count(1)

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_fresh(code: str, timeout: float = 60.0) -> str:
    """Run ``code`` in a new interpreter with ``src`` first on its path.

    For checks about what gets imported, which this process (already
    holding every module earlier tests loaded) cannot answer.  Asserts a
    zero exit and returns stdout.
    """
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def fresh_mac(prefix: int = 0x02) -> MacAddress:
    """A unique locally-administered MAC per call (unique per test run)."""
    serial = next(_mac_counter)
    return MacAddress(bytes([prefix, 0x00]) + serial.to_bytes(4, "big"))


def attached(radio):
    """``radio``, attached to its medium (a bare ``Radio`` joins none)."""
    radio.medium.attach(radio)
    return radio


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def trace() -> FrameTrace:
    return FrameTrace()


@pytest.fixture
def medium(engine, trace) -> Medium:
    return Medium(engine, trace=trace)


@pytest.fixture
def make_station(medium, rng):
    def factory(x: float = 0.0, y: float = 0.0, **kwargs) -> Station:
        kwargs.setdefault("mac", fresh_mac())
        return Station(medium=medium, position=Position(x, y), rng=rng, **kwargs)

    return factory


@pytest.fixture
def make_ap(medium, rng):
    def factory(x: float = 0.0, y: float = 0.0, **kwargs) -> AccessPoint:
        kwargs.setdefault("mac", fresh_mac(0x06))
        kwargs.setdefault("ssid", "TestNet")
        kwargs.setdefault("passphrase", "testing password")
        return AccessPoint(medium=medium, position=Position(x, y), rng=rng, **kwargs)

    return factory


@pytest.fixture
def make_dongle(medium, rng):
    def factory(x: float = 5.0, y: float = 0.0, **kwargs) -> MonitorDongle:
        kwargs.setdefault("mac", fresh_mac(0x0A))
        return MonitorDongle(
            medium=medium, position=Position(x, y), rng=rng, **kwargs
        )

    return factory


def associate(engine: Engine, station: Station, ap: AccessPoint, timeout: float = 2.0):
    """Drive a station through the full join sequence; assert success."""
    station.connect(ap.mac, ap.ssid, ap._passphrase)
    engine.run_until(engine.now + timeout)
    from repro.devices.station import StationState

    assert station.state is StationState.ASSOCIATED, station.state
    return station
