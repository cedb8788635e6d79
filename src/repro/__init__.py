"""Polite WiFi — a full reproduction of *WiFi Says "Hi!" Back to
Strangers!* (Abedi & Abari, HotNets 2020) on a pure-Python 802.11
PHY/MAC simulator.

Quick taste (see ``examples/quickstart.py`` for the narrated version)::

    import numpy as np
    from repro import (
        Engine, Medium, Position, Station, MonitorDongle,
        PoliteWiFiProbe, MacAddress, ATTACKER_FAKE_MAC,
    )

    rng = np.random.default_rng(0)
    engine = Engine()
    medium = Medium(engine)
    victim = Station(mac=MacAddress("f2:6e:0b:11:22:33"), medium=medium,
                     position=Position(0, 0), rng=rng)
    attacker = MonitorDongle(mac=ATTACKER_FAKE_MAC, medium=medium,
                             position=Position(5, 0), rng=rng)
    result = PoliteWiFiProbe(attacker).probe(victim.mac)
    assert result.responded   # WiFi says hi back to a stranger.

Package map:

==================  ====================================================
``repro.core``      the contribution: probe, wardrive, keystroke attack,
                    battery drain, single-device sensing, defenses
``repro.sim``       discrete-event engine, medium, world, trace
``repro.phy``       802.11 PHY: timing, FCS, rates, airtime, radio
``repro.mac``       frames, wire format, **ACK engine**, state machines
``repro.crypto``    AES/CCMP/WPA2 + decode-latency model
``repro.channel``   propagation, fading, CSI synthesis, human motion
``repro.devices``   stations, APs, ESP8266/ESP32, dongle, power, vendors
``repro.survey``    synthetic city + passive scanner + Table 2 results
``repro.sensing``   CSI processing, segmentation, classifiers
``repro.baselines`` WindTalker, two-device sensing, Intel 5300 CSI tool
``repro.analysis``  tables, figure series, stats
``repro.telemetry`` metrics registry, span tracing, campaign runner
==================  ====================================================
"""

import importlib

#: Every public name and the package it comes from.  Names resolve on
#: first access (PEP 562), so ``import repro.scenario`` or ``from repro
#: import Engine`` loads only the modules that run needs.
_EXPORTS = {
    "ATTACKER_FAKE_MAC": "repro.mac",
    "AccessPoint": "repro.devices",
    "AckMonitor": "repro.core",
    "BatteryDrainAttack": "repro.core",
    "CampaignConfig": "repro.telemetry",
    "DefenseAnalysis": "repro.core",
    "Engine": "repro.sim",
    "Esp32CsiSniffer": "repro.devices",
    "Esp8266Device": "repro.devices",
    "FakeFrameInjector": "repro.core",
    "FrameTrace": "repro.sim",
    "KeystrokeInferenceAttack": "repro.core",
    "MacAddress": "repro.mac",
    "Medium": "repro.sim",
    "MetricsRegistry": "repro.telemetry",
    "MonitorDongle": "repro.devices",
    "PoliteWiFiProbe": "repro.core",
    "Position": "repro.sim",
    "ProbeResult": "repro.core",
    "SingleDeviceSensingHub": "repro.core",
    "SpanTracer": "repro.telemetry",
    "Station": "repro.devices",
    "WardriveConfig": "repro.core",
    "WardrivePipeline": "repro.core",
    "run_campaign": "repro.telemetry",
}

__version__ = "1.0.0"

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
