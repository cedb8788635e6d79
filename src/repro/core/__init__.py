"""Polite WiFi: the paper's contribution.

The primitive is :class:`~repro.core.probe.PoliteWiFiProbe` — inject a
fake frame at a device that has never heard of you, and observe that it
acknowledges.  On top of it:

* :mod:`repro.core.injector` / :mod:`repro.core.monitor` — Scapy-style
  fake-frame crafting + streaming, and ACK correlation;
* :mod:`repro.core.wardrive` — the Section 3 three-stage survey pipeline
  (discover / inject / verify) over the synthetic city;
* :mod:`repro.core.keystroke` — the Section 4.1 keystroke/activity
  inference attack (150 fake frames/s, ACK CSI, no network membership);
* :mod:`repro.core.battery` — the Section 4.2 battery-drain attack and
  the Figure 6 power sweep;
* :mod:`repro.core.sensing_app` — the Section 4.3 single-device sensing
  opportunity (modify one hub, sense through everyone's ACKs);
* :mod:`repro.core.defenses` — the Section 2.2 "why this is not
  preventable" analysis, quantified.
"""

import importlib

#: Every public name and the module that defines it, resolved on first
#: access (PEP 562): a wardrive run does not load the keystroke, sensing
#: or localization attacks.
_EXPORTS = {
    "AckMonitor": "repro.core.monitor",
    "AckRangingSensor": "repro.core.localization",
    "LocalizationAttack": "repro.core.localization",
    "LocalizationResult": "repro.core.localization",
    "RangingMeasurement": "repro.core.localization",
    "trilaterate": "repro.core.localization",
    "BatteryDrainAttack": "repro.core.battery",
    "DeadlineRow": "repro.core.defenses",
    "DefenseAnalysis": "repro.core.defenses",
    "FakeFrameInjector": "repro.core.injector",
    "InjectionStream": "repro.core.injector",
    "KeystrokeAttackResult": "repro.core.keystroke",
    "KeystrokeInferenceAttack": "repro.core.keystroke",
    "PoliteWiFiProbe": "repro.core.probe",
    "PowerSweepPoint": "repro.core.battery",
    "ProbeResult": "repro.core.probe",
    "SingleDeviceSensingHub": "repro.core.sensing_app",
    "WardriveConfig": "repro.core.wardrive",
    "WardrivePipeline": "repro.core.wardrive",
}

__all__ = list(_EXPORTS)


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
