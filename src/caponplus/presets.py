"""Named experiment presets reproducing the reference figures.

Each preset is a plain config dictionary (the same shape as a JSON config
file); explicit config-file keys and command-line flags override preset
entries.
"""

from __future__ import annotations


def _scenario_b(snapshots: int, name: str) -> dict:
    return {
        "regime": "b",
        "waveform": "psk8",
        "snapshots": snapshots,
        "trials": 10000,
        "sweep": {"variable": "snr_db", "values": [5.0, 2.5, 0.0, -2.5, -5.0, -7.5, -10.0]},
        "output_path": f"{name}.csv",
    }


def _scenario_t0(regime: str, name: str) -> dict:
    return {
        "regime": regime,
        "waveform": "psk8",
        "snapshots": 60,
        "snr_db": -5.0,
        "trials": 10000,
        "sweep": {
            "variable": "t0",
            "values": [30.0, 35.0, 40.0, 45.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0],
        },
        "output_path": f"{name}.csv",
    }


PRESETS: dict[str, dict] = {
    # Known-statistics study: Gaussian sources, true weights.
    "fig1": {
        "regime": "oracle",
        "waveform": "gaussian",
        "trials": 15000,
        "sweep": {"variable": "snr_db", "values": [0.0, -2.0, -4.0, -6.0, -8.5]},
        "output_path": "fig1.csv",
    },
    # Closed-form power NMSE and bias of the alpha-shrunk Capon estimator.
    "fig2": {
        "regime": "alpha_sweep",
        "waveform": "gaussian",
        "snr_db": -6.0,
        "sweep": {
            "variable": "alpha",
            "values": [round(0.02 * k, 10) for k in range(1, 66)],
        },
        "output_path": "fig2.csv",
    },
    # Scenario A: INCM known, SOI power estimated; 8-PSK sources.
    "fig3": {
        "regime": "a",
        "waveform": "psk8",
        "trials": 10000,
        "sweep": {"variable": "snr_db", "values": [0.0, -2.0, -4.0, -6.0, -8.0, -10.0]},
        "output_path": "fig3.csv",
    },
    # Scenario B at three sample lengths.
    "fig4a": _scenario_b(200, "fig4a"),
    "fig4b": _scenario_b(500, "fig4b"),
    "fig4c": _scenario_b(100, "fig4c"),
    # Scenario C: secondary-data INCM, known SOI power, T0 sweep at -5 dB SNR.
    "fig5": _scenario_t0("c", "fig5"),
    # Scenario D: as C with the SOI power also estimated.
    "fig6": _scenario_t0("d", "fig6"),
}
