"""Synthetic prototype recordings with known ground truth.

Stands in for an over-the-air capture: bursts of a chosen modulation confined
to a declared band, with additive white Gaussian noise and an optional
deterministic carrier-frequency offset. Everything is a pure function of the
scenario, so end-to-end tests can assert against the structure they put in.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .gan import latent_noise_variance
from .iqcore import REQUIRED_META, IQRecording
from .seeding import substream

MODULATIONS = ("qpsk", "tone", "multitone")

# Burst gating period in samples; duty_cycle * BURST_PERIOD samples of each
# period are ON. Sized so one 64-packet desk-scale frame (16384 samples)
# falls entirely inside a single ON burst rather than straddling gate edges.
BURST_PERIOD = 32768

_MULTITONE_COUNT = 8


@dataclass(frozen=True)
class SyntheticScenario:
    """Ground-truth description of a synthetic capture.

    Frequencies are fractions of the sample rate in [0, 0.5]; ``snr_db`` may
    be ``inf`` to disable noise. The physical metadata fields only annotate
    the sidecar — the waveform itself is in normalized time.
    """

    n_samples: int
    occupied_band: tuple = (0.125, 0.375)
    burst_duty_cycle: float = 1.0
    symbol_rate_frac: float = 1.0 / 16.0
    modulation: str = "qpsk"
    snr_db: float = 30.0
    cfo_frac: float = 0.0
    seed: int = 0
    sample_rate_hz: float = 200e6
    center_freq_hz: float = 5.25e9
    rx_gain_db: float = 31.5

    def __post_init__(self) -> None:
        f_lo, f_hi = self.occupied_band
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if not 0.0 <= f_lo < f_hi <= 0.5:
            raise ValueError(f"occupied_band must satisfy 0 <= f_lo < f_hi <= 0.5, got {self.occupied_band}")
        if not 0.0 < self.burst_duty_cycle <= 1.0:
            raise ValueError(f"burst_duty_cycle must lie in (0, 1], got {self.burst_duty_cycle}")
        if self.modulation not in MODULATIONS:
            raise ValueError(f"modulation must be one of {MODULATIONS}, got {self.modulation!r}")
        if not 0.0 < self.symbol_rate_frac <= 0.5:
            raise ValueError(f"symbol_rate_frac must lie in (0, 0.5], got {self.symbol_rate_frac}")
        if not self.snr_db > -np.inf:
            raise ValueError(f"snr_db must be finite or inf (noiseless), got {self.snr_db}")

    def sidecar_extras(self) -> dict:
        """Ground-truth parameters recorded in the sidecar for later audit."""
        pairs = asdict(self)
        return {
            f"scenario_{key}": (f"{value[0]}:{value[1]}" if key == "occupied_band" else value)
            for key, value in pairs.items()
            if key not in REQUIRED_META
        }


def _baseband(sc: SyntheticScenario, rng: np.random.Generator) -> np.ndarray:
    n = sc.n_samples
    t = np.arange(n)
    f_lo, f_hi = sc.occupied_band
    f_center = 0.5 * (f_lo + f_hi)
    if sc.modulation == "tone":
        return np.exp(2j * np.pi * f_center * t)
    if sc.modulation == "multitone":
        freqs = f_lo + (f_hi - f_lo) * (np.arange(_MULTITONE_COUNT) + 0.5) / _MULTITONE_COUNT
        phases = rng.uniform(0.0, 2.0 * np.pi, _MULTITONE_COUNT)
        tones = np.exp(2j * np.pi * np.outer(freqs, t) + 1j * phases[:, None])
        return tones.sum(axis=0) / np.sqrt(_MULTITONE_COUNT)
    # qpsk: random Gray symbols on a rectangular pulse, mixed up to the band center
    # capped at n: any longer symbol draws the same one symbol, without round(inf) or a huge repeat
    sps = max(1, round(min(1.0 / sc.symbol_rate_frac, n)))
    n_symbols = -(-n // sps)
    symbols = (
        (2.0 * rng.integers(0, 2, n_symbols) - 1.0) + 1j * (2.0 * rng.integers(0, 2, n_symbols) - 1.0)
    ) / np.sqrt(2.0)
    return np.repeat(symbols, sps)[:n] * np.exp(2j * np.pi * f_center * t)


def _burst_gate(n: int, duty: float, burst_period: int = BURST_PERIOD) -> np.ndarray:
    if duty >= 1.0:
        return np.ones(n)
    on_len = max(1, round(duty * burst_period))
    period = np.zeros(burst_period)
    period[:on_len] = 1.0
    reps = -(-n // burst_period)
    return np.tile(period, reps)[:n]


def synth_prototype(sc: SyntheticScenario) -> IQRecording:
    """Render the scenario to an I/Q recording (deterministic per seed)."""
    rng = substream(sc.seed, "protogen")
    signal = _baseband(sc, rng) * _burst_gate(sc.n_samples, sc.burst_duty_cycle)
    if sc.cfo_frac != 0.0:
        signal = signal * np.exp(2j * np.pi * sc.cfo_frac * np.arange(sc.n_samples))
    if np.isfinite(sc.snr_db):
        p_signal = float(np.mean(np.abs(signal) ** 2))
        sigma2 = latent_noise_variance(p_signal, sc.snr_db)
        noise = np.sqrt(sigma2 / 2.0) * (
            rng.standard_normal(sc.n_samples) + 1j * rng.standard_normal(sc.n_samples)
        )
        signal = signal + noise
    return IQRecording(samples=signal, **{key: getattr(sc, key) for key in REQUIRED_META})
