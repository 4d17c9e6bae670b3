"""I/Q recordings on disk and the complex packet frames the GAN trains on.

Payload format is header-less raw interleaved little-endian float32, I then Q
per complex sample (the common SDR capture layout). Capture metadata travels
in a UTF-8 ``key=value`` sidecar at ``<payload path> + ".meta"`` with at least
``sample_rate_hz``, ``center_freq_hz`` and ``rx_gain_db``; unknown keys are
preserved for audit but ignored here.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blocks import joined_blocks
from .kvfile import read_kv, write_kv

PAYLOAD_DTYPE = np.dtype("<f4")
META_SUFFIX = ".meta"
REQUIRED_META = ("sample_rate_hz", "center_freq_hz", "rx_gain_db")

COMPONENTS = ("I", "Q")  # the signal rails, one GAN each


class IQFormatError(ValueError):
    """Raised for malformed I/Q payloads or sidecar metadata."""


def capture_meta(pairs: dict) -> dict[str, float]:
    """The ``REQUIRED_META`` values of ``pairs`` as floats.

    Raises ``ValueError`` for a missing, unparsable or non-finite value, a
    sample rate that is not positive, or a negative center frequency.
    """
    missing = [key for key in REQUIRED_META if key not in pairs]
    if missing:
        raise ValueError(f"missing metadata keys {missing}")
    values = {key: float(pairs[key]) for key in REQUIRED_META}
    for name, value in values.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if values["sample_rate_hz"] <= 0.0:
        raise ValueError(f"sample_rate_hz must be positive, got {values['sample_rate_hz']}")
    if values["center_freq_hz"] < 0.0:
        raise ValueError(f"center_freq_hz must be non-negative, got {values['center_freq_hz']}")
    return values


@dataclass
class IQRecording:
    """A contiguous complex baseband capture plus its physical metadata."""

    samples: np.ndarray
    sample_rate_hz: float
    center_freq_hz: float = 0.0
    rx_gain_db: float = 0.0

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        for name, value in capture_meta({name: getattr(self, name) for name in REQUIRED_META}).items():
            setattr(self, name, value)

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz

    def mean_power(self) -> float:
        return float(np.mean(np.abs(self.samples) ** 2))


def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + META_SUFFIX)


@dataclass(frozen=True)
class IQReader:
    """A payload whose size and sidecar ``iq_reader`` has checked; ``blocks`` reads its samples."""

    path: Path
    meta: dict  # every key=value pair of the sidecar, as text
    capture: dict  # the REQUIRED_META values, as floats
    n_samples: int

    def blocks(self, packet_len: int, block_packets: int):
        """Yield the payload's whole packets of ``packet_len`` samples in order,
        as complex128 [rows, packet_len] blocks cut by ``joined_blocks`` into
        ``block_packets`` packets each; samples past the last whole packet are
        not read. A block holding a non-finite value raises ``IQFormatError``
        before it is yielded.
        """
        with open(self.path, "rb") as payload:
            for rows in joined_blocks(self.n_samples // packet_len, block_packets):
                count = 2 * (rows.stop - rows.start) * packet_len
                parts = np.fromfile(payload, dtype=PAYLOAD_DTYPE, count=count)
                if parts.size != count:
                    raise IQFormatError(f"{self.path}: payload shrank while it was read")
                if not np.isfinite(parts).all():
                    raise IQFormatError(f"{self.path}: payload contains non-finite values")
                # Interleaved I, Q pairs widened in place of a complex sum,
                # which would drop signed zeros.
                yield parts.astype(np.float64).view(np.complex128).reshape(-1, packet_len)


def iq_reader(path: str | Path) -> IQReader:
    """Check a raw interleaved float32 I/Q payload's size and its ``path + ".meta"``
    sidecar, reading no sample; ``IQFormatError`` for an empty payload, a
    partial sample, or a missing, unreadable or malformed sidecar."""
    path = Path(path)
    n_bytes = path.stat().st_size
    if n_bytes == 0:
        raise IQFormatError(f"{path}: empty payload")
    if n_bytes % (2 * PAYLOAD_DTYPE.itemsize) != 0:
        raise IQFormatError(f"{path}: truncated sample (payload is {n_bytes} bytes)")
    meta_path = sidecar_path(path)
    if not meta_path.is_file():
        raise IQFormatError(f"missing metadata sidecar {meta_path}")
    try:
        meta = read_kv(meta_path)
    except ValueError as exc:  # not UTF-8, or a line that is not key=value
        raise IQFormatError(f"{meta_path}: unreadable metadata ({exc})") from exc
    try:
        capture = capture_meta(meta)
    except ValueError as exc:
        raise IQFormatError(f"{meta_path}: malformed metadata ({exc})") from exc
    return IQReader(path, meta, capture, n_bytes // (2 * PAYLOAD_DTYPE.itemsize))


def load_iq(path: str | Path) -> IQRecording:
    """Load a raw interleaved float32 I/Q payload and its sidecar: ``iq_reader``'s one block."""
    reader = iq_reader(path)
    (samples,) = reader.blocks(reader.n_samples, 1)
    return IQRecording(samples=samples.reshape(-1), **reader.capture)


@contextmanager
def iq_writer(path: str | Path, capture: dict, extra_meta: dict | None = None):
    """Write a payload block by block, and its sidecar, each in one move.

    Yields ``write(samples)``, which appends the 1-D complex ``samples`` as
    interleaved little-endian float32, and raises ``ValueError`` for a sample
    that is not finite or lies beyond float32 range, which ``load_iq`` would
    refuse. The sidecar holds the ``REQUIRED_META`` values of ``capture``,
    then the other keys of ``extra_meta``. Both go to temporary files beside
    ``path``, which ``os.replace`` moves onto ``path`` and its sidecar when
    the block ends without an error; otherwise they are removed, and what
    stood at ``path`` stays as it was.
    """
    path = Path(path)
    meta = {key: repr(capture[key]) for key in REQUIRED_META}
    for key, value in (extra_meta or {}).items():
        meta.setdefault(str(key), str(value))
    finals = (path, sidecar_path(path))
    temps = [final.with_name(f".{final.name}.{os.getpid()}.tmp") for final in finals]
    try:
        write_kv(temps[1], meta)
        with open(temps[0], "wb") as payload:

            def write(samples) -> None:
                parts = np.ascontiguousarray(samples, dtype=np.complex128).view(np.float64)  # I, Q, I, Q, ...
                with np.errstate(over="ignore", invalid="ignore"):
                    interleaved = parts.astype(PAYLOAD_DTYPE)
                if not np.isfinite(interleaved).all():
                    raise ValueError("samples must be finite and within float32 range")
                payload.write(interleaved)

            yield write
        for tmp, final in zip(temps, finals):
            os.replace(tmp, final)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)


def save_iq(rec: IQRecording, path: str | Path, extra_meta: dict | None = None) -> None:
    """Write the recording's payload and sidecar through ``iq_writer``, in one block."""
    with iq_writer(path, {key: getattr(rec, key) for key in REQUIRED_META}, extra_meta) as write:
        write(rec.samples)


@dataclass
class FrameStats:
    """Per-frame mean packet power recorded at normalization time."""

    per_frame_power: np.ndarray

    def __post_init__(self) -> None:
        self.per_frame_power = np.asarray(self.per_frame_power, dtype=np.float64)
        if self.per_frame_power.ndim != 1 or self.per_frame_power.size == 0:
            raise ValueError("per_frame_power must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.per_frame_power) & (self.per_frame_power > 0.0)):
            raise ValueError(f"frame powers must be finite and positive, got {self.per_frame_power}")

    @property
    def n_frames(self) -> int:
        return int(self.per_frame_power.size)


def frame_tensor(rec: IQRecording, n_fft: int, n_frames: int) -> np.ndarray:
    """The recording's samples as complex packets [n_frames, n_packets, n_fft],
    a view of ``rec.samples``.

    The packet count per frame is ``n_samples // (n_frames * n_fft)``; trailing
    samples that do not fill a whole packet are dropped.
    """
    if n_fft < 2:
        raise ValueError(f"n_fft must be >= 2, got {n_fft}")
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    n_packets = rec.n_samples // (n_frames * n_fft)
    if n_packets < 1:
        raise ValueError(
            f"recording too short: {rec.n_samples} samples cannot fill one "
            f"packet per frame at n_fft={n_fft}, n_frames={n_frames}"
        )
    return rec.samples[: n_frames * n_packets * n_fft].reshape(n_frames, n_packets, n_fft)


def normalize_frames(frames: np.ndarray) -> tuple[np.ndarray, FrameStats]:
    """Scale each frame of the complex packets ``frames`` [n_frames, n_packets,
    n_fft] to unit mean packet power; return the scaled copy and stats to undo it.

    Every sample of frame ``f`` is divided by ``sqrt(P_f)`` where ``P_f`` is
    the frame's mean over packets and samples of ``I^2 + Q^2``, so amplitudes
    land inside the generator's tanh output range.
    """
    power = np.mean(frames.real**2 + frames.imag**2, axis=(1, 2))
    if not np.all(power > 0.0):
        dead = np.flatnonzero(power <= 0.0).tolist()
        raise ValueError(f"cannot normalize all-zero frame(s) {dead}")
    scale = np.sqrt(power)[:, None, None]
    scaled = np.empty(frames.shape, dtype=np.complex128)
    # Each part by a float divide: ``frames / scale`` would divide complex by
    # complex, which rounds differently.
    np.divide(frames.real, scale, out=scaled.real)
    np.divide(frames.imag, scale, out=scaled.imag)
    return scaled, FrameStats(per_frame_power=power)


def denormalize(packets: np.ndarray, frame_power: float) -> np.ndarray:
    """Rescale normalized packets back to the source frame's power."""
    if frame_power <= 0.0:
        raise ValueError(f"frame_power must be positive, got {frame_power}")
    return np.asarray(packets) * np.sqrt(frame_power)
