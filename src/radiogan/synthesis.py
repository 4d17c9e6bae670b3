"""Generation mode: sample the trained pair, assemble I/Q, smooth.

The trained generators emit normalized packets; these are rescaled by a
chosen frame's recorded power, combined into complex rows and stitched with
the raised-cosine overlap-save reconstruction into one stream, which with the
prototype's capture metadata is a drop-in replacement for a prototype file.
The stream is built, filtered and handed on ``GEN_BLOCK_PACKETS`` packets at a
time, so its length does not bound the memory it needs. The blocks go through
a two-stage pipeline: while one block is assembled, filtered and written, the
generator passes of the next one run on another CPU.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .blocks import joined_blocks, run_blocks
from .dsp import OverlapSaveCarry, RaisedCosineSpec, overlap_save_reconstruct, raised_cosine_taps
from .gan import Net, latent_noise_variance, sample_latent
from .iqcore import COMPONENTS, denormalize
from .seeding import as_generator, substream

DEFAULT_RC_LENGTH = 129
DEFAULT_ROLLOFF = 0.25
GEN_PACKETS_PER_PROTOTYPE_PACKET = 20  # published n_gen default is 20 x N_p
# Packets generated, filtered and written at a time, chosen by measurement:
# the default published-scale generate peaks at about 69 MB resident with it,
# 101 MB at 256 and 152 MB at 512, in about the same time. It is a multiple
# of the dense layers' 128-row blocks at n_fft 2048, so the generator's
# n_fft-wide products are cut as in one pass over the whole stream.
GEN_BLOCK_PACKETS = 128


def generate_packets(g: Net, n_gen: int, snr_db: float, seed) -> np.ndarray:
    """Run ``n_gen`` dropout-free generator passes over fresh latent draws.

    Returns the normalized packets, [n_gen, n_fft] in [-1, 1] (the tanh
    head), as float64 for the DSP whatever the generator's dtype. The latent
    variance follows the virtual-SNR rule against unit power, the same
    convention the generator was trained under.
    """
    if g is None or not getattr(g, "layers", None):
        raise ValueError("generator is untrained/uninitialized")
    if n_gen < 1:
        raise ValueError(f"n_gen must be >= 1, got {n_gen}")
    sigma2 = latent_noise_variance(1.0, snr_db)
    z = sample_latent(n_gen, g.n_fft, sigma2, as_generator(seed))
    return g.predict(z).astype(np.float64)


def assemble_iq(i_mat: np.ndarray, q_mat: np.ndarray, frame_power: float) -> np.ndarray:
    """Denormalize both components by the frame power and pair them as I + jQ."""
    if i_mat.shape != q_mat.shape:
        raise ValueError(f"component shape mismatch: I {i_mat.shape} vs Q {q_mat.shape}")
    return denormalize(i_mat, frame_power) + 1j * denormalize(q_mat, frame_power)


def _taps(rc_length: int, rolloff: float) -> RaisedCosineSpec:
    if rc_length < 1 or rc_length % 2 == 0:
        raise ValueError(f"rc_length must be odd and >= 1, got {rc_length}")
    if not 0.0 < rolloff <= 1.0:  # NaN fails it too
        raise ValueError(f"rolloff must be in (0, 1], got {rolloff}")
    if rc_length == 1:
        # No pulse shaping: a unit single-tap kernel passes packets through exactly.
        return RaisedCosineSpec(length=1, rolloff=rolloff, taps=np.ones(1))
    return raised_cosine_taps(rc_length, rolloff)


def resolve_frame(frame: int | str, seed: int, n_frames: int) -> int:
    """The frame index ``frame`` names: an index in range, or for ``"random"``
    one drawn uniformly from the seed's ``synthesis/frame`` substream."""
    if frame == "random":
        return int(substream(seed, "synthesis", "frame").integers(0, n_frames))
    frame_idx = int(frame)
    if not 0 <= frame_idx < n_frames:
        raise ValueError(f"frame {frame_idx} out of range [0, {n_frames})")
    return frame_idx


def synthesize(i_model: Net, q_model: Net, n_gen: int, snr_db: float, seed: int, frame_power: float, write,
               rc_length: int = DEFAULT_RC_LENGTH, rolloff: float = DEFAULT_ROLLOFF) -> None:
    """Hand the ``n_gen * n_fft`` complex samples of a pseudo-radio-signal stream to ``write``.

    ``i_model`` and ``q_model`` are the rails' generators; ``frame_power``,
    the power of a prototype frame, denormalizes their packets. Each block of
    ``GEN_BLOCK_PACKETS`` packets draws its latent rows from each rail's
    substream in turn, and ``write`` gets the filtered samples it completes,
    a 1-D complex array, in stream order. Fewer packets than a block left at
    the end go with the last block (``joined_blocks``), so the generator pass
    of a few packets gives the bits of a stream generated at once.

    Each step hands ``run_blocks`` two tasks: the next block's latent draws
    and generator passes, and this block's ``assemble_iq``, overlap-save and
    ``write``. On two or more CPUs they run at the same time, each task's own
    row blocks serially in its thread; on one CPU they run in turn. Each rail
    still draws from its substream in block order and the carry still takes
    the blocks in stream order, so the bytes are the same on any CPU count.
    An exception in either task reaches the caller once both have ended.
    """
    if i_model.n_fft != q_model.n_fft:
        raise ValueError(
            f"component models disagree on packet length: {i_model.n_fft} vs {q_model.n_fft}"
        )
    taps = _taps(rc_length, rolloff)
    latents = [substream(seed, "synthesis", "latent", rail) for rail in COMPONENTS]
    carry = OverlapSaveCarry(n_gen * i_model.n_fft)

    def passes(rows):
        return [generate_packets(model, rows.stop - rows.start, snr_db, latent)
                for model, latent in zip((i_model, q_model), latents)]

    def emit(packets):
        write(overlap_save_reconstruct(assemble_iq(*packets, frame_power), taps, carry))

    blocks = joined_blocks(n_gen, GEN_BLOCK_PACKETS)
    packets = passes(blocks[0])
    for rows in blocks[1:]:
        packets, _ = run_blocks(lambda task, _: task(), [partial(passes, rows), partial(emit, packets)])
    emit(packets)
