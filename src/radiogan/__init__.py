"""GAN-based synthesis of pseudo-radio-signals from recorded I/Q prototypes."""

__version__ = "0.1.0"

from .iqcore import (
    FrameStats,
    IQFormatError,
    IQRecording,
    PrototypeTensor,
    denormalize,
    frame_tensor,
    load_iq,
    normalize_frames,
    save_iq,
)
from .dsp import (
    RaisedCosineSpec,
    circular_convolve,
    dft,
    idft,
    overlap_save_reconstruct,
    raised_cosine_taps,
    raised_cosine_value,
)
from .gan import (
    GanModel,
    Net,
    TrainConfig,
    TrainingDiverged,
    TrainingLog,
    build_discriminator,
    build_generator,
    discriminator_accuracy,
    discriminator_loss,
    generator_loss,
    latent_noise_variance,
    pretrain_discriminator,
    sample_latent,
    saturating_generator_loss,
    train,
)
from .protogen import SyntheticScenario, synth_prototype
from .synthesis import assemble_iq, generate_packets, synthesize
from .validation import (
    ValidationReport,
    empirical_pdf,
    ks_distance,
    spectral_matrix,
    validate,
)
