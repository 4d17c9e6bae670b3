"""The chained generator/discriminator pair and its adversarial training loop.

The generator is a small tanh MLP from latent packets to synthetic packets;
the discriminator is a conv1d front end followed by dense/dropout stages and
a two-class softmax. Latent noise is Gaussian with a per-epoch variance set
by a virtual SNR drawn uniformly from a configured range, real-class targets
are smoothed one-sidedly to ``1 - alpha``, and both nets update with Adam.

Both nets hold float32 parameters, so their layers and Adam run in float32;
the losses on their ``[B, 2]`` outputs are computed in float64.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .blocks import keep_heap_mapped
from .iqcore import COMPONENTS
from .kvfile import format_kv, parse_kv
from .net.adam import AdamState, adam_step
from .net.checkpoint import CheckpointError, load_stacks, save_stacks
from .net.layers import (
    Conv1DLayer,
    DenseLayer,
    DropoutLayer,
    FlattenLayer,
    net_backward,
    net_forward,
    net_params,
    set_net_params,
)
from .seeding import as_generator, substream

PROB_EPS = 1e-7
REAL, FAKE = 0, 1  # softmax class indices

GENERATOR_WIDTH = 128
GENERATOR_DECAY = 1e-3
GENERATOR_LR = 0.011
DISCRIMINATOR_WIDTH = 32
KERNEL_COUNT = 32
KERNEL_LEN = 128
DISCRIMINATOR_DECAY = 1e-4
DISCRIMINATOR_LR = 1e-4
DROPOUT_RATE = 0.5


class TrainingDiverged(RuntimeError):
    """A rail's refused step or non-finite loss in one training phase; carries the log so far."""

    def __init__(self, component: str, phase: str, detail: str, log: "TrainingLog"):
        super().__init__(f"{component}-component {phase} diverged: {detail}")
        self.log = log


class Net:
    """A layer stack over packets of length ``n_fft``."""

    def __init__(self, layers, n_fft: int):
        self.layers = list(layers)
        self.n_fft = int(n_fft)

    def predict(self, x) -> np.ndarray:
        """The stack's inference-mode output (dropout off)."""
        return net_forward(self.layers, x)[0]

    def params(self):
        """The arrays the layers hold, not copies: an Adam step updates them in place."""
        return net_params(self.layers)


def _float32(layers) -> list:
    """The stack with its parameters cast to float32 (drawn in float64)."""
    set_net_params(layers, [p.astype(np.float32) for p in net_params(layers)])
    return layers


def build_generator(n_fft, seed, width=GENERATOR_WIDTH, weight_decay=GENERATOR_DECAY) -> Net:
    """Latent packet -> synthetic packet float32 MLP with a tanh head.

    Outputs lie in [-1, 1]: float32 ``tanh`` rounds to exactly +-1.0 beyond
    about |9|, so the open interval (-1, 1) holds only before that rounding.
    """
    if n_fft < 2:
        raise ValueError(f"n_fft must be >= 2, got {n_fft}")
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed, "generator-init")
    layers = [
        DenseLayer.create(n_fft, width, "tanh", rng),
        DenseLayer.create(width, width, "tanh", rng, weight_decay_lambda=weight_decay),
        DenseLayer.create(width, n_fft, "tanh", rng),
    ]
    return Net(_float32(layers), n_fft)


def build_discriminator(
    n_fft,
    seed,
    n_kernels=KERNEL_COUNT,
    kernel_len=KERNEL_LEN,
    width=DISCRIMINATOR_WIDTH,
    dropout_rate=DROPOUT_RATE,
    weight_decay=DISCRIMINATOR_DECAY,
) -> Net:
    """Packet -> [P(real), P(fake)] float32 classifier with conv front end."""
    if n_fft < kernel_len:
        raise ValueError(f"n_fft={n_fft} shorter than conv kernel ({kernel_len})")
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed, "discriminator-init")
    conv_out = n_fft - kernel_len + 1
    layers = [
        Conv1DLayer.create(n_kernels, kernel_len, rng),
        DenseLayer.create(conv_out, width, "relu", rng),
        DropoutLayer(dropout_rate),
        FlattenLayer(),
        DenseLayer.create(n_kernels * width, width, "identity", rng, weight_decay_lambda=weight_decay),
        DropoutLayer(dropout_rate),
        DenseLayer.create(width, width, "identity", rng, weight_decay_lambda=weight_decay),
        DropoutLayer(dropout_rate),
        DenseLayer.create(width, width, "identity", rng),
        DropoutLayer(dropout_rate),
        DenseLayer.create(width, 2, "softmax", rng),
    ]
    return Net(_float32(layers), n_fft)


def check_generator(layers, n_fft: int) -> None:
    """Refuse a loaded stack that is not a dense MLP from ``n_fft`` to ``n_fft``."""
    if not layers or not all(isinstance(layer, DenseLayer) for layer in layers):
        raise CheckpointError("generator must be a non-empty stack of dense layers")
    if layers[0].fan_in != n_fft or layers[-1].fan_out != n_fft:
        raise CheckpointError(
            f"generator input/output widths must equal n_fft={n_fft}, "
            f"got {layers[0].fan_in}/{layers[-1].fan_out}"
        )


def check_discriminator(layers) -> None:
    """Refuse a loaded stack that is not conv1d first and a 2-way softmax last."""
    if not layers or not isinstance(layers[0], Conv1DLayer):
        raise CheckpointError("discriminator must start with the conv1d layer")
    last = layers[-1]
    if not isinstance(last, DenseLayer) or last.fan_out != 2 or last.activation != "softmax":
        raise CheckpointError("discriminator must end in a 2-way softmax")


@dataclass
class TrainConfig:
    """Training hyperparameters; published defaults unless noted.

    ``eta_*``, ``dropout_rate``, ``lambda_*`` mirror the published
    architecture tables; ``lr_decay`` (linear, per run, default off) and the
    optional accuracy-band early stop are artifact knobs.
    """

    n_epoch: int = 1000
    n_epoch_pretrain: int = 1
    s_batch: int = 300
    s_minibatch_pretrain: int = 32
    n_examples: int = 128
    label_smoothing_alpha: float = 0.2
    snr_range_db: tuple = (-30.0, -24.0)
    seed: int = 0
    eta_g: float = GENERATOR_LR
    eta_d: float = DISCRIMINATOR_LR
    dropout_rate: float = DROPOUT_RATE
    lambda_g: float = GENERATOR_DECAY
    lambda_d: float = DISCRIMINATOR_DECAY
    lr_decay: float = 0.0
    early_stop_band: tuple | None = None
    early_stop_patience: int = 50

    def __post_init__(self) -> None:
        self.snr_range_db = (float(self.snr_range_db[0]), float(self.snr_range_db[1]))
        for f in fields(self):  # each non-int field is a float or a pair of floats
            value = getattr(self, f.name)
            if f.type != "int" and value is not None and not np.all(np.isfinite(value)):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.n_epoch < 0 or self.n_epoch_pretrain < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.s_batch < 1 or self.s_minibatch_pretrain < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.n_examples < 1:
            raise ValueError("n_examples must be >= 1")
        if not 0.0 <= self.label_smoothing_alpha < 0.5:
            raise ValueError(f"label_smoothing_alpha must lie in [0, 0.5), got {self.label_smoothing_alpha}")
        if self.snr_range_db[0] > self.snr_range_db[1]:
            raise ValueError(f"snr_range_db must be ordered, got {self.snr_range_db}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.eta_g <= 0 or self.eta_d <= 0:
            raise ValueError("learning rates must be positive")
        if self.lambda_g < 0 or self.lambda_d < 0:
            raise ValueError("weight decays must be >= 0")
        if not 0.0 <= self.lr_decay < 1.0:
            raise ValueError("lr_decay must lie in [0, 1)")
        if self.early_stop_band is not None:
            self.early_stop_band = (float(self.early_stop_band[0]), float(self.early_stop_band[1]))
            if not 0.0 <= self.early_stop_band[0] < self.early_stop_band[1] <= 1.0:
                raise ValueError("early_stop_band must be an ordered sub-range of [0,1]")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")

    def validate_for(self, n_fft: int) -> None:
        """Check the batch-size invariant against a packet length."""
        smallest = min(KERNEL_LEN, DISCRIMINATOR_WIDTH, GENERATOR_WIDTH)
        if not smallest < self.s_batch < n_fft:
            raise ValueError(
                f"s_batch={self.s_batch} must satisfy {smallest} < s_batch < n_fft={n_fft}"
            )


def parse_range(text: str) -> tuple:
    """Read ``LO:HI`` as a pair of floats."""
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"expected LO:HI, got {text!r}")
    return (float(lo), float(hi))


def _range_to_text(pair) -> str:
    return "none" if pair is None else f"{pair[0]!r}:{pair[1]!r}"


def _optional_range(text: str):
    return None if text.lower() == "none" else parse_range(text)


# Text reader and writer for each TrainConfig field annotation.
_CODECS = {
    "int": (int, str),
    "float": (float, repr),
    "tuple": (parse_range, _range_to_text),
    "tuple | None": (_optional_range, _range_to_text),
}
CONFIG_PARSERS = {f.name: _CODECS[f.type][0] for f in fields(TrainConfig)}


def config_to_text(cfg: TrainConfig) -> str:
    """Serialize a config to key=value text (field names as keys)."""
    return format_kv({f.name: _CODECS[f.type][1](getattr(cfg, f.name)) for f in fields(cfg)})


def config_from_pairs(pairs: dict) -> TrainConfig:
    """Build a config from parsed key=value pairs; an absent key keeps its default."""
    unknown = sorted(set(pairs) - set(CONFIG_PARSERS))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    return TrainConfig(**{name: CONFIG_PARSERS[name](raw) for name, raw in pairs.items()})


@dataclass
class TrainingLog:
    """Per-epoch training metrics, appended once per completed epoch. The CSV holds
    ``epoch``, then each field's value as its ``repr`` (``wall_ms``, the last, an int)."""

    d_loss: list = field(default_factory=list)
    g_loss: list = field(default_factory=list)
    d_accuracy: list = field(default_factory=list)
    snr_db: list = field(default_factory=list)
    wall_ms: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.d_loss)

    def append(self, d_loss, g_loss, d_accuracy, snr_db, wall_ms) -> None:
        if not 0.0 <= d_accuracy <= 1.0:
            raise ValueError(f"accuracy must lie in [0,1], got {d_accuracy}")
        if not np.all(np.isfinite([d_loss, g_loss, snr_db])):
            raise ValueError(f"losses and SNR must be finite, got {d_loss}, {g_loss}, {snr_db}")
        if wall_ms < 0:
            raise ValueError(f"wall_ms must be >= 0, got {wall_ms}")
        self.d_loss.append(float(d_loss))
        self.g_loss.append(float(g_loss))
        self.d_accuracy.append(float(d_accuracy))
        self.snr_db.append(float(snr_db))
        self.wall_ms.append(int(wall_ms))

    def mean_accuracy(self, last_n: int | None = None) -> float:
        if len(self) == 0:
            raise ValueError("empty log")
        acc = self.d_accuracy if last_n is None else self.d_accuracy[-last_n:]
        return float(np.mean(acc))

    def final_quartile_accuracy(self) -> float:
        """The mean accuracy of the last quarter of the epochs, rounded up."""
        return self.mean_accuracy(last_n=-(-len(self) // 4))

    @classmethod
    def _header(cls) -> str:
        return ",".join(["epoch", *(f.name for f in fields(cls))])

    def to_csv(self, path) -> None:
        columns = [getattr(self, f.name) for f in fields(self)]
        rows = [",".join([str(epoch), *map(repr, row)]) for epoch, row in enumerate(zip(*columns))]
        Path(path).write_text("\n".join([self._header(), *rows]) + "\n", encoding="utf-8")

    @classmethod
    def from_csv(cls, path) -> "TrainingLog":
        try:
            lines = [line for line in Path(path).read_text(encoding="utf-8").splitlines() if line.strip()]
            if not lines or lines[0] != cls._header():
                raise ValueError("not a training log CSV")
            log = cls()
            for expected, line in enumerate(lines[1:]):
                cells = line.split(",")
                if len(cells) != len(fields(cls)) + 1:
                    raise ValueError(f"bad row: {line!r}")
                if int(cells[0]) != expected:
                    raise ValueError(f"non-contiguous epoch column at {line!r}")
                log.append(*map(float, cells[1:-1]), int(cells[-1]))
            return log
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


@dataclass
class GanModel:
    """A trained (or initialized) generator/discriminator pair plus context."""

    generator: Net
    discriminator: Net
    generator_opt: AdamState | None
    discriminator_opt: AdamState | None
    config: TrainConfig
    component: str = "I"
    frame: int = 0

    def __post_init__(self) -> None:
        if self.component not in COMPONENTS:
            raise ValueError(f"component {self.component!r} is not one of {COMPONENTS}")
        if self.frame < 0:
            raise ValueError(f"training frame must be >= 0, got {self.frame}")

    @property
    def n_fft(self) -> int:
        return self.generator.n_fft


def save_gan(path, model: GanModel) -> None:
    extras = {
        "component": model.component,
        "frame": str(model.frame),
        "n_fft": str(model.n_fft),
    }
    text = config_to_text(model.config) + format_kv(extras)
    save_stacks(
        path,
        [model.generator.layers, model.discriminator.layers],
        [model.generator_opt, model.discriminator_opt],
        text,
    )


def load_gan(path) -> GanModel:
    stacks, opts, text = load_stacks(path)
    if len(stacks) != 2:
        raise CheckpointError(f"{path}: expected generator+discriminator, found {len(stacks)} stacks")
    try:
        pairs = parse_kv(text)
        component = pairs.pop("component")
        frame = int(pairs.pop("frame"))
        n_fft = int(pairs.pop("n_fft"))
        cfg = config_from_pairs(pairs)
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad embedded config ({exc!s})") from exc
    check_generator(stacks[0], n_fft)
    check_discriminator(stacks[1])
    try:
        return GanModel(Net(stacks[0], n_fft), Net(stacks[1], n_fft), opts[0], opts[1], cfg, component, frame)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc


def latent_noise_variance(power: float, snr_db: float) -> float:
    """Gaussian latent variance for a virtual SNR against a signal power.

    ``sigma^2 = 10 ** ((10*log10(power) - snr_db) / 10)``: at 0 dB the noise
    power equals the signal power; each -10 dB multiplies it by 10.
    """
    with np.errstate(all="ignore"):  # a refused power or SNR may overflow on the way
        sigma2 = float(10.0 ** ((10.0 * np.log10(power) - snr_db) / 10.0))
    if not (power > 0.0 and np.isfinite(snr_db) and np.isfinite(sigma2) and sigma2 > 0.0):
        raise ValueError(f"power {power} and snr_db {snr_db} give no finite positive noise variance ({sigma2})")
    return sigma2


def sample_latent(n: int, n_fft: int, sigma2: float, seed) -> np.ndarray:
    """Draw an [n, n_fft] matrix of i.i.d. zero-mean Gaussian latent packets."""
    if sigma2 <= 0.0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    if n < 1 or n_fft < 1:
        raise ValueError("n and n_fft must be >= 1")
    rng = as_generator(seed)
    return rng.normal(0.0, np.sqrt(sigma2), size=(n, n_fft))


def _clamp(p) -> np.ndarray:
    return np.clip(np.asarray(p, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)


def discriminator_loss(d_real, d_fake, alpha: float = 0.0) -> float:
    """Half-weighted cross-entropy of real (target 1-alpha) and fake (target 0)."""
    if not 0.0 <= alpha < 0.5:
        raise ValueError(f"alpha must lie in [0, 0.5), got {alpha}")
    pr = _clamp(d_real)
    pf = _clamp(d_fake)
    real_term = -np.mean((1.0 - alpha) * np.log(pr) + alpha * np.log(1.0 - pr))
    fake_term = -np.mean(np.log(1.0 - pf))
    return float(0.5 * (real_term + fake_term))


def generator_loss(d_fake) -> float:
    """Non-saturating objective: -1/2 * mean log D(G(z))."""
    return float(-0.5 * np.mean(np.log(_clamp(d_fake))))


def saturating_generator_loss(d_real, d_fake) -> float:
    """The zero-sum (minimax) generator objective; equals -discriminator_loss at alpha=0."""
    pr = _clamp(d_real)
    pf = _clamp(d_fake)
    return float(0.5 * np.mean(np.log(pr)) + 0.5 * np.mean(np.log(1.0 - pf)))


def discriminator_accuracy(d_real, d_fake) -> float:
    """Fraction of correct hard decisions at threshold 0.5; ties are incorrect."""
    pr = np.asarray(d_real, dtype=np.float64).ravel()
    pf = np.asarray(d_fake, dtype=np.float64).ravel()
    if pr.size == 0 or pf.size == 0:
        raise ValueError("empty batch")
    correct = int(np.sum(pr > 0.5)) + int(np.sum(pf < 0.5))
    return correct / (pr.size + pf.size)


def _class_targets(n_real: int, n_fake: int, alpha: float) -> np.ndarray:
    targets = np.zeros((n_real + n_fake, 2))
    targets[:n_real, REAL] = 1.0 - alpha
    targets[:n_real, FAKE] = alpha
    targets[n_real:, FAKE] = 1.0
    return targets


def _supervised_minibatch(discriminator, opt, x, targets, dropout_rng) -> None:
    """One cross-entropy Adam step on the discriminator."""
    probs, caches = net_forward(discriminator.layers, x, train=True, rng=dropout_rng)
    p = _clamp(probs)
    grad = -(targets / p) / x.shape[0]
    _, grads = net_backward(discriminator.layers, caches, grad, input_grad=False)
    adam_step(discriminator.params(), grads, opt)


def _generator_minibatch(generator, discriminator, opt, z, dropout_rng) -> None:
    """One non-saturating Adam step on the generator through the frozen discriminator."""
    fake, g_caches = net_forward(generator.layers, z)
    probs, d_caches = net_forward(discriminator.layers, fake, train=True, rng=dropout_rng)
    p_real = _clamp(probs[:, REAL])
    grad_probs = np.zeros_like(probs)
    grad_probs[:, REAL] = -0.5 / (z.shape[0] * p_real)
    grad_fake, _ = net_backward(discriminator.layers, d_caches, grad_probs, param_grads=False)
    _, g_grads = net_backward(generator.layers, g_caches, grad_fake, input_grad=False)
    adam_step(generator.params(), g_grads, opt)


def _epoch_streams(seed: int, *labels: str) -> dict:
    """The named substreams that every epoch of one run draws from."""
    return {name: substream(seed, *labels, name) for name in ("snr", "latent", "pick", "shuffle", "dropout")}


def _draw_epoch(streams: dict, packets: np.ndarray, cfg: TrainConfig):
    """One epoch's ``(snr_db, latent, real)``: a virtual SNR drawn uniformly
    from ``cfg.snr_range_db``, ``n_examples`` latent packets at that SNR
    against unit power (frames are normalized), then as many packets picked
    without replacement, in that order."""
    snr_db = float(streams["snr"].uniform(*cfg.snr_range_db))
    sigma2 = latent_noise_variance(1.0, snr_db)
    latent = sample_latent(cfg.n_examples, packets.shape[1], sigma2, streams["latent"])
    real = packets[streams["pick"].permutation(packets.shape[0])[: cfg.n_examples]]
    return snr_db, latent, real


def _discriminator_epoch(discriminator, opt, real, fake, cfg: TrainConfig, batch: int, streams: dict) -> None:
    """Update the discriminator on the shuffled pool of real (targets
    ``1 - alpha``) and fake (target 0) packets in minibatches of ``batch``."""
    pool = np.concatenate([real, fake], axis=0)
    targets = _class_targets(len(real), len(fake), cfg.label_smoothing_alpha)
    order = streams["shuffle"].permutation(pool.shape[0])
    for start in range(0, order.size, batch):
        sel = order[start : start + batch]
        _supervised_minibatch(discriminator, opt, pool[sel], targets[sel], streams["dropout"])


def _rail_packets(packets, component: str, cfg: TrainConfig) -> np.ndarray:
    """One rail's ``[n_packets, n_fft]`` packets as float64, checked for both training loops."""
    if component not in COMPONENTS:
        raise ValueError(f"component must be 'I' or 'Q', got {component!r}")
    packets = np.asarray(packets, dtype=np.float64)
    if packets.ndim != 2 or packets.size == 0:
        raise ValueError("packets must be a non-empty 2-D packet array")
    if cfg.n_examples > packets.shape[0]:
        raise ValueError(f"n_examples={cfg.n_examples} exceeds available packets ({packets.shape[0]})")
    return packets


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # TrainingDiverged reports divergence
def pretrain_discriminator(discriminator, packets, cfg: TrainConfig, component: str):
    """Supervised warm-up of one rail's discriminator: its packets vs raw latent noise.

    Runs ``cfg.n_epoch_pretrain`` epochs of minibatch cross-entropy updates
    (minibatch ``cfg.s_minibatch_pretrain``) with real targets ``1 - alpha``
    and noise targets 0; the generator is untouched. Returns the (mutated)
    discriminator; a refused step raises ``TrainingDiverged`` with an empty log.
    """
    packets = _rail_packets(packets, component, cfg)
    keep_heap_mapped()
    streams = _epoch_streams(cfg.seed, "pretrain", component)
    opt = AdamState.for_params(discriminator.params(), cfg.eta_d)
    for epoch in range(cfg.n_epoch_pretrain):
        _, noise, real = _draw_epoch(streams, packets, cfg)
        try:
            _discriminator_epoch(discriminator, opt, real, noise, cfg, cfg.s_minibatch_pretrain, streams)
        except ValueError as exc:
            raise TrainingDiverged(component, "pretraining", f"epoch {epoch}: {exc}", TrainingLog()) from exc
    return discriminator


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # TrainingDiverged reports divergence
def train(generator, discriminator, packets, component: str, cfg: TrainConfig):
    """Adversarial training on one rail's ``[n_packets, n_fft]`` packets of a normalized frame.

    Per epoch: draw the SNR, latent and prototype packets (``_draw_epoch``),
    update the discriminator on the shuffled labeled pool in ceil-division
    minibatches of ``s_batch``, then update the generator through the frozen
    discriminator (dropout active) on the non-saturating objective. Metrics
    are evaluated after both updates in inference mode and appended to the
    log. Returns ``(generator_opt, discriminator_opt, log)``: the nets' Adam
    states and the log. Raises ``TrainingDiverged``, carrying the log so
    far, when a step is refused or a loss goes non-finite.
    """
    packets = _rail_packets(packets, component, cfg)
    n_fft = packets.shape[1]
    cfg.validate_for(n_fft)
    if generator.n_fft != n_fft or discriminator.n_fft != n_fft:
        raise ValueError("model widths do not match the packet length")
    keep_heap_mapped()
    streams = _epoch_streams(cfg.seed, "train", component)

    g_opt = AdamState.for_params(generator.params(), cfg.eta_g)
    d_opt = AdamState.for_params(discriminator.params(), cfg.eta_d)
    log = TrainingLog()

    for epoch in range(cfg.n_epoch):
        tic = time.perf_counter()
        if cfg.lr_decay > 0.0 and cfg.n_epoch > 1:
            scale = 1.0 - cfg.lr_decay * (epoch / (cfg.n_epoch - 1))
            d_opt.learning_rate = cfg.eta_d * scale
            g_opt.learning_rate = cfg.eta_g * scale

        snr_db, z, real = _draw_epoch(streams, packets, cfg)
        fake = net_forward(generator.layers, z)[0]
        try:
            _discriminator_epoch(discriminator, d_opt, real, fake, cfg, cfg.s_batch, streams)
            for start in range(0, cfg.n_examples, cfg.s_batch):
                zb = z[start : start + cfg.s_batch]
                _generator_minibatch(generator, discriminator, g_opt, zb, streams["dropout"])
        except ValueError as exc:
            raise TrainingDiverged(component, "training", f"epoch {epoch}: {exc}", log) from exc

        d_real_p = net_forward(discriminator.layers, real)[0][:, REAL]
        regen = net_forward(generator.layers, z)[0]
        d_fake_p = net_forward(discriminator.layers, regen)[0][:, REAL]
        d_loss = discriminator_loss(d_real_p, d_fake_p, cfg.label_smoothing_alpha)
        g_loss = generator_loss(d_fake_p)
        if not (np.isfinite(d_loss) and np.isfinite(g_loss)):
            raise TrainingDiverged(
                component, "training", f"non-finite loss at epoch {epoch}: d_loss={d_loss}, g_loss={g_loss}", log
            )
        accuracy = discriminator_accuracy(d_real_p, d_fake_p)
        wall_ms = int(round((time.perf_counter() - tic) * 1000.0))
        log.append(d_loss, g_loss, accuracy, snr_db, wall_ms)

        if cfg.early_stop_band is not None and len(log) >= cfg.early_stop_patience:
            window_mean = log.mean_accuracy(last_n=cfg.early_stop_patience)
            if cfg.early_stop_band[0] <= window_mean <= cfg.early_stop_band[1]:
                break

    return g_opt, d_opt, log
