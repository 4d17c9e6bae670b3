"""Span tracer for the benchmark's traced run.

The tracer wraps radiogan's layer entry points from outside the package: each
name is patched where it is looked up (``radiogan.cli.train``,
``radiogan.gan.adam_step``, ``radiogan.dsp.dft``, layer methods on their
classes, ...), so nothing under ``src/`` changes. Every wrapped call records
one span (name, start, end, parent span, run id). Spans stay in memory and are
written once, at the end, by the caller. A layer's self time is its span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

MB = 1e6

# Stage spans whose tracemalloc peak is reported as stage.<x>.peak_alloc_mb.
STAGES = {"cli.train": "train", "cli.generate": "generate", "cli.validate": "validate"}


class TraceError(RuntimeError):
    """A wrapped name is missing, or an expected layer recorded no spans."""


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _fingerprint(arr) -> str:
    """Cheap content key: shape, dtype and a strided sample of the values."""
    arr = np.ascontiguousarray(arr)
    flat = arr.reshape(-1)
    step = max(1, flat.size // 4096)
    digest = hashlib.blake2b(flat[::step].tobytes(), digest_size=16).hexdigest()
    return f"{arr.shape}:{arr.dtype}:{digest}"


def _conv_forward_flop(span, args, result):
    layer, x = args[0], np.asarray(args[1])
    batch, n_in = x.shape
    n_out = n_in - layer.kernel_len + 1
    span.attrs["flop"] = 2 * batch * layer.n_kernels * n_out * layer.kernel_len


def _conv_backward_flop(span, args, result):
    layer, cache, grad_out = args[0], args[1], np.asarray(args[2])
    batch, n_kernels, n_out = grad_out.shape
    n_in = cache[1].shape[1]
    # kernel gradient over the output positions, input gradient over the inputs
    span.attrs["flop"] = 2 * batch * n_kernels * (n_out + n_in) * layer.kernel_len


def _dense_forward_flop(span, args, result):
    layer, x = args[0], np.asarray(args[1])
    span.attrs["flop"] = 2 * (x.size // layer.fan_in) * layer.fan_in * layer.fan_out


def _dense_backward_flop(span, args, result):
    layer, x = args[0], args[1][1]
    # weight gradient plus input gradient
    span.attrs["flop"] = 4 * (x.size // layer.fan_in) * layer.fan_in * layer.fan_out


def _dft_points(span, args, result):
    span.attrs["points"] = int(np.asarray(args[0]).size)


def _output_samples(span, args, result):
    span.attrs["samples"] = int(result.size)


def _file_bytes(index):
    def annotate(span, args, result):
        span.attrs["bytes"] = os.path.getsize(args[index])
    return annotate


def _input_key(span, args, result):
    span.attrs["input"] = _fingerprint(args[0])


# (module, attribute path, span name, annotator). A span name that is a tuple
# is resolved per call by Tracer._name.
TARGETS = (
    ("radiogan.cli", "cmd_protogen", "cli.protogen", None),
    ("radiogan.cli", "cmd_train", "cli.train", None),
    ("radiogan.cli", "cmd_generate", "cli.generate", None),
    ("radiogan.cli", "cmd_validate", "cli.validate", None),
    ("radiogan.cli", "synth_prototype", "protogen.synth_prototype", None),
    ("radiogan.cli", "save_iq", "iqcore.save_iq", _file_bytes(1)),
    ("radiogan.cli", "load_iq", "iqcore.load_iq", _file_bytes(0)),
    ("radiogan.cli", "frame_tensor", "iqcore.frame_tensor", None),
    ("radiogan.cli", "normalize_frames", "iqcore.normalize_frames", None),
    ("radiogan.cli", "pretrain_discriminator", "gan.pretrain", None),
    ("radiogan.cli", "train", "gan.train", None),
    ("radiogan.cli", "synthesize", "synthesis.synthesize", None),
    ("radiogan.cli", "validate", "validation.validate", None),
    ("radiogan.gan", "_supervised_minibatch", "gan.d_step", None),
    ("radiogan.gan", "_generator_minibatch", "gan.g_step", None),
    ("radiogan.gan", "net_forward", ("eval",), None),
    ("radiogan.gan", "sample_latent", "gan.sample_latent", None),
    ("radiogan.gan", "adam_step", "net.adam.step", None),
    ("radiogan.gan", "save_stacks", "net.checkpoint.save", _file_bytes(0)),
    ("radiogan.gan", "load_stacks", "net.checkpoint.load", None),
    ("radiogan.net.layers", "Conv1DLayer.forward", "net.conv1d.forward", _conv_forward_flop),
    ("radiogan.net.layers", "Conv1DLayer.backward", ("conv_backward",), _conv_backward_flop),
    ("radiogan.net.layers", "DenseLayer.forward", "net.dense.forward", _dense_forward_flop),
    ("radiogan.net.layers", "DenseLayer.backward", "net.dense.backward", _dense_backward_flop),
    ("radiogan.net.layers", "DropoutLayer.forward", "net.dropout.forward", None),
    ("radiogan.net.layers", "DropoutLayer.backward", "net.dropout.backward", None),
    ("radiogan.synthesis", "sample_latent", "gan.sample_latent", None),
    ("radiogan.synthesis", "generate_packets", "synthesis.generate_packets", None),
    ("radiogan.synthesis", "assemble_iq", "synthesis.assemble_iq", None),
    ("radiogan.synthesis", "overlap_save_reconstruct", "dsp.overlap_save", _output_samples),
    ("radiogan.dsp", "dft", "dsp.dft", _dft_points),
    ("radiogan.dsp", "idft", "dsp.idft", None),
    ("radiogan.dsp", "circular_convolve", "dsp.circular_convolve", None),
    ("radiogan.validation", "dft", "dsp.dft", _dft_points),
    ("radiogan.validation", "generate_packets", "synthesis.generate_packets", None),
    ("radiogan.validation", "assemble_iq", "synthesis.assemble_iq", None),
    ("radiogan.validation", "spectral_matrix", "validation.spectral_matrix", _input_key),
    ("radiogan.validation", "ks_distance", "validation.ks_distance", None),
)

# Span names every traced run of a workload must record at least once.
_COMMON = ("protogen.synth_prototype", "iqcore.save_iq", "iqcore.load_iq",
           "iqcore.frame_tensor", "iqcore.normalize_frames", "cli.train", "net.checkpoint.save")
EXPECTED = {
    "train": _COMMON + (
        "gan.pretrain", "gan.train", "gan.d_step", "gan.g_step", "gan.eval", "gan.sample_latent",
        "net.conv1d.forward", "net.conv1d.backward.d_step", "net.conv1d.backward.g_step",
        "net.dense.forward", "net.dense.backward", "net.dropout.forward", "net.dropout.backward",
        "net.adam.step",
    ),
    "generate_validate": _COMMON + (
        "cli.generate", "cli.validate", "net.checkpoint.load", "synthesis.synthesize",
        "synthesis.generate_packets", "synthesis.assemble_iq", "gan.sample_latent",
        "net.dense.forward", "dsp.overlap_save", "dsp.circular_convolve", "dsp.dft",
        "validation.validate", "validation.spectral_matrix", "validation.ks_distance",
    ),
}

# Every per-layer metric, in report order; trace.overhead_frac is added by the
# caller, which times traced against untraced operations.
PER_LAYER_METRICS = (
    "net.conv1d.forward.self_s", "net.conv1d.backward.d_step.self_s",
    "net.conv1d.backward.g_step.self_s", "net.conv1d.calls", "net.conv1d.gflop",
    "net.dense.forward.self_s", "net.dense.backward.self_s", "net.dense.gflop", "net.dropout.self_s",
    "net.adam.step.self_s", "net.adam.step.calls",
    "gan.pretrain.self_s", "gan.d_step.self_s", "gan.g_step.self_s", "gan.eval.self_s",
    "gan.sample_latent.self_s",
    "net.checkpoint.save.self_s", "net.checkpoint.save.mb", "net.checkpoint.load.self_s",
    "dsp.dft.self_s", "dsp.dft.calls", "dsp.dft.mpoints", "dsp.overlap_save.self_s",
    "dsp.overlap_save.points_per_sample",
    "synthesis.synthesize.self_s", "synthesis.generate_packets.self_s", "synthesis.assemble_iq.self_s",
    "iqcore.save_iq.self_s", "iqcore.save_iq.mb", "iqcore.load_iq.self_s", "iqcore.load_iq.mb",
    "iqcore.frame_tensor.self_s", "iqcore.normalize_frames.self_s",
    "protogen.synth_prototype.self_s",
    "validation.validate.self_s", "validation.ks_distance.self_s", "validation.spectral_matrix.self_s",
    "validation.spectral_matrix.calls", "validation.spectral_matrix.distinct_frac",
    "cli.train.self_s", "cli.generate.self_s", "cli.validate.self_s",
    "stage.train.peak_alloc_mb", "stage.generate.peak_alloc_mb", "stage.validate.peak_alloc_mb",
)

# Span names whose self time is reported directly, summed per traced operation.
SELF_TIME_METRICS = (
    "net.conv1d.forward", "net.conv1d.backward.d_step", "net.conv1d.backward.g_step",
    "net.dense.forward", "net.dense.backward", "net.adam.step",
    "gan.pretrain", "gan.d_step", "gan.g_step", "gan.eval", "gan.sample_latent",
    "net.checkpoint.save", "net.checkpoint.load", "dsp.dft", "dsp.overlap_save",
    "synthesis.synthesize", "synthesis.generate_packets", "synthesis.assemble_iq",
    "iqcore.save_iq", "iqcore.load_iq", "iqcore.frame_tensor", "iqcore.normalize_frames",
    "protogen.synth_prototype", "validation.validate", "validation.ks_distance",
    "validation.spectral_matrix", "cli.train", "cli.generate", "cli.validate",
)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("mb"):
        return "MB"
    for suffix, unit in ((".calls", "count"), (".gflop", "GFLOP"), (".mpoints", "Mpoint"),
                         (".points_per_sample", "point/sample")):
        if metric.endswith(suffix):
            return unit
    return "frac"


def _resolve(module_name, attr_path):
    """Return ``(owner, attribute)`` for a traced name, failing if it is gone."""
    module = importlib.import_module(module_name)
    owner_path, _, attr = attr_path.rpartition(".")
    owner = module
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceError(f"traced name {module_name}.{attr_path} is missing")
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(fn):
        raise TraceError(f"traced name {module_name}.{attr_path} is missing")
    return owner, attr


class Tracer:
    """Records spans around radiogan's layer calls inside ``recording()`` blocks."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = "setup"
        self._stack: list[Span] = []
        self._g_step_done = False
        self._originals = []
        # Resolve every target up front so a renamed layer fails before any work.
        self._targets = [(*_resolve(m, a), name, ann) for m, a, name, ann in TARGETS]

    # -- recording ---------------------------------------------------------

    def _name(self, name):
        if isinstance(name, str):
            return name
        if name == ("eval",):
            # net_forward straight under the training loop after this epoch's
            # generator step is the post-update evaluation.
            top = self._stack[-1].name if self._stack else None
            return "gan.eval" if top == "gan.train" and self._g_step_done else "net.forward"
        for span in reversed(self._stack):
            if span.name in ("gan.d_step", "gan.g_step"):
                return "net.conv1d.backward." + span.name[len("gan."):]
        raise TraceError("conv1d backward ran outside a discriminator or generator step")

    def _open(self, name):
        name = self._name(name)
        if name == "gan.sample_latent":
            self._g_step_done = False
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.run, 0.0)
        self.spans.append(span)
        self._stack.append(span)
        if name in STAGES:
            span.attrs["alloc_base"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.name == "gan.g_step":
            self._g_step_done = True
        if "alloc_base" in span.attrs:
            span.attrs["peak_alloc"] = tracemalloc.get_traced_memory()[1] - span.attrs.pop("alloc_base")

    def _wrap(self, fn, name, annotate):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                annotate(span, args, result)
            return result

        return traced

    @contextmanager
    def recording(self, run: str):
        """Trace the program calls made inside the block, under run id ``run``,
        with tracemalloc on."""
        self.run = run
        for owner, attr, name, annotate in self._targets:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._originals.append((owner, attr, current))
            setattr(owner, attr, self._wrap(current, name, annotate))
        tracemalloc.start()
        try:
            yield
        finally:
            tracemalloc.stop()
            for owner, attr, fn in reversed(self._originals):
                setattr(owner, attr, fn)
            self._originals.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict:
        covered = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + (span.end - span.start)
        return {s.id: (s.end - s.start) - covered.get(s.id, 0.0) for s in self.spans}

    def check_expected(self, kind: str) -> None:
        seen = {s.name for s in self.spans}
        missing = [name for name in EXPECTED[kind] if name not in seen]
        if missing:
            raise TraceError(f"expected layers recorded no spans: {missing}")

    def _ancestor_names(self, span):
        names = set()
        while span.parent is not None:
            span = self.spans[span.parent]
            names.add(span.name)
        return names

    def _run_metrics(self, spans, self_time) -> dict:
        """Per-layer metrics of one run (the set-up, or one traced operation)."""

        def total(name):
            return sum(self_time[s.id] for s in spans if s.name == name)

        def attr_sum(prefix, key):
            return sum(s.attrs.get(key, 0) for s in spans if s.name.startswith(prefix))

        def count(prefix):
            return sum(1 for s in spans if s.name.startswith(prefix))

        m = {f"{name}.self_s": total(name) for name in SELF_TIME_METRICS}
        m["net.dropout.self_s"] = total("net.dropout.forward") + total("net.dropout.backward")
        m["net.conv1d.calls"] = count("net.conv1d.")
        m["net.conv1d.gflop"] = attr_sum("net.conv1d.", "flop") / 1e9
        m["net.dense.gflop"] = attr_sum("net.dense.", "flop") / 1e9
        m["net.adam.step.calls"] = count("net.adam.step")
        m["net.checkpoint.save.mb"] = attr_sum("net.checkpoint.save", "bytes") / MB
        m["dsp.dft.calls"] = count("dsp.dft")
        m["dsp.dft.mpoints"] = attr_sum("dsp.dft", "points") / 1e6
        m["iqcore.save_iq.mb"] = attr_sum("iqcore.save_iq", "bytes") / MB
        m["iqcore.load_iq.mb"] = attr_sum("iqcore.load_iq", "bytes") / MB
        m["validation.spectral_matrix.calls"] = count("validation.spectral_matrix")
        # Sums, not ratios, so that set-up and operation runs add up; ratios
        # are formed in metrics().
        m["_os_points"] = sum(
            s.attrs.get("points", 0) for s in spans
            if s.name == "dsp.dft" and "dsp.overlap_save" in self._ancestor_names(s)
        )
        m["_os_samples"] = attr_sum("dsp.overlap_save", "samples")
        m["_spectral_inputs"] = {
            s.attrs["input"] for s in spans if s.name == "validation.spectral_matrix"
        }
        for span_name, stage in STAGES.items():
            peaks = [s.attrs.get("peak_alloc", 0) for s in spans if s.name == span_name]
            m[f"stage.{stage}.peak_alloc_mb"] = max(peaks, default=0) / MB
        return m

    def metrics(self) -> dict:
        """Per-layer metrics: the traced set-up plus the mean traced operation.

        Layers that run only during set-up (prototype synthesis) are counted
        once; operation metrics are averaged over the traced operations, and
        stage peaks take the largest stage seen.
        """
        self_time = self.self_times()
        by_run = {}
        for span in self.spans:
            by_run.setdefault(span.run, []).append(span)
        setup = self._run_metrics(by_run.pop("setup", []), self_time)
        ops = [self._run_metrics(spans, self_time) for spans in by_run.values()]
        if not ops:
            raise TraceError("no traced operation ran")
        out = {}
        for key, base in setup.items():
            if key == "_spectral_inputs":
                continue
            if key.startswith("stage."):
                out[key] = max([base] + [op[key] for op in ops])
            else:
                out[key] = base + statistics.fmean(op[key] for op in ops)
        points, samples = out.pop("_os_points"), out.pop("_os_samples")
        out["dsp.overlap_save.points_per_sample"] = points / samples if samples else 0.0
        calls = out["validation.spectral_matrix.calls"]
        distinct = len(setup["_spectral_inputs"]) + statistics.fmean(len(op["_spectral_inputs"]) for op in ops)
        out["validation.spectral_matrix.distinct_frac"] = distinct / calls if calls else 0.0
        return {name: out[name] for name in PER_LAYER_METRICS}

    def per_call(self) -> dict:
        """Calls, self time and self time per call for every span name."""
        self_time = self.self_times()
        out = {}
        for span in self.spans:
            row = out.setdefault(span.name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_time[span.id]
        for row in out.values():
            row["self_s_per_call"] = row["self_s"] / row["calls"]
        return dict(sorted(out.items()))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
