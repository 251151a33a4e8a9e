"""Span tracer installed inside one atscalm stage process.

`install()` wraps each traced public function at every place its name is
bound inside the loaded ``atscalm`` package, not only where it is defined:
``augment.resample_signal`` and ``encoder.conv2d`` are imported names, so
patching ``audio_io`` or ``nn.ops`` alone would miss them. Each wrapper
records a span (name, start, end, parent index); spans stay in memory and
`Tracer.dump` writes them out once, when the stage ends.

Backward time of ``conv2d``, ``batchnorm2d`` and ``maxpool2d`` is taken by
wrapping the ``_backward`` closure of the tensor each op returns. Counters
(bytes, samples, frames, FLOPs computed from shapes, tensors created) are
taken in the same wrappers, outside the timed span.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

# Exact span and counter names, with the workloads that execute them. The
# coverage self-check requires at least one call on each listed workload and
# none on the others, so a refactor that rebinds or bypasses a traced name
# fails loudly instead of silently dropping a layer metric.
CORPUS, ENCODER, CAM = "corpus-long", "encoder-long", "cam-default"
CONV_STAGES = ("stem", "stage0", "stage1", "stage2", "stage3")
RUNS_ON: dict[str, set[str]] = {
    "audio_io.resample_signal": {CORPUS, ENCODER},
    "audio_io.save_wav": {CORPUS},
    "audio_io.load_wav": {CORPUS, ENCODER},
    "augment.phase_vocoder": {CORPUS, ENCODER},
    "augment.make_variant": {CORPUS, ENCODER},
    "augment.pitch_shift": {CORPUS, ENCODER},
    "augment.spec_mask": {ENCODER},
    "encoder.prepare_input": {ENCODER},
    "dsp.stft": {CORPUS, ENCODER},
    "dsp.analytic_envelope": {CORPUS},
    "features.mel_spectrogram": {CORPUS, ENCODER},
    "features.extract_features": {CORPUS},
    "features.wavelet_stats": {CORPUS},
    "features.mfcc13": {CORPUS},
    "validation.validate_clip": {CORPUS},
    **{f"nn.conv2d.{st}.{d}": {ENCODER} for st in CONV_STAGES for d in ("fwd", "bwd")},
    "nn.batchnorm2d.fwd": {ENCODER},
    "nn.batchnorm2d.bwd": {ENCODER},
    "nn.maxpool2d.fwd": {ENCODER},
    "nn.maxpool2d.bwd": {ENCODER},
    "encoder.AcousticEncoder.forward.train": {ENCODER},
    "encoder.AcousticEncoder.forward.eval": {ENCODER},
    "nn.Tensor.backward": {ENCODER, CAM},
    "nn.Adam.step": {ENCODER, CAM},
    "nn.bilstm_final.fwd": {CAM},
    "classifier.BiLstmClassifier.predict": {CAM},
    "nn.save_checkpoint": {ENCODER, CAM},
    "nn.load_checkpoint": {ENCODER, CAM},
    "tsne.tsne": {ENCODER},
    "stats.calmness_report": {CORPUS},
    "embedding_eval.geometry_report": {ENCODER},
    "nn.tensors_created": {ENCODER, CAM},
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []          # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.bindings: dict[str, int] = {}   # traced function -> places rebound
        self.flopcheck: dict[str, float] = {}
        self.conv_stage: dict[int, str] = {}  # id(weight tensor) -> stem/stageN
        self.last_batch = 0
        self._mark = (0, 0)                   # tensors, bytes when the window opened

    def open(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _totals(self) -> tuple[float, float]:
        return self.counts.get("nn.tensors_created", 0), self.counts.get("nn.graph_bytes", 0)

    def begin_step(self) -> None:
        """Open a training-step window at a model forward, so the window
        leaves out parameter construction and earlier evaluation."""
        self._mark = self._totals()

    def end_step(self) -> None:
        """Close the window at ``Adam.step``: tensors and bytes since it opened."""
        tensors, nbytes = self._totals()
        self.add("step.count")
        self.add("step.samples", self.last_batch)
        self.add("step.tensors", tensors - self._mark[0])
        self.add("step.bytes", nbytes - self._mark[1])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans, "counts": self.counts,
                       "bindings": self.bindings, "flopcheck": self.flopcheck}, fh)


def _traced(tr: Tracer, fn, name, before=None, after=None):
    """Span wrapper; ``name`` may be a function of the bound arguments."""
    sig = inspect.signature(fn)
    needs_args = before is not None or after is not None or callable(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        a = None
        if needs_args:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
        if before is not None:
            before(a)
        i = tr.open(name(a) if callable(name) else name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.close(i)
        if after is not None:
            after(a, out)
        return out

    return traced


def _trace_backward(tr: Tracer, out, name: str) -> None:
    inner = out._backward
    if inner is None:
        return

    def backward():
        i = tr.open(name)
        try:
            inner()
        finally:
            tr.close(i)

    out._backward = backward


def _rebind(tr: Tracer, name: str, original, replacement) -> None:
    places = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "atscalm" or mod_name.startswith("atscalm.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                places += 1
    if places == 0:
        raise RuntimeError(f"traced function {name} is bound nowhere in atscalm")
    tr.bindings[name] = places


def install(run_id: str) -> Tracer:
    """Wrap every traced layer of the already-imported atscalm package."""
    import numpy as np

    from atscalm import (audio_io, augment, classifier, dsp, embedding_eval, encoder,
                         features, stats, tsne, validation)
    from atscalm.nn import checkpoint, lstm, ops, optim, tensor

    tr = Tracer(run_id)

    def count(key, measure):
        return lambda a, out: tr.add(key, measure(a, out))

    def file_bytes(key, arg):
        return count(key, lambda a, out: os.path.getsize(a[arg]))

    def frames_kept(a, out):
        tr.add("frames.computed", a["grid"].n_frames)
        tr.add("frames.kept", min(a["grid"].n_frames, a["frames"]))

    def conv_name(a):
        return f"nn.conv2d.{tr.conv_stage.get(id(a['w']), 'other')}.fwd"

    def conv_after(a, out):
        n, o, ho, wo = out.data.shape
        _, c, kh, kw = a["w"].data.shape
        flops = 2 * n * o * c * kh * kw * ho * wo
        stage = tr.conv_stage.get(id(a["w"]), "other")
        tr.add(f"nn.conv2d.{stage}.flops", flops)
        tr.add("conv.flops", flops)
        _trace_backward(tr, out, f"nn.conv2d.{stage}.bwd")

    def bilstm_before(a):
        tr.last_batch = a["xs"][0].data.shape[0]
        tr.begin_step()

    def bwd_after(name):
        return lambda a, out: _trace_backward(tr, out, name)

    functions = [
        (audio_io, "resample_signal", "audio_io.resample_signal", None,
         count("audio_io.resample_signal.samples_out", lambda a, out: out.size)),
        (audio_io, "save_wav", "audio_io.save_wav", None,
         file_bytes("audio_io.save_wav.bytes", "path")),
        (audio_io, "load_wav", "audio_io.load_wav", None,
         file_bytes("audio_io.load_wav.bytes", "path")),
        (augment, "phase_vocoder", "augment.phase_vocoder", None,
         count("augment.phase_vocoder.samples_in", lambda a, out: np.size(a["x"]))),
        (augment, "make_variant", "augment.make_variant", None, None),
        (augment, "pitch_shift", "augment.pitch_shift", None, None),
        (augment, "spec_mask", "augment.spec_mask", None, None),
        (encoder, "prepare_input", "encoder.prepare_input", None, frames_kept),
        (dsp, "stft", "dsp.stft", None,
         count("dsp.stft.frames", lambda a, out: out.n_frames)),
        (dsp, "analytic_envelope", "dsp.analytic_envelope", None, None),
        (features, "mel_spectrogram", "features.mel_spectrogram", None, None),
        (features, "extract_features", "features.extract_features", None, None),
        (features, "wavelet_stats", "features.wavelet_stats", None, None),
        (features, "mfcc13", "features.mfcc13", None, None),
        (validation, "validate_clip", "validation.validate_clip", None, None),
        (ops, "conv2d", conv_name, None, conv_after),
        (ops, "batchnorm2d", "nn.batchnorm2d.fwd", None, bwd_after("nn.batchnorm2d.bwd")),
        (ops, "maxpool2d", "nn.maxpool2d.fwd", None, bwd_after("nn.maxpool2d.bwd")),
        (lstm, "bilstm_final", "nn.bilstm_final.fwd", bilstm_before, None),
        (checkpoint, "save_checkpoint", "nn.save_checkpoint", None,
         file_bytes("nn.save_checkpoint.bytes", "path")),
        (checkpoint, "load_checkpoint", "nn.load_checkpoint", None, None),
        (tsne, "tsne", "tsne.tsne", None, None),
        (stats, "calmness_report", "stats.calmness_report", None, None),
        (embedding_eval, "geometry_report", "embedding_eval.geometry_report", None, None),
    ]
    for mod, attr, name, before, after in functions:
        original = getattr(mod, attr)
        label = f"{mod.__name__}.{attr}"
        _rebind(tr, label, original, _traced(tr, original, name, before, after))

    # Methods live on their class, so one assignment covers every caller.
    tensor_init = tensor.Tensor.__init__

    @functools.wraps(tensor_init)
    def counted_init(self, *args, **kwargs):
        tensor_init(self, *args, **kwargs)
        tr.add("nn.tensors_created")
        tr.add("nn.graph_bytes", self.data.nbytes)

    tensor.Tensor.__init__ = counted_init
    tensor.Tensor.backward = _traced(tr, tensor.Tensor.backward, "nn.Tensor.backward")
    optim.Adam.step = _traced(tr, optim.Adam.step, "nn.Adam.step",
                              before=lambda a: tr.end_step())
    classifier.BiLstmClassifier.predict = _traced(
        tr, classifier.BiLstmClassifier.predict, "classifier.BiLstmClassifier.predict")

    forward = encoder.AcousticEncoder.forward

    @functools.wraps(forward)
    def traced_forward(self, x, train=False):
        tr.conv_stage = {id(p): name.split(".")[0] for name, p in self.params.items()}
        if train:
            tr.last_batch = x.data.shape[0]
            tr.begin_step()
        flops_before = tr.counts.get("conv.flops", 0)
        i = tr.open(f"encoder.AcousticEncoder.forward.{'train' if train else 'eval'}")
        try:
            out = forward(self, x, train)
        finally:
            tr.close(i)
        if not train and not tr.flopcheck:
            # Per-sample conv FLOPs from the traced shapes against the
            # hand-mirrored count, which also counts the projection head.
            n = x.data.shape[0]
            tr.flopcheck = {
                "traced_conv_flops": (tr.counts["conv.flops"] - flops_before) / n,
                "head_flops": 2 * self.proj_w.data.size,
                "count_flops": encoder.count_flops(self, tuple(x.data.shape[2:])),
            }
        return out

    encoder.AcousticEncoder.forward = traced_forward
    return tr
