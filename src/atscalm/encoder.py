"""Contrastive spectrogram encoder.

A 4-stage residual convolutional backbone (7x7 stride-2 stem into four
stages of two batchnorm blocks each) followed by global average pooling and
a linear projection head. Training pulls together the embeddings of two
independently augmented views of the same clip with a plain mean squared
distance loss. A view is drawn from a center crop of the clip that is just
long enough to keep ``frames`` mel frames at the largest stretch rate, so
a long clip costs a view no more than a short one.

A batch of B clips is one (2B, ...) array in the SimCLR layout, view-0 rows
then view-1 rows in the same clip order. `contrastive_loss` scores the whole
(2B, D) embedding batch as one graph node, in training and in validation.

The encoder computes in float32: its parameters are the float32 rounding of
the seeded float64 draws, and training and `AcousticEncoder.embed` hand it
float32 views, so its activations, gradients and Adam moments are float32
too (Micikevicius et al. 2018, arXiv:1710.03740). Batchnorm's running
statistics stay float64, `contrastive_loss` sums over a float64 copy of
the embedding batch, and `embed` returns float64 embeddings. The
checkpoint stores each tensor in its own dtype.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from . import augment, dsp, features
from .audio_io import CorpusManifest
from .nn import Adam, Tensor, load_model, no_grad, save_model, seeded_init
from .nn.ops import batchnorm2d, conv2d, global_avg_pool, linear, maxpool2d
from .util import PipelineError, keyed_rng

log = logging.getLogger(__name__)

COLLAPSE_VARIANCE_FLOOR = 1e-6


@dataclass
class EncoderConfig:
    widths: tuple[int, ...] = (64, 128, 256, 512)
    blocks: tuple[int, ...] = (2, 2, 2, 2)
    proj_dim: int = 128
    frames: int = 256

    def __post_init__(self):
        if len(self.widths) != len(self.blocks):
            raise PipelineError("widths and blocks must have equal length")
        if not self.widths:
            raise PipelineError("widths and blocks must name at least one stage")
        if any(w <= 0 for w in self.widths) or any(b < 1 for b in self.blocks):
            raise PipelineError("widths and blocks must be positive")
        if list(self.widths) != sorted(self.widths):
            raise PipelineError("stage widths must be non-decreasing")
        if self.proj_dim < 2:
            raise PipelineError("projection dim must be >= 2")
        if self.frames < 1:
            raise PipelineError(f"frames must be >= 1, got {self.frames}")


@dataclass
class EncoderSection(EncoderConfig):
    """The architecture plus its training schedule; a checkpoint holds the first only."""

    epochs: int = 30
    lr: float = 3e-3
    batch_pairs: int = 8
    val_fraction: float = 0.25

    def __post_init__(self):
        super().__post_init__()
        for key in ("epochs", "batch_pairs"):
            if getattr(self, key) < 1:
                raise PipelineError(f"{key} must be >= 1")
        if self.lr < 0:
            raise PipelineError(f"lr must be >= 0, got {self.lr}")
        if not (0.0 <= self.val_fraction < 1.0):
            raise PipelineError(f"val_fraction must be in [0, 1), got {self.val_fraction}")

    def architecture(self) -> EncoderConfig:
        return EncoderConfig(**{f.name: getattr(self, f.name) for f in fields(EncoderConfig)})


class _Block:
    """conv3x3-bn-relu-conv3x3-bn plus identity or 1x1-downsample skip, then
    relu. The second batchnorm adds the skip and applies the relu itself, so
    the block's tail holds one array, not three."""

    def __init__(self, model: "AcousticEncoder", name: str, c_in: int, c_out: int,
                 stride: int, seed):
        self.stride = stride
        self.w1 = model._param(f"{name}.conv1", (c_out, c_in, 3, 3), seed)
        self.bn1 = model._bn(f"{name}.bn1", c_out)
        self.w2 = model._param(f"{name}.conv2", (c_out, c_out, 3, 3), seed)
        self.bn2 = model._bn(f"{name}.bn2", c_out)
        self.down_w = None
        self.down_bn = None
        if stride != 1 or c_in != c_out:
            self.down_w = model._param(f"{name}.down", (c_out, c_in, 1, 1), seed)
            self.down_bn = model._bn(f"{name}.down_bn", c_out)

    def forward(self, x: Tensor, train: bool) -> Tensor:
        y = batchnorm2d(conv2d(x, self.w1, stride=self.stride, pad=1), *self.bn1, train,
                        relu=True)
        y = conv2d(y, self.w2, stride=1, pad=1)
        if self.down_w is None:
            skip = x
        else:
            skip = batchnorm2d(conv2d(x, self.down_w, stride=self.stride, pad=0),
                               *self.down_bn, train)
        return batchnorm2d(y, *self.bn2, train, skip=skip, relu=True)


class AcousticEncoder:
    """A model under the `atscalm.nn.checkpoint` contract: ``params`` and
    ``buffers`` (each batchnorm's running mean, then its running var)."""

    def __init__(self, cfg: EncoderConfig, seed=0):
        self.cfg = cfg
        self.params: dict[str, Tensor] = {}
        self.buffers: dict[str, Tensor] = {}
        self.stem_w = self._param("stem.conv", (cfg.widths[0], 1, 7, 7), seed)
        self.stem_bn = self._bn("stem.bn", cfg.widths[0])
        self.blocks: list[_Block] = []
        c_in = cfg.widths[0]
        for si, (c_out, n_blocks) in enumerate(zip(cfg.widths, cfg.blocks)):
            for bi in range(n_blocks):
                stride = 2 if (si > 0 and bi == 0) else 1
                self.blocks.append(_Block(self, f"stage{si}.block{bi}", c_in, c_out, stride, seed))
                c_in = c_out
        self.proj_w = self._param("proj.w", (c_in, cfg.proj_dim), seed, fan_in=c_in)
        self.proj_b = self.params["proj.b"] = Tensor(np.zeros(cfg.proj_dim, np.float32),
                                                     requires_grad=True)

    def _param(self, name: str, shape, seed, fan_in=None) -> Tensor:
        t = self.params[name] = seeded_init(shape, "kaiming-uniform", (seed, name), fan_in=fan_in)
        return t

    def _bn(self, name: str, c: int) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        """(gamma, beta, running mean, running var), the trailing arguments of
        batchnorm2d: float32 parameters, float64 statistics."""
        gamma = self.params[f"{name}.gamma"] = Tensor(np.ones(c, np.float32), requires_grad=True)
        beta = self.params[f"{name}.beta"] = Tensor(np.zeros(c, np.float32), requires_grad=True)
        mean = self.buffers[f"{name}.running_mean"] = Tensor(np.zeros(c))
        var = self.buffers[f"{name}.running_var"] = Tensor(np.ones(c))
        return gamma, beta, mean, var

    def forward(self, x: Tensor, train: bool) -> Tensor:
        """(N, 1, n_mels, frames) -> (N, proj_dim)."""
        if x.data.ndim != 4 or x.data.shape[1] != 1:
            raise PipelineError(f"encoder expects (N,1,mels,frames), got {x.data.shape}")
        y = batchnorm2d(conv2d(x, self.stem_w, stride=2, pad=3), *self.stem_bn, train, relu=True)
        y = maxpool2d(y, kernel=3, stride=2, pad=1)
        for block in self.blocks:
            y = block.forward(y, train)
        z = global_avg_pool(y)
        return linear(z, self.proj_w, self.proj_b)

    def embed(self, grids: list[np.ndarray]) -> np.ndarray:
        """Eval-mode float64 embeddings of float32 copies of ``grids``."""
        x = Tensor(np.stack(grids, dtype=np.float32)[:, None, :, :])
        with no_grad():
            return self.forward(x, train=False).data.astype(np.float64)

def count_flops(model: AcousticEncoder, input_hw: tuple[int, int]) -> int:
    """2*MACs for conv and linear layers at an (n_mels, frames) input, per sample.

    Walks the built model's weights, so only the kernel, stride and pad of
    each conv live here. Elementwise work (bn, relu, pooling) is not
    counted; this convention is reported alongside the number wherever it
    is surfaced.
    """
    def conv(w: Tensor, hw, stride: int, pad: int):
        k = w.data.shape[-1]
        ho, wo = ((d + 2 * pad - k) // stride + 1 for d in hw)
        return 2 * w.data.size * ho * wo, (ho, wo)

    total, hw = conv(model.stem_w, input_hw, 2, 3)
    hw = tuple((d + 2 - 3) // 2 + 1 for d in hw)   # 3x3 stride-2 max pool, pad 1
    for block in model.blocks:
        flops, out_hw = conv(block.w1, hw, block.stride, 1)
        total += flops + conv(block.w2, out_hw, 1, 1)[0]
        if block.down_w is not None:
            total += conv(block.down_w, hw, block.stride, 0)[0]
        hw = out_hw
    return int(total + 2 * model.proj_w.data.size)


def contrastive_loss(emb: Tensor) -> Tensor:
    """Mean over the B pairs of a (2B, D) batch of the squared distance
    between their two views. Backward writes (s*d) + (s*d), with d the pair
    differences and s = 1/B, into the view-0 rows and its negation into the
    view-1 rows, as a composed sub, mul, sum and scale graph would.

    Both run on a float64 copy of a float32 batch, so the loss is a float64
    sum; ``emb`` takes the gradient in its own dtype."""
    e = emb.data.astype(np.float64, copy=False)
    if e.ndim != 2 or e.shape[0] == 0 or e.shape[0] % 2:
        raise PipelineError(f"contrastive batch must be (2B, D), got {e.shape}")
    b = e.shape[0] // 2
    s = 1.0 / b
    d = e[:b] - e[b:]
    out = Tensor(np.sum(d * d) * s, emb.requires_grad, (emb,))

    def backward():
        g = np.empty_like(e)
        np.multiply(d, out.grad * s, out=g[:b])
        g[:b] += g[:b]
        np.negative(g[:b], out=g[b:])
        emb.accumulate(g)

    out._backward = backward
    return out


def mean_cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    num = np.sum(a * b, axis=1)
    den = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1) + 1e-12
    return float(np.mean(num / den))


def prepare_input(grid: dsp.Grid, frames: int) -> np.ndarray:
    """Center-crop or pad a log-mel grid to a fixed frame count.

    Padding uses the grid minimum, the log-domain floor.
    """
    values = grid.values
    n = values.shape[1]
    if n >= frames:
        start = (n - frames) // 2
        return values[:, start : start + frames].copy()
    out = np.full((values.shape[0], frames), values.min())
    start = (frames - n) // 2
    out[:, start : start + n] = values
    return out


def _view_window(frames: int, stretch_max: float) -> int:
    """Samples a training view's clip is center-cropped to: the span of
    ``frames`` mel frames, ((frames - 1) * hop + win), times the largest
    stretch rate, plus two vocoder windows of margin for the vocoder's edges."""
    span = (frames - 1) * features.HOP + features.WIN
    return math.ceil(span * stretch_max) + 2 * augment.VOCODER_WIN


def _center_crop(x: np.ndarray, n: int) -> np.ndarray:
    """A copy of the ``n`` centre samples of ``x``, or ``x`` itself when it
    is no longer than that."""
    if x.size <= n:
        return x
    start = (x.size - n) // 2
    return x[start : start + n].copy()


def shortest_view_frames(frames: int, stretch_max: float) -> int:
    """Mel frames of the shortest view a clip longer than `_view_window` gives:
    a stretch by ``stretch_max`` leaves round(window / stretch_max) samples."""
    n = int(round(_view_window(frames, stretch_max) / stretch_max))
    return 1 + (n - features.WIN) // features.HOP


def _augmented_view(clip_id: str, x: np.ndarray, rate: int, aug_cfg: augment.AugmentConfig,
                    enc_cfg: EncoderConfig, seed, epoch: int, view: int) -> np.ndarray:
    """One training view: crop the clip, draw a variant, log-mel, then cut
    the grid to ``frames``, mask it, and pad it.

    The clip is first center-cropped to `_view_window` samples, which
    `train_encoder` has already done when it loaded it. A stretch by
    r shortens the signal by 1/r and a pitch shift keeps its length, so at
    every drawn rate the variant still spans at least ``frames`` frames and
    `prepare_input` crops it, never pads it. A clip no longer than the
    window is used whole. The noise sigma follows the cropped samples' peak.
    The mask is drawn over the grid the model sees: a grid longer than
    ``frames`` is center-cropped first, so the time mask always lands
    inside the kept frames; a shorter one is masked, then padded. A
    PipelineError is raised again with ``clip_id`` in front.
    """
    x = _center_crop(x, _view_window(enc_cfg.frames, aug_cfg.stretch_range[1]))
    rng = keyed_rng(seed, "enc-view", clip_id, epoch, view)
    mask = (aug_cfg.freq_mask_max, aug_cfg.time_mask_max,
            keyed_rng(seed, "enc-mask", clip_id, epoch, view))
    try:
        var = augment.make_variant(x, rate, aug_cfg, rng)
        grid = features.mel_spectrogram(var, rate)
        if grid.n_frames < enc_cfg.frames:
            return prepare_input(dsp.Grid(augment.spec_mask(grid.values, *mask)), enc_cfg.frames)
        return augment.spec_mask(prepare_input(grid, enc_cfg.frames), *mask)
    except PipelineError as exc:
        raise type(exc)(f"{clip_id}: {exc}") from None


def _pair_views(clips, rate, aug_cfg, enc_cfg, seed, epoch) -> list[np.ndarray]:
    """View 0 of every (id, samples) clip, then view 1 of each: the (2B, ...) layout."""
    return [_augmented_view(cid, x, rate, aug_cfg, enc_cfg, seed, epoch, view)
            for view in (0, 1) for cid, x in clips]


def _pair_metrics(model: AcousticEncoder, clips, rate, aug_cfg, seed, epoch, tag):
    """Eval-mode loss and cosine similarity over fresh positive pairs."""
    views = _pair_views(clips, rate, aug_cfg, model.cfg, (seed, tag), epoch)
    p1 = model.embed(views[: len(clips)])
    p2 = model.embed(views[len(clips) :])
    loss = contrastive_loss(Tensor(np.concatenate([p1, p2]))).item()
    return loss, mean_cosine_similarity(p1, p2)


def train_encoder(manifest: CorpusManifest, cfg: EncoderSection,
                  aug_cfg: augment.AugmentConfig, seed: int, *, target_rate: int,
                  jobs: int) -> tuple[AcousticEncoder, list[dict]]:
    """Positive-pair contrastive training of ``cfg.architecture()`` on the
    schedule the rest of the section sets; deterministic for ``seed``.

    Returns the trained model and a history with one row per epoch:
    train/val loss, train/val positive-pair cosine similarity, and the
    last train-batch embedding variance (collapse monitor). A non-finite
    batch or validation loss raises PipelineError naming the epoch. At
    ``cfg.val_fraction`` 0 no clip is held out and no row has a val key. The
    history holds no wall-clock value; each epoch's elapsed time goes to the
    INFO log line instead.
    """
    n = len(manifest.entries)
    if n < 2:
        raise PipelineError("encoder training needs at least 2 clips")
    order = keyed_rng(seed, "split").permutation(n)
    n_val = max(1, int(round(cfg.val_fraction * n))) if cfg.val_fraction > 0 else 0
    if n_val == n:
        raise PipelineError("validation split leaves no training clips")
    # every view reads only its clip's centre window, so only that is held
    window = _view_window(cfg.frames, aug_cfg.stretch_range[1])
    clips = list(manifest.map_clips(lambda e, x: (e.clip_id, _center_crop(x, window)),
                                    target_rate=target_rate, jobs=jobs))
    val_clips = [clips[i] for i in order[:n_val]]
    train_clips = [clips[i] for i in order[n_val:]]

    model = AcousticEncoder(cfg.architecture(), seed)
    opt = Adam(model.params, cfg.lr)
    history = []
    warned = False
    for epoch in range(cfg.epochs):
        tic = time.perf_counter()
        perm = keyed_rng(seed, "order", epoch).permutation(len(train_clips))
        losses = []
        cossims = []
        emb_var = np.nan
        for start in range(0, len(perm), cfg.batch_pairs):
            batch = [train_clips[i] for i in perm[start : start + cfg.batch_pairs]]
            # the views are not kept past the stack: the step holds the batch once
            x = Tensor(np.stack(_pair_views(batch, target_rate, aug_cfg, cfg, seed, epoch),
                                dtype=np.float32)[:, None, :, :])
            emb = model.forward(x, train=True)
            loss = contrastive_loss(emb)
            losses.append(loss.item())
            if not math.isfinite(losses[-1]):
                raise PipelineError(f"encoder training diverged: loss {losses[-1]} at epoch "
                                    f"{epoch + 1}, batch {start // cfg.batch_pairs + 1}")
            loss.backward()
            opt.step()
            e = emb.data.astype(np.float64)
            cossims.append(mean_cosine_similarity(e[: len(batch)], e[len(batch) :]))
            emb_var = float(np.mean(np.var(e, axis=0)))
        if emb_var < COLLAPSE_VARIANCE_FLOOR and not warned:
            log.warning("embedding batch variance %.3g below %.1g at epoch %d: "
                        "possible representation collapse", emb_var, COLLAPSE_VARIANCE_FLOOR, epoch)
            warned = True
        val_loss, val_cos = (_pair_metrics(model, val_clips, target_rate, aug_cfg, seed, epoch,
                                           "val") if val_clips else (None, None))
        if val_clips and not math.isfinite(val_loss):
            raise PipelineError(f"encoder training diverged: validation loss {val_loss} "
                                f"at epoch {epoch + 1}")
        row = {
            "epoch": epoch + 1,
            "train_loss": float(np.mean(losses)),
            "val_loss": val_loss,
            "train_cossim": float(np.mean(cossims)),
            "val_cossim": val_cos,
            "emb_variance": emb_var,
        }
        history.append({k: v for k, v in row.items() if v is not None})
        val_text = f", val loss {val_loss:.6g}" if val_clips else ""
        log.info("encoder epoch %d/%d: train loss %.6g%s, emb variance %.3g (%.2f s)",
                 epoch + 1, cfg.epochs, row["train_loss"], val_text, emb_var,
                 time.perf_counter() - tic)
    return model, history


def save_encoder(model: AcousticEncoder, path: str) -> None:
    save_model(model, path, "encoder", feature_params=features.FRONT_END)


def load_encoder(path: str) -> tuple[AcousticEncoder, dict]:
    return load_model(path, "encoder", EncoderConfig, AcousticEncoder)


def embed_input(x: np.ndarray, rate: int, frames: int) -> np.ndarray:
    """``prepare_input(mel_spectrogram(x), frames)``, from the samples of
    the kept frames alone.

    The STFT is uncentred, so frame i reads samples [i*hop, i*hop + win).
    A clip of at least ``frames`` frames is cut to the samples of the
    centre ``frames`` that `prepare_input` keeps, so a long clip costs no
    more than a short one. Every STFT frame is the same; the filterbank
    product is a GEMM of another width, which a BLAS may round differently
    in a few columns, by at most an ulp. A shorter clip is padded with the
    minimum of its whole grid, so it is taken whole.
    """
    n_frames = 1 + (x.size - features.WIN) // features.HOP
    if n_frames >= frames:
        start = (n_frames - frames) // 2 * features.HOP
        x = x[start : start + (frames - 1) * features.HOP + features.WIN]
    return prepare_input(features.mel_spectrogram(x, rate), frames)


def embed_corpus(model: AcousticEncoder, manifest: CorpusManifest, *, target_rate: int,
                 jobs: int) -> np.ndarray:
    """Eval-mode embeddings, (entries, proj_dim): row i embeds manifest entry
    i. The model runs on 16 clips at a time, each batch as soon as the walk
    has made its inputs, so no more than 16 are held."""
    inputs = manifest.map_clips(
        lambda entry, x: embed_input(x, target_rate, model.cfg.frames),
        target_rate=target_rate, jobs=jobs)
    out = np.empty((len(manifest.entries), model.cfg.proj_dim))
    for start in range(0, len(out), 16):
        out[start : start + 16] = model.embed(list(itertools.islice(inputs, 16)))
    return out
