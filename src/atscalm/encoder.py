"""Contrastive spectrogram encoder.

A 4-stage residual convolutional backbone (7x7 stride-2 stem into four
stages of two batchnorm blocks each) followed by global average pooling and
a linear projection head. Training pulls together the embeddings of two
independently augmented views of the same clip with a plain mean squared
distance loss.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from . import augment, features
from .audio_io import AudioClip, ClassLabel, CorpusManifest
from .nn import Adam, Tensor, load_checkpoint, no_grad, save_checkpoint, seeded_init
from .nn.ops import (BatchNormState, add, batchnorm2d, conv2d, global_avg_pool,
                     linear, matmul, maxpool2d, mul, relu, scale, split, ssum, sub)
from .util import PipelineError, dataclass_from_dict, keyed_rng, parallel_map

log = logging.getLogger(__name__)

COLLAPSE_VARIANCE_FLOOR = 1e-6


@dataclass
class EncoderConfig:
    widths: tuple[int, ...] = (64, 128, 256, 512)
    blocks: tuple[int, ...] = (2, 2, 2, 2)
    proj_dim: int = 128
    width_scale: float = 1.0
    frames: int = 256
    uniformity_weight: float = 0.0   # optional anti-collapse regularizer

    def __post_init__(self):
        if len(self.widths) != len(self.blocks):
            raise PipelineError("widths and blocks must have equal length")
        if any(w <= 0 for w in self.widths) or any(b < 1 for b in self.blocks):
            raise PipelineError("widths and blocks must be positive")
        if list(self.widths) != sorted(self.widths):
            raise PipelineError("stage widths must be non-decreasing")
        if self.proj_dim < 2:
            raise PipelineError("projection dim must be >= 2")

    def scaled_widths(self) -> tuple[int, ...]:
        return tuple(max(1, int(round(w * self.width_scale))) for w in self.widths)


class _Block:
    """conv3x3-bn-relu-conv3x3-bn plus identity or 1x1-downsample skip."""

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
        y = batchnorm2d(conv2d(x, self.w1, stride=self.stride, pad=1),
                        self.bn1[0], self.bn1[1], self.bn1[2], train)
        y = relu(y)
        y = batchnorm2d(conv2d(y, self.w2, stride=1, pad=1),
                        self.bn2[0], self.bn2[1], self.bn2[2], train)
        if self.down_w is None:
            skip = x
        else:
            skip = batchnorm2d(conv2d(x, self.down_w, stride=self.stride, pad=0),
                               self.down_bn[0], self.down_bn[1], self.down_bn[2], train)
        return relu(add(y, skip))


class AcousticEncoder:
    def __init__(self, cfg: EncoderConfig, seed=0):
        self.cfg = cfg
        self.params: dict[str, Tensor] = {}
        self.bn_states: dict[str, BatchNormState] = {}
        widths = cfg.scaled_widths()
        self.stem_w = self._param("stem.conv", (widths[0], 1, 7, 7), seed)
        self.stem_bn = self._bn("stem.bn", widths[0])
        self.blocks: list[_Block] = []
        c_in = widths[0]
        for si, (c_out, n_blocks) in enumerate(zip(widths, cfg.blocks)):
            for bi in range(n_blocks):
                stride = 2 if (si > 0 and bi == 0) else 1
                self.blocks.append(_Block(self, f"stage{si}.block{bi}", c_in, c_out, stride, seed))
                c_in = c_out
        self.proj_w = self._param("proj.w", (c_in, cfg.proj_dim), seed, fan_in=c_in)
        self.proj_b = Tensor(np.zeros(cfg.proj_dim), requires_grad=True)
        self.params["proj.b"] = self.proj_b

    def _param(self, name: str, shape, seed, fan_in=None) -> Tensor:
        t = seeded_init(shape, "kaiming-uniform", (seed, name), fan_in=fan_in)
        self.params[name] = t
        return t

    def _bn(self, name: str, c: int):
        gamma = Tensor(np.ones(c), requires_grad=True)
        beta = Tensor(np.zeros(c), requires_grad=True)
        state = BatchNormState.for_channels(c)
        self.params[f"{name}.gamma"] = gamma
        self.params[f"{name}.beta"] = beta
        self.bn_states[name] = state
        return gamma, beta, state

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        """(N, 1, n_mels, frames) -> (N, proj_dim)."""
        if x.data.ndim != 4 or x.data.shape[1] != 1:
            raise PipelineError(f"encoder expects (N,1,mels,frames), got {x.data.shape}")
        y = batchnorm2d(conv2d(x, self.stem_w, stride=2, pad=3),
                        self.stem_bn[0], self.stem_bn[1], self.stem_bn[2], train)
        y = relu(y)
        y = maxpool2d(y, kernel=3, stride=2, pad=1)
        for block in self.blocks:
            y = block.forward(y, train)
        z = global_avg_pool(y)
        return linear(z, self.proj_w, self.proj_b)

    def embed(self, grids: list[np.ndarray]) -> np.ndarray:
        x = Tensor(np.stack(grids)[:, None, :, :])
        with no_grad():
            return self.forward(x, train=False).data

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {name: p.data for name, p in self.params.items()}
        for name, st in self.bn_states.items():
            out[f"{name}.running_mean"] = st.mean
            out[f"{name}.running_var"] = st.var
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        for name, current in self.state_arrays().items():
            if name not in arrays or arrays[name].shape != current.shape:
                raise PipelineError(f"checkpoint tensor {name} missing or wrong shape")
        for name, p in self.params.items():
            p.data = arrays[name].copy()
        for name, st in self.bn_states.items():
            st.mean = arrays[f"{name}.running_mean"].copy()
            st.var = arrays[f"{name}.running_var"].copy()


def count_parameters(model: AcousticEncoder) -> int:
    """Trainable parameters only; batchnorm running stats are buffers."""
    return int(sum(p.data.size for p in model.params.values()))


def count_flops(model: AcousticEncoder, input_hw: tuple[int, int]) -> int:
    """2*MACs for conv and linear layers at an (n_mels, frames) input, per sample.

    Elementwise work (bn, relu, pooling) is not counted; this convention is
    reported alongside the number wherever it is surfaced.
    """
    cfg = model.cfg
    h, w = input_hw

    def conv_out(h, w, k, stride, pad):
        return (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1

    total = 0
    widths = cfg.scaled_widths()
    h, w = conv_out(h, w, 7, 2, 3)
    total += 2 * widths[0] * 1 * 7 * 7 * h * w
    h, w = conv_out(h, w, 3, 2, 1)
    c_in = widths[0]
    for si, (c_out, n_blocks) in enumerate(zip(widths, cfg.blocks)):
        for bi in range(n_blocks):
            stride = 2 if (si > 0 and bi == 0) else 1
            ho, wo = conv_out(h, w, 3, stride, 1)
            total += 2 * c_out * c_in * 9 * ho * wo
            total += 2 * c_out * c_out * 9 * ho * wo
            if stride != 1 or c_in != c_out:
                total += 2 * c_out * c_in * 1 * ho * wo
            h, w = ho, wo
            c_in = c_out
    total += 2 * c_in * cfg.proj_dim
    return int(total)


def contrastive_loss(p1: Tensor, p2: Tensor) -> Tensor:
    """Mean over the batch of the squared distance between paired embeddings."""
    if p1.data.shape != p2.data.shape:
        raise PipelineError(f"contrastive batch shapes differ: {p1.data.shape} vs {p2.data.shape}")
    d = sub(p1, p2)
    return scale(ssum(mul(d, d)), 1.0 / p1.data.shape[0])


def mean_cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    num = np.sum(a * b, axis=1)
    den = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1) + 1e-12
    return float(np.mean(num / den))


def prepare_input(grid: features.TimeFreqGrid, frames: int) -> np.ndarray:
    """Center-crop or pad a log-mel grid to a fixed frame count.

    Padding uses the grid minimum, the log-domain floor.
    """
    values = grid.values
    n = values.shape[1]
    if n == frames:
        return values.copy()
    if n > frames:
        start = (n - frames) // 2
        return values[:, start : start + frames].copy()
    out = np.full((values.shape[0], frames), values.min())
    start = (frames - n) // 2
    out[:, start : start + n] = values
    return out


@dataclass
class Embedding:
    vec: np.ndarray
    clip_id: str
    label: ClassLabel


def _augmented_view(clip: AudioClip, aug_cfg: augment.AugmentConfig,
                    feat_params: features.FeatureParams, enc_cfg: EncoderConfig,
                    seed, epoch: int, view: int) -> np.ndarray:
    rng = keyed_rng(seed, "enc-view", clip.id, epoch, view)
    var = augment.make_variant(clip, aug_cfg, rng)
    grid = features.mel_spectrogram(var, feat_params)
    grid = augment.spec_mask(grid, aug_cfg.freq_mask_max, aug_cfg.time_mask_max,
                             keyed_rng(seed, "enc-mask", clip.id, epoch, view))
    return prepare_input(grid, enc_cfg.frames)


def _pair_metrics(model: AcousticEncoder, clips, aug_cfg, feat_params, seed, epoch, tag):
    """Eval-mode loss and cosine similarity over fresh positive pairs."""
    if not clips:
        return 0.0, 1.0
    v1 = [_augmented_view(c, aug_cfg, feat_params, model.cfg, (seed, tag), epoch, 0) for c in clips]
    v2 = [_augmented_view(c, aug_cfg, feat_params, model.cfg, (seed, tag), epoch, 1) for c in clips]
    p1 = model.embed(v1)
    p2 = model.embed(v2)
    loss = float(np.mean(np.sum((p1 - p2) ** 2, axis=1)))
    return loss, mean_cosine_similarity(p1, p2)


def train_encoder(manifest: CorpusManifest, cfg: EncoderConfig,
                  aug_cfg: augment.AugmentConfig,
                  feat_params: features.FeatureParams | None = None,
                  epochs: int = 30, lr: float = 1e-3, seed: int = 0,
                  batch_pairs: int = 8, val_fraction: float = 0.25,
                  target_rate: int | None = 16000) -> tuple[AcousticEncoder, list[dict]]:
    """Positive-pair contrastive training; deterministic for a fixed seed.

    Returns the trained model and a history with one row per epoch:
    train/val loss, train/val positive-pair cosine similarity, and the
    last train-batch embedding variance (collapse monitor).
    """
    if len(manifest.entries) < 2:
        raise PipelineError("encoder training needs at least 2 clips")
    clips = [manifest.load_clip(e, target_rate=target_rate) for e in manifest.entries]
    order = keyed_rng(seed, "split").permutation(len(clips))
    n_val = max(1, int(round(val_fraction * len(clips)))) if val_fraction > 0 else 0
    val_clips = [clips[i] for i in order[:n_val]]
    train_clips = [clips[i] for i in order[n_val:]]
    if not train_clips:
        raise PipelineError("validation split leaves no training clips")

    model = AcousticEncoder(cfg, seed)
    opt = Adam(model.params, lr)
    history = []
    warned = False
    for epoch in range(epochs):
        perm = keyed_rng(seed, "order", epoch).permutation(len(train_clips))
        losses = []
        cossims = []
        emb_var = np.nan
        for start in range(0, len(perm), batch_pairs):
            batch = [train_clips[i] for i in perm[start : start + batch_pairs]]
            views = [_augmented_view(c, aug_cfg, feat_params, cfg, seed, epoch, 0) for c in batch]
            views += [_augmented_view(c, aug_cfg, feat_params, cfg, seed, epoch, 1) for c in batch]
            x = Tensor(np.stack(views)[:, None, :, :])
            emb = model.forward(x, train=True)
            p1, p2 = split(emb, [len(batch), len(batch)], axis=0)
            loss = contrastive_loss(p1, p2)
            if cfg.uniformity_weight > 0.0:
                loss = add(loss, scale(_uniformity_penalty(emb), cfg.uniformity_weight))
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
            cossims.append(mean_cosine_similarity(p1.data, p2.data))
            emb_var = float(np.mean(np.var(emb.data, axis=0)))
        if emb_var < COLLAPSE_VARIANCE_FLOOR and not warned:
            log.warning("embedding batch variance %.3g below %.1g at epoch %d: "
                        "possible representation collapse", emb_var, COLLAPSE_VARIANCE_FLOOR, epoch)
            warned = True
        val_loss, val_cos = _pair_metrics(model, val_clips, aug_cfg,
                                          feat_params, seed, epoch, "val")
        history.append({
            "epoch": epoch + 1,
            "train_loss": float(np.mean(losses)),
            "val_loss": val_loss,
            "train_cossim": float(np.mean(cossims)),
            "val_cossim": val_cos,
            "emb_variance": emb_var,
        })
    return model, history


def _uniformity_penalty(emb: Tensor) -> Tensor:
    # -mean squared distance to the batch mean; pushes embeddings apart
    n = emb.data.shape[0]
    mean = matmul(Tensor(np.ones((1, n)) / n), emb)
    d = sub(emb, mean)
    return scale(ssum(mul(d, d)), -1.0 / n)


def save_encoder(model: AcousticEncoder, path: str,
                 feat_params: features.FeatureParams | None = None) -> None:
    meta = {"kind": "encoder", "config": asdict(model.cfg)}
    if feat_params is not None:
        meta["feature_params"] = asdict(feat_params)
    save_checkpoint(path, model.state_arrays(), meta)


def load_encoder(path: str) -> tuple[AcousticEncoder, dict]:
    arrays, meta = load_checkpoint(path)
    if meta.get("kind") != "encoder":
        raise PipelineError(f"{path}: not an encoder checkpoint")
    cfg = dataclass_from_dict(EncoderConfig, meta.get("config"), f"{path} config")
    model = AcousticEncoder(cfg, seed=0)
    model.load_state(arrays)
    return model, meta


def embed_corpus(model: AcousticEncoder, manifest: CorpusManifest,
                 feat_params: features.FeatureParams | None = None,
                 target_rate: int | None = 16000, jobs: int = 1) -> list[Embedding]:
    """Eval-mode embedding of every manifest entry, in manifest order."""

    def work(entry):
        clip = manifest.load_clip(entry, target_rate=target_rate)
        grid = features.mel_spectrogram(clip, feat_params)
        return prepare_input(grid, model.cfg.frames), clip.id, clip.label

    prepared = parallel_map(work, manifest.entries, jobs)
    out = []
    for start in range(0, len(prepared), 16):
        chunk = prepared[start : start + 16]
        vecs = model.embed([c[0] for c in chunk])
        out.extend(Embedding(vec=v, clip_id=c[1], label=c[2]) for v, c in zip(vecs, chunk))
    return out
