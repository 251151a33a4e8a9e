"""BiLSTM affective-state classifier over the 25-dim feature vector.

The BiLSTM walks the feature vector as a length-25 sequence of scalars.
Class imbalance is handled by weighted random sampling: `balanced_draws`
weighs each training row by total/count_i of its class i, so every class is
drawn equally often. A sampled batch repeats rows, and the BiLSTM has no noise
in it, so training runs it once per distinct drawn row and expands its
output to the batch before dropout. Inputs are z-scored with statistics
fitted on the training split and stored in the checkpoint.

The CAM computes in float32, as the encoder does: its parameters are the
float32 rounding of the seeded float64 draws, and `_steps` hands the
BiLSTM the rows z-scored in float64 and rounded to the parameters' dtype,
so the LSTM states and gates, the head, the gradients and the Adam moments
are float32. The z-score buffers stay float64, and so does the loss. A
checkpoint whose tensors are all float64 loads as is and runs in float64.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .audio_io import LABELS
from .features import N_FEATURES
from .nn import (Adam, Tensor, bilstm_final, init_lstm, load_model, no_grad, save_model,
                 seeded_init)
from .nn.ops import dropout, gather, linear, relu, softmax, softmax_crossentropy
from .util import PipelineError, keyed_rng

log = logging.getLogger(__name__)

LABEL_INDEX = {lab: i for i, lab in enumerate(LABELS)}


@dataclass
class CamConfig:
    hidden: int = 256
    fc_dim: int = 128
    dropout: float = 0.3
    lr: float = 0.005
    epochs: int = 350
    batch: int = 512
    val_fraction: float = 0.2

    def __post_init__(self):
        if not (0.0 <= self.dropout < 1.0):
            raise PipelineError("dropout must be in [0, 1)")
        if min(self.hidden, self.fc_dim) < 1:
            raise PipelineError("dims must be positive")
        for key in ("epochs", "batch"):
            if getattr(self, key) < 1:
                raise PipelineError(f"{key} must be >= 1")
        if self.lr < 0:
            raise PipelineError(f"lr must be >= 0, got {self.lr}")
        if not (0.0 < self.val_fraction < 1.0):
            raise PipelineError(f"val_fraction must be in (0, 1), got {self.val_fraction}")


class BiLstmClassifier:
    """A model under the `atscalm.nn.checkpoint` contract: ``params`` and
    ``buffers`` (the input z-score mean and std)."""

    def __init__(self, cfg: CamConfig, seed=0):
        self.cfg = cfg
        self.fwd = init_lstm(1, cfg.hidden, (seed, "fwd"))
        self.bwd = init_lstm(1, cfg.hidden, (seed, "bwd"))
        self.params: dict[str, Tensor] = {
            f"{d}.{k}": getattr(w, k)
            for d, w in (("fwd", self.fwd), ("bwd", self.bwd)) for k in ("wx", "wh", "b")}
        for name, (n_in, n_out) in (("fc1", (2 * cfg.hidden, cfg.fc_dim)),
                                    ("fc2", (cfg.fc_dim, len(LABELS)))):
            self.params[f"{name}.w"] = seeded_init((n_in, n_out), "kaiming-uniform",
                                                   (seed, name), fan_in=n_in)
            self.params[f"{name}.b"] = Tensor(np.zeros(n_out, np.float32), requires_grad=True)
        self.norm_mean, self.norm_std = Tensor(np.zeros(N_FEATURES)), Tensor(np.ones(N_FEATURES))
        self.buffers: dict[str, Tensor] = {"norm.mean": self.norm_mean, "norm.std": self.norm_std}

    def _steps(self, x: np.ndarray) -> np.ndarray:
        """The rows, z-scored in float64, as a (25, N, 1) sequence of scalar
        steps in the parameters' dtype."""
        if x.ndim != 2 or x.shape[1] != N_FEATURES:
            raise PipelineError(f"expected (N, {N_FEATURES}) features, got {x.shape}")
        z = (x - self.norm_mean.data) / self.norm_std.data
        return np.ascontiguousarray(z.T, dtype=self.fwd.wh.data.dtype)[:, :, None]

    def forward(self, x: np.ndarray, train: bool,
                rng: np.random.Generator | None = None,
                rows: np.ndarray | None = None) -> Tensor:
        """Logits for the rows of ``x``, or, given ``rows``, for ``x[rows]``:
        the BiLSTM then runs once per row of ``x`` and its output is
        gathered to ``rows`` before the head, so dropout draws one mask row
        per output row."""
        p = self.params
        h = bilstm_final(self._steps(x), self.fwd, self.bwd)
        if rows is not None:
            h = gather(h, rows)
        h = relu(linear(h, p["fc1.w"], p["fc1.b"]))
        h = dropout(h, self.cfg.dropout, train, rng)
        return linear(h, p["fc2.w"], p["fc2.b"])

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode class indices: the argmax of the softmax probabilities."""
        with no_grad():
            return np.argmax(softmax(self.forward(x, train=False).data), axis=1)


def balanced_draws(y: np.ndarray, n_draws: int, seed) -> np.ndarray:
    """``n_draws`` indices into the class indices ``y``, drawn with
    replacement; row r is drawn with probability proportional to
    y.size / count(y[r]), so every class present is drawn equally often."""
    w = y.size / np.bincount(y)[y]
    return keyed_rng("sampler", seed).choice(y.size, size=n_draws, replace=True, p=w / w.sum())


def eval_report_from_predictions(y_true: np.ndarray, y_pred: np.ndarray) -> dict:
    """The evaluation document: the confusion matrix (rows = true, columns =
    predicted, both in LABELS order), per-class metrics and overall accuracy."""
    k = len(LABELS)
    confusion = np.zeros((k, k), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        confusion[t, p] += 1
    n = confusion.sum()
    per_class = {}
    for i, lab in enumerate(LABELS):
        tp = confusion[i, i]
        fn = confusion[i].sum() - tp
        fp = confusion[:, i].sum() - tp
        tn = n - tp - fn - fp
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class[lab.value] = {
            "accuracy": float((tp + tn) / n) if n else 0.0,
            "precision": float(precision),
            "recall": float(recall),
            "f1": float(f1),
            "support": int(tp + fn),
        }
    overall = float(np.trace(confusion) / n) if n else 0.0
    return {
        "confusion": confusion.tolist(),
        "confusion_labels": [lab.value for lab in LABELS],
        "per_class": per_class,
        "overall_accuracy": overall,
    }


def _rows_to_arrays(rows) -> tuple[list[str], np.ndarray, np.ndarray]:
    ids = [r[0] for r in rows]
    labels = np.array([LABEL_INDEX[r[1]] for r in rows], dtype=np.int64)
    return ids, labels, np.stack([r[2] for r in rows])


def stratified_split(labels: np.ndarray, val_fraction: float, seed) -> tuple[np.ndarray, np.ndarray]:
    """(train_idx, test_idx); every class must land in both sides."""
    train, test = [], []
    for ci in range(len(LABELS)):
        idx = np.flatnonzero(labels == ci)
        if idx.size < 2:
            raise PipelineError(f"class {LABELS[ci].value} needs >= 2 examples, has {idx.size}")
        perm = keyed_rng("split", seed, ci).permutation(idx.size)
        n_test = max(1, int(round(val_fraction * idx.size)))
        if n_test >= idx.size:
            n_test = idx.size - 1
        test.extend(idx[perm[:n_test]])
        train.extend(idx[perm[n_test:]])
    return np.array(sorted(train)), np.array(sorted(test))


def train_cam(rows, cfg: CamConfig, seed: int) -> tuple[BiLstmClassifier, list[dict], dict]:
    """Train on a stratified split of feature rows (id, label, vec25).

    Each batch draws ``cfg.batch`` rows with replacement. The BiLSTM runs
    once per distinct drawn row, and its output is expanded to the batch's
    rows before dropout; duplicates would give it identical outputs, so
    this changes the gradients only by summation order.

    A non-finite batch loss raises PipelineError naming the epoch and batch.
    History rows: epoch, loss (mean over the epoch's batches), train-set
    accuracy; they hold no wall-clock value, so a fixed seed reproduces them
    exactly. Each epoch's elapsed time goes to the INFO log line instead.
    The split info lists the ``train_ids`` and ``test_ids``; `evaluate` on the
    ``test_ids`` rows gives the held-out report.
    """
    ids, labels, x = _rows_to_arrays(rows)
    train_idx, test_idx = stratified_split(labels, cfg.val_fraction, seed)
    x_train, y_train = x[train_idx], labels[train_idx]

    model = BiLstmClassifier(cfg, seed)
    model.norm_mean.data = x_train.mean(axis=0)
    model.norm_std.data = np.maximum(x_train.std(axis=0), 1e-8)

    opt = Adam(model.params, cfg.lr)
    n_batches = max(1, int(np.ceil(len(train_idx) / cfg.batch)))
    history = []
    for epoch in range(cfg.epochs):
        tic = time.perf_counter()
        draws = balanced_draws(y_train, n_batches * cfg.batch, (seed, epoch))
        losses = []
        for b in range(n_batches):
            sel = draws[b * cfg.batch : (b + 1) * cfg.batch]
            uniq, inv = np.unique(sel, return_inverse=True)
            rng = keyed_rng(seed, "dropout", epoch, b)
            loss = softmax_crossentropy(
                model.forward(x_train[uniq], train=True, rng=rng, rows=inv), y_train[sel])
            losses.append(loss.item())
            if not math.isfinite(losses[-1]):
                raise PipelineError(f"cam training diverged: loss {losses[-1]} at epoch "
                                    f"{epoch + 1}, batch {b + 1}")
            loss.backward()
            opt.step()
        acc = float(np.mean(model.predict(x_train) == y_train))
        history.append({
            "epoch": epoch + 1,
            "loss": float(np.mean(losses)),
            "acc": acc,
        })
        log.info("cam epoch %d/%d: loss %.6g, train acc %.4f (%.2f s)",
                 epoch + 1, cfg.epochs, history[-1]["loss"], acc, time.perf_counter() - tic)
    split_info = {
        "train_ids": [ids[i] for i in train_idx],
        "test_ids": [ids[i] for i in test_idx],
    }
    return model, history, split_info


def evaluate(model: BiLstmClassifier, rows) -> dict:
    """Eval-mode metrics over the given feature rows, as
    `eval_report_from_predictions`'s document."""
    _, labels, x = _rows_to_arrays(rows)
    return eval_report_from_predictions(labels, model.predict(x))


def save_cam(model: BiLstmClassifier, path: str, split_info: dict) -> None:
    save_model(model, path, "cam", split=split_info)


def load_cam(path: str) -> tuple[BiLstmClassifier, dict]:
    return load_model(path, "cam", CamConfig, BiLstmClassifier)
