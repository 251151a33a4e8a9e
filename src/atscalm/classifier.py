"""BiLSTM affective-state classifier over the 25-dim feature vector.

The default "sequence" mode walks the feature vector as a length-25
sequence of scalars; "single-step" feeds the whole vector as one step.
Class imbalance is handled by weighted random sampling with weights
total/count_i. Inputs are z-scored with statistics fitted on the training
split and stored in the checkpoint.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass

import numpy as np

from .audio_io import LABELS, ClassLabel, parse_label
from .features import N_FEATURES
from .nn import (Adam, LstmWeights, Tensor, bilstm_final, init_lstm,
                 load_checkpoint, lstm_param_count, no_grad, save_checkpoint, seeded_init)
from .nn.ops import dropout, linear, relu, softmax, softmax_crossentropy
from .util import PipelineError, dataclass_from_dict, keyed_rng

log = logging.getLogger(__name__)

LABEL_INDEX = {lab: i for i, lab in enumerate(LABELS)}


@dataclass
class CamConfig:
    input_dim: int = N_FEATURES
    hidden: int = 256
    fc_dim: int = 128
    dropout: float = 0.3
    n_classes: int = 3
    lr: float = 0.005
    epochs: int = 350
    batch: int = 512
    seed: int = 0
    mode: str = "sequence"        # "sequence" | "single-step"
    val_fraction: float = 0.2

    def __post_init__(self):
        if not (0.0 <= self.dropout < 1.0):
            raise PipelineError("dropout must be in [0, 1)")
        if min(self.input_dim, self.hidden, self.fc_dim, self.n_classes) < 1:
            raise PipelineError("dims must be positive")
        if self.mode not in ("sequence", "single-step"):
            raise PipelineError(f"unknown mode {self.mode!r}")


class BiLstmClassifier:
    def __init__(self, cfg: CamConfig):
        self.cfg = cfg
        seed = cfg.seed
        step_dim = 1 if cfg.mode == "sequence" else cfg.input_dim
        self.fwd = init_lstm(step_dim, cfg.hidden, (seed, "fwd"))
        self.bwd = init_lstm(step_dim, cfg.hidden, (seed, "bwd"))
        self.fc1_w = seeded_init((2 * cfg.hidden, cfg.fc_dim), "kaiming-uniform",
                                 (seed, "fc1"), fan_in=2 * cfg.hidden)
        self.fc1_b = Tensor(np.zeros(cfg.fc_dim), requires_grad=True)
        self.fc2_w = seeded_init((cfg.fc_dim, cfg.n_classes), "kaiming-uniform",
                                 (seed, "fc2"), fan_in=cfg.fc_dim)
        self.fc2_b = Tensor(np.zeros(cfg.n_classes), requires_grad=True)
        self.norm_mean = np.zeros(cfg.input_dim)
        self.norm_std = np.ones(cfg.input_dim)

    def parameters(self) -> dict[str, Tensor]:
        return {
            "fwd.wx": self.fwd.wx, "fwd.wh": self.fwd.wh, "fwd.b": self.fwd.b,
            "bwd.wx": self.bwd.wx, "bwd.wh": self.bwd.wh, "bwd.b": self.bwd.b,
            "fc1.w": self.fc1_w, "fc1.b": self.fc1_b,
            "fc2.w": self.fc2_w, "fc2.b": self.fc2_b,
        }

    def _steps(self, x: np.ndarray) -> list[Tensor]:
        if x.ndim != 2 or x.shape[1] != self.cfg.input_dim:
            raise PipelineError(f"expected (N, {self.cfg.input_dim}) features, got {x.shape}")
        z = (x - self.norm_mean) / self.norm_std
        if self.cfg.mode == "sequence":
            return [Tensor(z[:, t : t + 1]) for t in range(self.cfg.input_dim)]
        return [Tensor(z)]

    def forward(self, x: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        h = bilstm_final(self._steps(x), self.fwd, self.bwd)
        h = relu(linear(h, self.fc1_w, self.fc1_b))
        h = dropout(h, self.cfg.dropout, train, rng)
        return linear(h, self.fc2_w, self.fc2_b)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        with no_grad():
            return softmax(self.forward(x, train=False).data)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(x), axis=1)

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {name: p.data for name, p in self.parameters().items()}
        out["norm.mean"] = self.norm_mean
        out["norm.std"] = self.norm_std
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        for name, current in self.state_arrays().items():
            if name not in arrays or arrays[name].shape != current.shape:
                raise PipelineError(f"checkpoint tensor {name} missing or wrong shape")
        for name, p in self.parameters().items():
            p.data = arrays[name].copy()
        self.norm_mean = arrays["norm.mean"].copy()
        self.norm_std = arrays["norm.std"].copy()


def count_cam_parameters(model: BiLstmClassifier) -> int:
    return int(sum(p.data.size for p in model.parameters().values()))


def cam_parameter_closed_form(cfg: CamConfig) -> int:
    step_dim = 1 if cfg.mode == "sequence" else cfg.input_dim
    heads = (2 * cfg.hidden * cfg.fc_dim + cfg.fc_dim) + (cfg.fc_dim * cfg.n_classes + cfg.n_classes)
    return 2 * lstm_param_count(step_dim, cfg.hidden) + heads


def class_weights(counts: dict[ClassLabel, int]) -> dict[ClassLabel, float]:
    """weight_i = total / count_i."""
    if any(c < 1 for c in counts.values()):
        raise PipelineError(f"every class needs at least one sample, got {counts}")
    total = sum(counts.values())
    return {lab: total / c for lab, c in counts.items()}


def weighted_sampler(labels: list[ClassLabel], weights: dict[ClassLabel, float],
                     n_draws: int, seed) -> np.ndarray:
    """Indices drawn with replacement, probability proportional to the
    sample's class weight."""
    if n_draws < 1:
        raise PipelineError("n_draws must be >= 1")
    w = np.array([weights[lab] for lab in labels], dtype=np.float64)
    p = w / w.sum()
    return keyed_rng("sampler", seed).choice(len(labels), size=n_draws, replace=True, p=p)


@dataclass
class EvalReport:
    confusion: np.ndarray                 # rows = true, cols = predicted
    per_class: dict[str, dict[str, float]]
    overall_accuracy: float

    def to_dict(self) -> dict:
        return {
            "confusion": self.confusion.astype(int).tolist(),
            "confusion_labels": [lab.value for lab in LABELS],
            "per_class": self.per_class,
            "overall_accuracy": self.overall_accuracy,
        }


def eval_report_from_predictions(y_true: np.ndarray, y_pred: np.ndarray) -> EvalReport:
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
    return EvalReport(confusion=confusion, per_class=per_class, overall_accuracy=overall)


def _rows_to_arrays(rows) -> tuple[list[str], np.ndarray, np.ndarray]:
    ids = [r[0] for r in rows]
    labels = np.array([LABEL_INDEX[parse_label(r[1])] for r in rows], dtype=np.int64)
    x = np.stack([r[2] for r in rows])
    if x.shape[1] != N_FEATURES:
        raise PipelineError(f"feature dimension {x.shape[1]} != {N_FEATURES}")
    return ids, labels, x


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


def train_cam(rows, cfg: CamConfig) -> tuple[BiLstmClassifier, list[dict], EvalReport, dict]:
    """Train on a stratified split of feature rows (id, label, vec25).

    History rows: epoch, loss (mean over the epoch's batches), train-set
    accuracy; they hold no wall-clock value, so a fixed seed reproduces them
    exactly. Each epoch's elapsed time goes to the INFO log line instead.
    The returned report is on the held-out split.
    """
    ids, labels, x = _rows_to_arrays(rows)
    train_idx, test_idx = stratified_split(labels, cfg.val_fraction, cfg.seed)
    x_train, y_train = x[train_idx], labels[train_idx]
    x_test, y_test = x[test_idx], labels[test_idx]
    if len(set(y_train.tolist())) < len(LABELS):
        raise PipelineError("a class is absent from the training split")

    model = BiLstmClassifier(cfg)
    model.norm_mean = x_train.mean(axis=0)
    model.norm_std = np.maximum(x_train.std(axis=0), 1e-8)

    counts = {LABELS[i]: int(np.sum(y_train == i)) for i in range(len(LABELS))}
    weights = class_weights(counts)
    train_labels = [LABELS[i] for i in y_train]
    opt = Adam(model.parameters(), cfg.lr)
    n_batches = max(1, int(np.ceil(len(train_idx) / cfg.batch)))
    history = []
    for epoch in range(cfg.epochs):
        tic = time.perf_counter()
        draws = weighted_sampler(train_labels, weights, n_batches * cfg.batch,
                                 (cfg.seed, epoch))
        losses = []
        for b in range(n_batches):
            sel = draws[b * cfg.batch : (b + 1) * cfg.batch]
            rng = keyed_rng(cfg.seed, "dropout", epoch, b)
            loss, _ = softmax_crossentropy(
                model.forward(x_train[sel], train=True, rng=rng), y_train[sel])
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        acc = float(np.mean(model.predict(x_train) == y_train))
        history.append({
            "epoch": epoch + 1,
            "loss": float(np.mean(losses)),
            "acc": acc,
        })
        log.info("cam epoch %d/%d: loss %.6g, train acc %.4f (%.2f s)",
                 epoch + 1, cfg.epochs, history[-1]["loss"], acc, time.perf_counter() - tic)
    report = eval_report_from_predictions(y_test, model.predict(x_test))
    split_info = {
        "train_ids": [ids[i] for i in train_idx],
        "test_ids": [ids[i] for i in test_idx],
    }
    return model, history, report, split_info


def evaluate(model: BiLstmClassifier, rows) -> EvalReport:
    """Eval-mode metrics over the given feature rows."""
    _, labels, x = _rows_to_arrays(rows)
    return eval_report_from_predictions(labels, model.predict(x))


def save_cam(model: BiLstmClassifier, path: str, split_info: dict | None = None) -> None:
    meta = {"kind": "cam", "config": asdict(model.cfg)}
    if split_info is not None:
        meta["split"] = split_info
    save_checkpoint(path, model.state_arrays(), meta)


def load_cam(path: str) -> tuple[BiLstmClassifier, dict]:
    arrays, meta = load_checkpoint(path)
    if meta.get("kind") != "cam":
        raise PipelineError(f"{path}: not a classifier checkpoint")
    cfg = dataclass_from_dict(CamConfig, meta.get("config"), f"{path} config")
    model = BiLstmClassifier(cfg)
    model.load_state(arrays)
    return model, meta
