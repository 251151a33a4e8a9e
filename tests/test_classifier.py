import logging

import numpy as np
import pytest

import lstm_oracle
from atscalm import classifier
from atscalm.audio_io import LABELS
from atscalm.classifier import (BiLstmClassifier, CamConfig, balanced_draws,
                                eval_report_from_predictions, evaluate, load_cam, save_cam,
                                stratified_split, train_cam)
from atscalm.nn import Adam, init_lstm, seeded_init
from atscalm.nn.init import no_init
from atscalm.nn.ops import softmax, softmax_crossentropy
from atscalm.util import PipelineError, keyed_rng
from memtrace import traced_peak


def cam_parameter_closed_form(cfg: CamConfig) -> int:
    """Two LSTM directions over scalar steps, then fc1 and fc2 with biases."""
    k = len(LABELS)
    heads = (2 * cfg.hidden * cfg.fc_dim + cfg.fc_dim) + (cfg.fc_dim * k + k)
    return 2 * lstm_oracle.lstm_param_count(1, cfg.hidden) + heads


def gaussian_rows(n_per_class=20, sigma=0.3, seed=0):
    rng = keyed_rng("rows", seed)
    centers = rng.normal(0, 3.0, (3, 25))
    rows = []
    for ci, lab in enumerate(LABELS):
        for i in range(n_per_class):
            rows.append((f"{lab.value}_{i}", lab.value,
                         centers[ci] + rng.normal(0, sigma, 25)))
    return rows


def heldout_report(model, rows, split_info) -> dict:
    """`evaluate` on the held-out rows, as `train-cam` builds its report."""
    test_ids = set(split_info["test_ids"])
    return evaluate(model, [r for r in rows if r[0] in test_ids])


def full_batch_reference(rows, cfg: CamConfig, seed: int):
    """`train_cam`'s loop with the BiLSTM run on every drawn row, repeats
    included: (history, held-out confusion)."""
    _, labels, x = classifier._rows_to_arrays(rows)
    train_idx, test_idx = stratified_split(labels, cfg.val_fraction, seed)
    x_train, y_train = x[train_idx], labels[train_idx]
    model = BiLstmClassifier(cfg, seed)
    model.norm_mean.data = x_train.mean(axis=0)
    model.norm_std.data = np.maximum(x_train.std(axis=0), 1e-8)
    opt = Adam(model.params, cfg.lr)
    n_batches = -(-len(train_idx) // cfg.batch)
    history = []
    for epoch in range(cfg.epochs):
        draws = balanced_draws(y_train, n_batches * cfg.batch, (seed, epoch))
        losses = []
        for b in range(n_batches):
            sel = draws[b * cfg.batch : (b + 1) * cfg.batch]
            logits = model.forward(x_train[sel], train=True,
                                   rng=keyed_rng(seed, "dropout", epoch, b))
            loss = softmax_crossentropy(logits, y_train[sel])
            loss.backward()
            opt.step()
            losses.append(loss.item())
        history.append({"loss": float(np.mean(losses)),
                        "acc": float(np.mean(model.predict(x_train) == y_train))})
    report = eval_report_from_predictions(labels[test_idx], model.predict(x[test_idx]))
    return history, report["confusion"]


DESK_CFG = CamConfig(hidden=16, fc_dim=8, batch=16, lr=0.02, epochs=12)

# The float32 CAM's epoch losses against a reference that sums in another
# order (the full-batch loop) or partly in float64 (the composed LSTM, whose
# zero state is float64) agree to this relative bound; acc and the held-out
# confusion agree exactly. The largest difference seen was 4.3e-8.
F32_LOSS_REL = 1e-6


def class_shares(counts, n_draws=100_000, seed=1):
    """Share of each class among `balanced_draws` over rows of the given
    per-class counts, in LABELS order."""
    y = np.repeat(np.arange(len(counts)), counts)
    return np.bincount(y[balanced_draws(y, n_draws, seed)], minlength=len(counts)) / n_draws


class TestClassWeights:
    """Rows weighed by total/count_i of their class draw every class equally often."""

    def test_paper_counts(self):
        assert np.allclose(class_shares([47, 47, 47]), 1 / 3, atol=0.01)

    def test_balanced(self):
        assert np.allclose(class_shares([10, 10, 10]), 1 / 3, atol=0.01)

    def test_imbalanced(self):
        assert np.allclose(class_shares([90, 9, 1]), 1 / 3, atol=0.01)


class TestWeightedSampler:
    def test_single_class(self):
        idx = balanced_draws(np.ones(7, dtype=np.int64), 100, 0)
        assert set(idx.tolist()) == set(range(7))

    def test_inverse_frequency_equalizes(self):
        assert 0.48 <= class_shares([90, 10])[1] <= 0.52

    def test_deterministic(self):
        y = np.repeat([0, 1, 2], [5, 3, 9])
        a = balanced_draws(y, 50, 9)
        b = balanced_draws(y, 50, 9)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, balanced_draws(y, 50, 10))


class TestModel:
    def test_output_is_distribution(self):
        model = BiLstmClassifier(CamConfig(hidden=8, fc_dim=4), seed=1)
        x = keyed_rng("m", 0).normal(0, 1, (6, 25))
        p = softmax(model.forward(x, train=False).data)
        assert p.shape == (6, 3)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-9
        assert np.array_equal(model.predict(x), np.argmax(p, axis=1))

    def test_eval_deterministic(self):
        model = BiLstmClassifier(CamConfig(hidden=8, fc_dim=4), seed=1)
        x = keyed_rng("m", 1).normal(0, 1, (4, 25))
        assert np.array_equal(model.forward(x, train=False).data,
                              model.forward(x, train=False).data)

    def test_param_count_sequence(self):
        cfg = CamConfig()
        model = BiLstmClassifier(cfg)
        want = 4 * ((1 + 256 + 1) * 256) * 2 + (512 * 128 + 128) + (128 * 3 + 3)
        count = sum(p.data.size for p in model.params.values())
        assert count == want == cam_parameter_closed_form(cfg)

    def test_params_are_float32_roundings_of_the_draws(self):
        cfg = CamConfig(hidden=8, fc_dim=4)
        model = BiLstmClassifier(cfg, seed=3)
        draws = {f"{d}.{k}": getattr(init_lstm(1, 8, (3, d)), k).data
                 for d in ("fwd", "bwd") for k in ("wx", "wh", "b")}
        for name, shape in (("fc1", (16, 4)), ("fc2", (4, 3))):
            draws[f"{name}.w"] = seeded_init(shape, "kaiming-uniform", (3, name),
                                             fan_in=shape[0]).data
            draws[f"{name}.b"] = np.zeros(shape[1])
        assert list(model.params) == list(draws)
        for name, p in model.params.items():
            assert p.data.dtype == np.float32
            assert np.array_equal(p.data, draws[name].astype(np.float32)), name
        assert all(b.data.dtype == np.float64 for b in model.buffers.values())

    def test_no_init_weights_stay_zero_byte(self):
        with no_init():
            model = BiLstmClassifier(CamConfig(), seed=0)
        for name in ("fwd.wx", "fwd.wh", "bwd.wx", "bwd.wh", "fc1.w", "fc2.w"):
            data = model.params[name].data
            assert data.dtype == np.float32 and not any(data.strides), name

    def test_logit_shift_invariance(self):
        from atscalm.nn.ops import softmax

        logits = keyed_rng("m", 2).normal(0, 1, (5, 3))
        assert np.allclose(softmax(logits), softmax(logits + 11.0))


class TestSplit:
    def test_stratified_covers_all_classes(self):
        labels = np.array([0] * 10 + [1] * 10 + [2] * 10)
        train, test = stratified_split(labels, 0.2, 0)
        assert set(labels[train]) == {0, 1, 2}
        assert set(labels[test]) == {0, 1, 2}
        assert len(train) + len(test) == 30

    def test_small_class_rejected(self):
        labels = np.array([0, 0, 1, 1, 2])
        with pytest.raises(PipelineError):
            stratified_split(labels, 0.2, 0)


class TestTraining:
    def test_separable_gaussians_reach_095(self):
        rows = gaussian_rows(20, sigma=0.3, seed=1)
        cfg = CamConfig(hidden=24, fc_dim=12, batch=24, lr=0.02, epochs=40)
        model, _, split_info = train_cam(rows, cfg, seed=5)
        assert heldout_report(model, rows, split_info)["overall_accuracy"] >= 0.95

    def test_loss_decreases_first_5_epochs(self):
        rows = gaussian_rows(20, sigma=0.3, seed=2)
        _, history, _ = train_cam(rows, DESK_CFG, seed=3)
        losses = [h["loss"] for h in history[:5]]
        assert all(losses[i + 1] < losses[i] for i in range(4))

    def test_lr_zero_accuracy_static(self):
        rows = gaussian_rows(10, seed=3)
        cfg = CamConfig(hidden=8, fc_dim=4, batch=16, lr=0.0, epochs=3)
        model, history, _ = train_cam(rows, cfg, seed=7)
        accs = [h["acc"] for h in history]
        assert max(accs) - min(accs) <= 0.02
        fresh = BiLstmClassifier(cfg, seed=7)
        for name, p in fresh.params.items():
            assert np.array_equal(model.params[name].data, p.data)

    def test_same_seed_identical_history(self):
        rows = gaussian_rows(8, seed=4)
        cfg = CamConfig(hidden=8, fc_dim=4, batch=16, lr=0.01, epochs=3)
        m1, h1, s1 = train_cam(rows, cfg, seed=11)
        m2, h2, s2 = train_cam(rows, cfg, seed=11)
        assert [(h["epoch"], h["loss"], h["acc"]) for h in h1] == \
               [(h["epoch"], h["loss"], h["acc"]) for h in h2]
        assert np.array_equal(heldout_report(m1, rows, s1)["confusion"],
                              heldout_report(m2, rows, s2)["confusion"])

    def test_history_matches_composed_lstm(self, monkeypatch):
        rows = gaussian_rows(10, seed=6)
        cfg = CamConfig(hidden=8, fc_dim=4, batch=16, lr=0.02, epochs=6)
        fused_model, fused, split_info = train_cam(rows, cfg, seed=2)
        fused_report = heldout_report(fused_model, rows, split_info)
        monkeypatch.setattr(classifier, "bilstm_final", lstm_oracle.bilstm_final)
        composed_model, composed, split_info = train_cam(rows, cfg, seed=2)
        composed_report = heldout_report(composed_model, rows, split_info)
        for a, b in zip(fused, composed):
            assert a["loss"] == pytest.approx(b["loss"], rel=F32_LOSS_REL, abs=0)
            assert a["acc"] == b["acc"]
        assert np.array_equal(fused_report["confusion"], composed_report["confusion"])

    @pytest.mark.parametrize("batch", [16, 64])
    def test_matches_full_batch_reference(self, batch):
        rows = gaussian_rows(10, sigma=1.0, seed=8)
        cfg = CamConfig(hidden=8, fc_dim=4, batch=batch, lr=0.02, epochs=8)
        model, history, split_info = train_cam(rows, cfg, seed=4)
        report = heldout_report(model, rows, split_info)
        ref_history, ref_confusion = full_batch_reference(rows, cfg, seed=4)
        for a, b in zip(history, ref_history, strict=True):
            assert a["loss"] == pytest.approx(b["loss"], rel=F32_LOSS_REL, abs=0)
            assert a["acc"] == b["acc"]
        assert np.array_equal(report["confusion"], ref_confusion)

    def test_default_epoch_runs_the_lstm_per_distinct_row(self):
        # 9 training rows, 512 draws: the BiLSTM's gates and states for the
        # whole batch alone would be about 300 MB.
        rows = gaussian_rows(4, seed=9)
        _, peak, _ = traced_peak(lambda: train_cam(rows, CamConfig(epochs=1), seed=0))
        assert peak <= 64e6

    def test_logs_one_line_per_epoch(self, caplog):
        cfg = CamConfig(hidden=4, fc_dim=4, batch=16, epochs=3)
        with caplog.at_level(logging.INFO, logger="atscalm.classifier"):
            _, history, _ = train_cam(gaussian_rows(6, seed=7), cfg, seed=1)
        lines = [r.getMessage() for r in caplog.records if r.name == "atscalm.classifier"]
        assert len(lines) == 3
        assert lines[-1].startswith("cam epoch 3/3:")
        assert f"{history[-1]['loss']:.6g}" in lines[-1]

    def test_checkpoint_roundtrip(self, tmp_path):
        rows = gaussian_rows(8, seed=5)
        cfg = CamConfig(hidden=8, fc_dim=4, batch=16, lr=0.01, epochs=2)
        model, _, split_info = train_cam(rows, cfg, seed=1)
        path = str(tmp_path / "cam.ckpt")
        save_cam(model, path, split_info)
        back, meta = load_cam(path)
        x = np.stack([r[2] for r in rows])
        assert np.array_equal(model.forward(x, train=False).data,
                              back.forward(x, train=False).data)
        assert meta["split"]["test_ids"] == split_info["test_ids"]


class TestEvalReport:
    def test_perfect_predictions(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        rep = eval_report_from_predictions(y, y.copy())
        assert rep["overall_accuracy"] == 1.0
        assert np.array_equal(np.diag(rep["confusion"]), [2, 2, 2])
        for stats in rep["per_class"].values():
            assert stats["precision"] == stats["recall"] == stats["f1"] == 1.0

    def test_all_one_class(self):
        y_true = np.array([0, 1, 2] * 4)
        y_pred = np.zeros(12, dtype=int)
        rep = eval_report_from_predictions(y_true, y_pred)
        first = rep["per_class"][LABELS[0].value]
        assert first["recall"] == 1.0
        assert first["precision"] == pytest.approx(1 / 3)
        assert rep["per_class"][LABELS[1].value]["recall"] == 0.0

    def test_hand_confusion(self):
        # confusion [[2,1,0],[0,3,0],[1,0,2]]
        y_true = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        y_pred = np.array([0, 0, 1, 1, 1, 1, 0, 2, 2])
        rep = eval_report_from_predictions(y_true, y_pred)
        assert np.array_equal(rep["confusion"], [[2, 1, 0], [0, 3, 0], [1, 0, 2]])
        c0 = rep["per_class"][LABELS[0].value]
        assert c0["precision"] == pytest.approx(2 / 3)
        assert c0["recall"] == pytest.approx(2 / 3)

    def test_dimension_mismatch(self):
        model = BiLstmClassifier(CamConfig(hidden=8, fc_dim=4))
        with pytest.raises(PipelineError):
            evaluate(model, [("x", "Music", np.zeros(10))])
