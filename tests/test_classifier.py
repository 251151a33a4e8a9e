import logging

import numpy as np
import pytest

import lstm_oracle
from atscalm import classifier
from atscalm.audio_io import LABELS, ClassLabel
from atscalm.classifier import (BiLstmClassifier, CamConfig,
                                cam_parameter_closed_form, class_weights,
                                count_cam_parameters, eval_report_from_predictions,
                                evaluate, load_cam, save_cam, stratified_split,
                                train_cam, weighted_sampler)
from atscalm.util import PipelineError, keyed_rng

SM, M, NS = LABELS


def gaussian_rows(n_per_class=20, sigma=0.3, seed=0):
    rng = keyed_rng("rows", seed)
    centers = rng.normal(0, 3.0, (3, 25))
    rows = []
    for ci, lab in enumerate(LABELS):
        for i in range(n_per_class):
            rows.append((f"{lab.value}_{i}", lab.value,
                         centers[ci] + rng.normal(0, sigma, 25)))
    return rows


DESK_CFG = CamConfig(hidden=16, fc_dim=8, batch=16, lr=0.02, epochs=12, seed=3)


class TestClassWeights:
    def test_paper_counts(self):
        w = class_weights({SM: 47, M: 47, NS: 47})
        assert all(v == pytest.approx(3.0) for v in w.values())

    def test_balanced(self):
        w = class_weights({SM: 10, M: 10, NS: 10})
        assert all(v == pytest.approx(3.0) for v in w.values())

    def test_imbalanced(self):
        w = class_weights({SM: 90, M: 9, NS: 1})
        assert w[SM] == pytest.approx(100 / 90)
        assert w[M] == pytest.approx(100 / 9)
        assert w[NS] == pytest.approx(100.0)

    def test_empty_class_rejected(self):
        with pytest.raises(PipelineError):
            class_weights({SM: 5, M: 0, NS: 5})


class TestWeightedSampler:
    def test_single_class(self):
        idx = weighted_sampler([M] * 7, {M: 1.0}, 100, 0)
        assert set(idx.tolist()) <= set(range(7))

    def test_inverse_frequency_equalizes(self):
        labels = [SM] * 90 + [M] * 10
        weights = class_weights({SM: 90, M: 10, NS: 1})
        weights = {SM: 100 / 90, M: 100 / 10}
        idx = weighted_sampler(labels, weights, 100_000, 1)
        frac_m = np.mean([labels[i] is M for i in idx])
        assert 0.48 <= frac_m <= 0.52

    def test_deterministic(self):
        labels = [SM] * 5 + [M] * 5 + [NS] * 5
        w = {SM: 1.0, M: 2.0, NS: 3.0}
        a = weighted_sampler(labels, w, 50, 9)
        b = weighted_sampler(labels, w, 50, 9)
        assert np.array_equal(a, b)


class TestModel:
    def test_output_is_distribution(self):
        model = BiLstmClassifier(CamConfig(hidden=8, fc_dim=4, seed=1))
        x = keyed_rng("m", 0).normal(0, 1, (6, 25))
        p = model.predict_proba(x)
        assert p.shape == (6, 3)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-9

    def test_eval_deterministic(self):
        model = BiLstmClassifier(CamConfig(hidden=8, fc_dim=4, seed=1))
        x = keyed_rng("m", 1).normal(0, 1, (4, 25))
        assert np.array_equal(model.predict_proba(x), model.predict_proba(x))

    def test_param_count_single_step(self):
        cfg = CamConfig(mode="single-step")
        model = BiLstmClassifier(cfg)
        want = 4 * ((25 + 256 + 1) * 256) * 2 + (512 * 128 + 128) + (128 * 3 + 3)
        assert count_cam_parameters(model) == want == 643_587

    def test_param_count_sequence(self):
        cfg = CamConfig(mode="sequence")
        model = BiLstmClassifier(cfg)
        want = 4 * ((1 + 256 + 1) * 256) * 2 + (512 * 128 + 128) + (128 * 3 + 3)
        assert count_cam_parameters(model) == want == cam_parameter_closed_form(cfg)

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
        cfg = CamConfig(hidden=24, fc_dim=12, batch=24, lr=0.02, epochs=40, seed=5)
        _, history, report, _ = train_cam(rows, cfg)
        assert report.overall_accuracy >= 0.95

    def test_loss_decreases_first_5_epochs(self):
        rows = gaussian_rows(20, sigma=0.3, seed=2)
        _, history, _, _ = train_cam(rows, DESK_CFG)
        losses = [h["loss"] for h in history[:5]]
        assert all(losses[i + 1] < losses[i] for i in range(4))

    def test_lr_zero_accuracy_static(self):
        rows = gaussian_rows(10, seed=3)
        cfg = CamConfig(hidden=8, fc_dim=4, batch=16, lr=0.0, epochs=3, seed=7)
        model, history, _, _ = train_cam(rows, cfg)
        accs = [h["acc"] for h in history]
        assert max(accs) - min(accs) <= 0.02
        fresh = BiLstmClassifier(cfg)
        for name, p in fresh.parameters().items():
            assert np.array_equal(model.parameters()[name].data, p.data)

    def test_same_seed_identical_history(self):
        rows = gaussian_rows(8, seed=4)
        cfg = CamConfig(hidden=8, fc_dim=4, batch=16, lr=0.01, epochs=3, seed=11)
        _, h1, r1, _ = train_cam(rows, cfg)
        _, h2, r2, _ = train_cam(rows, cfg)
        assert [(h["epoch"], h["loss"], h["acc"]) for h in h1] == \
               [(h["epoch"], h["loss"], h["acc"]) for h in h2]
        assert np.array_equal(r1.confusion, r2.confusion)

    @pytest.mark.parametrize("mode", ["sequence", "single-step"])
    def test_history_matches_composed_lstm(self, monkeypatch, mode):
        rows = gaussian_rows(10, seed=6)
        cfg = CamConfig(hidden=8, fc_dim=4, batch=16, lr=0.02, epochs=6, seed=2, mode=mode)
        _, fused, fused_report, _ = train_cam(rows, cfg)
        monkeypatch.setattr(classifier, "bilstm_final", lstm_oracle.bilstm_final)
        _, composed, composed_report, _ = train_cam(rows, cfg)
        for a, b in zip(fused, composed):
            assert a["loss"] == pytest.approx(b["loss"], rel=1e-9, abs=0)
            assert a["acc"] == b["acc"]
        assert np.array_equal(fused_report.confusion, composed_report.confusion)

    def test_logs_one_line_per_epoch(self, caplog):
        cfg = CamConfig(hidden=4, fc_dim=4, batch=16, epochs=3, seed=1)
        with caplog.at_level(logging.INFO, logger="atscalm.classifier"):
            _, history, _, _ = train_cam(gaussian_rows(6, seed=7), cfg)
        lines = [r.getMessage() for r in caplog.records if r.name == "atscalm.classifier"]
        assert len(lines) == 3
        assert lines[-1].startswith("cam epoch 3/3:")
        assert f"{history[-1]['loss']:.6g}" in lines[-1]

    def test_checkpoint_roundtrip(self, tmp_path):
        rows = gaussian_rows(8, seed=5)
        cfg = CamConfig(hidden=8, fc_dim=4, batch=16, lr=0.01, epochs=2, seed=1)
        model, _, _, split_info = train_cam(rows, cfg)
        path = str(tmp_path / "cam.ckpt")
        save_cam(model, path, split_info)
        back, meta = load_cam(path)
        x = np.stack([r[2] for r in rows])
        assert np.array_equal(model.predict_proba(x), back.predict_proba(x))
        assert meta["split"]["test_ids"] == split_info["test_ids"]


class TestEvalReport:
    def test_perfect_predictions(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        rep = eval_report_from_predictions(y, y.copy())
        assert rep.overall_accuracy == 1.0
        assert np.array_equal(np.diag(rep.confusion), [2, 2, 2])
        for stats in rep.per_class.values():
            assert stats["precision"] == stats["recall"] == stats["f1"] == 1.0

    def test_all_one_class(self):
        y_true = np.array([0, 1, 2] * 4)
        y_pred = np.zeros(12, dtype=int)
        rep = eval_report_from_predictions(y_true, y_pred)
        first = rep.per_class[LABELS[0].value]
        assert first["recall"] == 1.0
        assert first["precision"] == pytest.approx(1 / 3)
        assert rep.per_class[LABELS[1].value]["recall"] == 0.0

    def test_hand_confusion(self):
        # confusion [[2,1,0],[0,3,0],[1,0,2]]
        y_true = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        y_pred = np.array([0, 0, 1, 1, 1, 1, 0, 2, 2])
        rep = eval_report_from_predictions(y_true, y_pred)
        assert np.array_equal(rep.confusion, [[2, 1, 0], [0, 3, 0], [1, 0, 2]])
        c0 = rep.per_class[LABELS[0].value]
        assert c0["precision"] == pytest.approx(2 / 3)
        assert c0["recall"] == pytest.approx(2 / 3)

    def test_dimension_mismatch(self):
        model = BiLstmClassifier(CamConfig(hidden=8, fc_dim=4))
        with pytest.raises(PipelineError):
            evaluate(model, [("x", "Music", np.zeros(10))])
