import json
import os

import numpy as np
import pytest

from atscalm.cli import main
from atscalm.features import read_features_csv
from atscalm.util import read_json


def run(args):
    return main(args)


class TestSynthValidate:
    def test_pipeline_smoke(self, tmp_path):
        out = str(tmp_path / "out")
        assert run(["--out", out, "--seed", "7", "synth", "--n", "2", "--duration", "1.0"]) == 0
        manifest = os.path.join(out, "corpus", "manifest.json")
        assert os.path.exists(manifest)
        assert run(["--out", out, "--seed", "7", "validate", manifest]) == 0
        report = read_json(os.path.join(out, "validation.json"))
        assert set(report["per_class"]) == {"SpiritualMeditation", "Music", "NormalSilence"}
        for agg in report["per_class"].values():
            assert "rmse_mean" in agg

    def test_validate_plots(self, tmp_path):
        out = str(tmp_path / "out")
        run(["--out", out, "--seed", "1", "synth", "--n", "1", "--duration", "1.0"])
        manifest = os.path.join(out, "corpus", "manifest.json")
        assert run(["--out", out, "validate", manifest, "--plot"]) == 0
        svgs = [f for f in os.listdir(out) if f.endswith(".svg")]
        assert len(svgs) == 6  # 3 classes x (wave + spectrum)


class TestFeatures:
    def test_shape(self, tmp_path):
        out = str(tmp_path / "out")
        run(["--out", out, "--seed", "3", "synth", "--n", "1", "--duration", "1.0"])
        manifest = os.path.join(out, "corpus", "manifest.json")
        assert run(["--out", out, "features", manifest]) == 0
        rows = read_features_csv(os.path.join(out, "features.csv"))
        assert len(rows) == 3
        assert all(r[2].shape == (25,) for r in rows)
        with open(os.path.join(out, "features.csv")) as fh:
            header = fh.readline().strip().split(",")
        assert len(header) == 27

    def test_missing_corpus_is_domain_error(self, tmp_path):
        out = str(tmp_path / "out")
        assert run(["--out", out, "features", str(tmp_path / "nope.json")]) == 1


def _tree_bytes(root):
    """{relative path: file bytes} for every file under root."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


class TestAugment:
    def test_rerun_byte_identical(self, tmp_path):
        trees = []
        for run_dir in ("a", "b"):
            out = str(tmp_path / run_dir)
            assert run(["--out", out, "--seed", "4", "synth", "--n", "1", "--duration", "1.0"]) == 0
            manifest = os.path.join(out, "corpus", "manifest.json")
            assert run(["--out", out, "--seed", "4", "augment", manifest]) == 0
            trees.append(_tree_bytes(os.path.join(out, "augmented")))
        assert len(trees[0]) == 3 * 5 + 1
        assert "manifest.json" in trees[0]
        assert trees[0] == trees[1]


class TestBadInput:
    def test_partial_frame_wav_validate_exits_1(self, tmp_path, caplog, capsys):
        out = str(tmp_path / "out")
        run(["--out", out, "--seed", "1", "synth", "--n", "1", "--duration", "1.0"])
        corpus = os.path.join(out, "corpus")
        bad = os.path.join(corpus, "Music", "clip_000.wav")
        with open(bad, "rb") as fh:
            blob = bytearray(fh.read())
        # one stray byte in the data chunk: RIFF and data sizes both grow by 1
        blob += b"\x00"
        blob[4:8] = (int.from_bytes(blob[4:8], "little") + 1).to_bytes(4, "little")
        blob[40:44] = (int.from_bytes(blob[40:44], "little") + 1).to_bytes(4, "little")
        with open(bad, "wb") as fh:
            fh.write(blob)
        assert run(["--out", out, "validate", corpus]) == 1
        assert "clip_000.wav" in caplog.text and "not a whole number" in caplog.text
        assert "Traceback" not in capsys.readouterr().err


class TestTrainCam:
    def test_history_rerun_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"cam": {"hidden": 8, "fc_dim": 4, "batch": 16}}')
        base = ["--config", str(cfg), "--seed", "6"]
        hist = []
        for run_dir in ("a", "b"):
            out = str(tmp_path / run_dir)
            assert run(base + ["--out", out, "synth", "--n", "2", "--duration", "1.0"]) == 0
            assert run(base + ["--out", out, "features",
                               os.path.join(out, "corpus", "manifest.json")]) == 0
            assert run(base + ["--out", out, "train-cam", os.path.join(out, "features.csv"),
                               "--epochs", "2"]) == 0
            with open(os.path.join(out, "cam_history.csv"), "rb") as fh:
                hist.append(fh.read())
        assert hist[0].splitlines()[0] == b"epoch,loss,acc"
        assert len(hist[0].splitlines()) == 3
        assert hist[0] == hist[1]


class TestReport:
    def test_print_default_config(self, capsys):
        assert run(["report", "--print-default-config"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cam"]["hidden"] == 256
        assert data["cam"]["lr"] == 0.005
        assert data["encoder"]["widths"] == [64, 128, 256, 512]
        assert data["augment"]["variants_per_clip"] == 5

    def test_plot_history(self, tmp_path):
        out = str(tmp_path / "out")
        os.makedirs(out)
        hist = os.path.join(out, "h.csv")
        with open(hist, "w") as fh:
            fh.write("epoch,loss,acc\n1,0.5,0.4\n2,0.3,0.9\n")
        assert run(["--out", out, "report", "--plot-history", hist]) == 0
        assert os.path.exists(os.path.join(out, "h.svg"))

    def test_no_action_is_usage_error(self, tmp_path):
        assert run(["--out", str(tmp_path), "report"]) == 2


class TestConfigHandling:
    def test_unknown_key_named_and_usage_exit(self, tmp_path, caplog):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"cam": {"hiddden": 8}}')
        out = str(tmp_path / "out")
        assert run(["--config", str(cfg), "--out", out, "synth", "--n", "1"]) == 2
        assert "hiddden" in caplog.text

    def test_config_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"synth": {"n_per_class": 2, "duration_s": 1.0}}')
        out = str(tmp_path / "out")
        assert run(["--config", str(cfg), "--out", out, "--seed", "5", "synth"]) == 0
        man = read_json(os.path.join(out, "corpus", "manifest.json"))
        assert len(man["entries"]) == 6

    def test_artifacts_index(self, tmp_path):
        out = str(tmp_path / "out")
        run(["--out", out, "--seed", "2", "synth", "--n", "1", "--duration", "1.0"])
        index = read_json(os.path.join(out, "artifacts.json"))
        assert "synth" in index
        assert all(not p.startswith("/") for p in index["synth"])


class TestEnvFallback:
    def test_smsat_out_env(self, tmp_path, monkeypatch):
        target = str(tmp_path / "envout")
        monkeypatch.setenv("SMSAT_OUT", target)
        assert run(["--seed", "1", "synth", "--n", "1", "--duration", "1.0"]) == 0
        assert os.path.exists(os.path.join(target, "corpus", "manifest.json"))
