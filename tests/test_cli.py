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


    @pytest.mark.parametrize("fault,message", [
        (lambda b: b[:30], "runs past the end"),                     # cut inside fmt
        (lambda b: b[:40] + (2 * int.from_bytes(b[40:44], "little")).to_bytes(4, "little")
         + b[44:], "runs past the end"),                              # data past EOF
        (lambda b: b[:16] + (8).to_bytes(4, "little") + b[20:], "truncated fmt chunk"),
    ], ids=["cut-in-fmt", "data-past-eof", "fmt-of-8-bytes"])
    def test_wav_header_fault_validate_exits_1(self, tmp_path, caplog, capsys, fault, message):
        out = str(tmp_path / "out")
        run(["--out", out, "--seed", "1", "synth", "--n", "1", "--duration", "1.0"])
        corpus = os.path.join(out, "corpus")
        bad = os.path.join(corpus, "Music", "clip_000.wav")
        with open(bad, "rb") as fh:
            blob = fh.read()
        with open(bad, "wb") as fh:
            fh.write(fault(blob))
        assert run(["--out", out, "validate", corpus]) == 1
        assert "clip_000.wav" in caplog.text and message in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("cut", [lambda b: b[:10], lambda b: b[:-100]],
                             ids=["first-10-bytes", "last-100-bytes-cut"])
    def test_truncated_checkpoint_evaluate_exits_1(self, tiny_run, tmp_path, caplog, capsys,
                                                   cut):
        bad = tmp_path / "cut.ckpt"
        with open(os.path.join(tiny_run, "cam.ckpt"), "rb") as fh:
            bad.write_bytes(cut(fh.read()))
        code = run(["--out", str(tmp_path / "out"), "evaluate",
                    os.path.join(tiny_run, "features.csv"), "--checkpoint", str(bad)])
        assert code == 1
        assert "cut.ckpt" in caplog.text
        assert "Traceback" not in capsys.readouterr().err


TINY_CONFIG = {"encoder": {"width_scale": 0.125, "epochs": 2, "frames": 64},
               "cam": {"hidden": 16, "epochs": 2}}


def _chain(out, jobs=1):
    """All 11 commands on a tiny synthetic corpus, in dependency order."""
    os.makedirs(out)
    cfg = os.path.join(out, "tiny.json")
    with open(cfg, "w") as fh:
        json.dump(TINY_CONFIG, fh)
    base = ["--config", cfg, "--seed", "3", "--jobs", str(jobs), "--out", out]
    corpus = os.path.join(out, "corpus")
    feats = os.path.join(out, "features.csv")
    steps = [
        ["synth", "--n", "2", "--duration", "1.0"],
        ["validate", corpus, "--plot"],
        ["augment", os.path.join(corpus, "manifest.json")],
        ["features", os.path.join(corpus, "manifest.json")],
        ["calmness", feats],
        ["train-encoder", corpus],
        ["embed", corpus, "--checkpoint", os.path.join(out, "encoder.ckpt")],
        ["eval-embeddings", os.path.join(out, "embeddings.csv"), "--plot"],
        ["train-cam", feats],
        ["evaluate", feats, "--checkpoint", os.path.join(out, "cam.ckpt"), "--split", "test"],
        ["report", "--plot-history", os.path.join(out, "cam_history.csv"),
         "--plot-tsne", os.path.join(out, "tsne.csv")],
    ]
    for step in steps:
        assert run(base + step) == 0, step


def _artifacts(out, commands=None):
    """{path: bytes} of every file artifacts.json lists for ``commands``."""
    index = read_json(os.path.join(out, "artifacts.json"))
    files = {}
    for command, paths in index.items():
        if commands is None or command in commands:
            for p in paths:
                with open(os.path.join(out, p), "rb") as fh:
                    files[p] = fh.read()
    return files


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("tiny") / "a")
    _chain(out)
    return out


class TestEndToEnd:
    def test_rerun_byte_identical(self, tiny_run, tmp_path):
        assert len(read_json(os.path.join(tiny_run, "artifacts.json"))) == 11
        again = str(tmp_path / "b")
        _chain(again)
        assert _artifacts(again) == _artifacts(tiny_run)

    def test_jobs_2_matches_jobs_1(self, tiny_run, tmp_path):
        out = str(tmp_path / "c")
        base = ["--seed", "3", "--jobs", "2", "--out", out]
        corpus = os.path.join(tiny_run, "corpus")
        assert run(base + ["validate", corpus, "--plot"]) == 0
        assert run(base + ["features", os.path.join(corpus, "manifest.json")]) == 0
        assert run(base + ["embed", corpus, "--checkpoint",
                           os.path.join(tiny_run, "encoder.ckpt")]) == 0
        commands = ("validate", "features", "embed")
        got = _artifacts(out, commands)
        assert len(got) == 10
        assert got == _artifacts(tiny_run, commands)

    def test_evaluate_reproduces_heldout_report(self, tiny_run):
        with open(os.path.join(tiny_run, "evaluation.json"), "rb") as fh:
            evaluated = fh.read()
        with open(os.path.join(tiny_run, "cam_heldout_eval.json"), "rb") as fh:
            assert fh.read() == evaluated


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

    @pytest.mark.parametrize("doc,key", [
        ('{"seed": "abc"}', "seed"),
        ('{"cam": {"hidden": "8"}}', "cam.hidden"),
        ('{"synth": {"n_per_class": "2"}}', "synth.n_per_class"),
        ('{"encoder": {"widths": "abc"}}', "encoder.widths"),
    ])
    def test_mistyped_value_named_and_usage_exit(self, tmp_path, caplog, capsys, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc)
        out = str(tmp_path / "out")
        assert run(["--config", str(cfg), "--out", out, "synth", "--n", "1"]) == 2
        assert f"config key {key} must be" in caplog.text
        assert "Traceback" not in capsys.readouterr().err

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
