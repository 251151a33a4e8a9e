import ast
import io
import json
import logging
import os
import struct
import subprocess
import sys
import wave
from dataclasses import asdict

import numpy as np
import pytest

import lstm_oracle
from atscalm import classifier, cli, tsne
from atscalm.classifier import load_cam, save_cam
from atscalm.cli import main
from atscalm.config import RunConfig
from atscalm.features import FEATURE_NAMES, read_features_csv
from atscalm.nn.checkpoint import MAGIC, load_checkpoint, state_arrays
from atscalm.util import json_sanitize, read_json
from tiny_chain import chain_steps, run_chain


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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

    def test_clip_id_from_the_normalized_path(self, tmp_path):
        """A manifest listing ``./a.wav`` names the clip ``a``, as ``a.wav`` does."""
        doc = json.loads(TWO_CLIPS["m.json"])
        doc["entries"][0]["path"] = "./a.wav"
        (tmp_path / "m.json").write_text(json.dumps(doc))
        for name in ("a.wav", "b.wav"):
            (tmp_path / name).write_bytes(TWO_CLIPS[name])
        out = str(tmp_path / "out")
        assert run(["--out", out, "features", str(tmp_path / "m.json")]) == 0
        assert [cid for cid, _, _ in read_features_csv(os.path.join(out, "features.csv"))] == [
            "a", "b"]


def _tree_bytes(root):
    """{relative path: file bytes} for every file under root."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


class TestCommaInClipName:
    def test_chain_keeps_ids_with_commas(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"cam": {"hidden": 8, "fc_dim": 4, "batch": 16}}')
        out = str(tmp_path / "out")
        base = ["--config", str(cfg), "--seed", "2", "--out", out]
        assert run(base + ["synth", "--n", "3", "--duration", "1.0"]) == 0
        corpus = os.path.join(out, "corpus")
        music = os.path.join(corpus, "Music")
        os.rename(os.path.join(music, "clip_000.wav"), os.path.join(music, "a,b.wav"))
        feats = os.path.join(out, "features.csv")
        assert run(base + ["features", corpus]) == 0
        assert run(base + ["calmness", feats]) == 0
        assert run(base + ["train-cam", feats, "--epochs", "1"]) == 0
        assert run(base + ["evaluate", feats, "--checkpoint", os.path.join(out, "cam.ckpt"),
                           "--split", "test"]) == 0
        ids = [cid for cid, _, _ in read_features_csv(feats)]
        assert len(ids) == 9 and sum("a,b" in cid for cid in ids) == 1
        split = load_cam(os.path.join(out, "cam.ckpt"))[1]["split"]
        assert sorted(split["train_ids"] + split["test_ids"]) == sorted(ids)
        evaluation = read_json(os.path.join(out, "evaluation.json"))
        assert int(np.sum(evaluation["confusion"])) == len(split["test_ids"])


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

    def test_originals_listed_at_their_own_rate(self, tmp_path):
        # a 22,050 Hz corpus augmented at the default 16,000 Hz rate
        native = tmp_path / "native.json"
        native.write_text(json.dumps({"rate": 22050}))
        out = str(tmp_path / "out")
        assert run(["--out", out, "--config", str(native), "synth", "--n", "1",
                    "--duration", "1.0"]) == 0
        corpus = os.path.join(out, "corpus", "manifest.json")
        assert run(["--out", out, "augment", corpus]) == 0
        entries = read_json(os.path.join(out, "augmented", "manifest.json"))["entries"]
        originals = {e["path"]: e for e in entries if ".aug" not in e["path"]}
        for e in read_json(corpus)["entries"]:
            path = f"../corpus/{e['path']}"
            assert originals.pop(path) == dict(e, path=path)
        assert not originals
        assert {e["rate"] for e in entries if ".aug" in e["path"]} == {16000}

    def test_originals_listed_from_their_headers(self, tmp_path):
        # the input manifest misstates both clips' duration and rate
        doc = json.loads(TWO_CLIPS["m.json"])
        for e in doc["entries"]:
            e.update(duration_s=9.0, rate=44100)
        (tmp_path / "m.json").write_text(json.dumps(doc))
        for name in ("a.wav", "b.wav"):
            (tmp_path / name).write_bytes(TWO_CLIPS[name])
        out = str(tmp_path / "out")
        assert run(["--out", out, "augment", str(tmp_path / "m.json")]) == 0
        entries = read_json(os.path.join(out, "augmented", "manifest.json"))["entries"]
        assert [(e["path"], e["duration_s"], e["rate"]) for e in entries
                if ".aug" not in e["path"]] == [("../../a.wav", 0.15, 16000),
                                                ("../../b.wav", 0.15, 16000)]

    def test_augmenting_an_augmented_manifest_writes_only_under_augmented(self, tmp_path):
        """Its originals are listed as ``../corpus/...``: their variants go to
        ``augmented/corpus/...``, and the corpus is not written to."""
        out = str(tmp_path / "out")
        assert run(["--out", out, "synth", "--n", "1", "--duration", "0.5"]) == 0
        corpus, aug_dir = os.path.join(out, "corpus"), os.path.join(out, "augmented")
        assert run(["--out", out, "augment", os.path.join(corpus, "manifest.json")]) == 0
        assert run(["--out", out, "augment", os.path.join(aug_dir, "manifest.json")]) == 0
        assert sum(name.endswith(".wav") for name in _tree_bytes(corpus)) == 3
        paths = [e["path"] for e in read_json(os.path.join(aug_dir, "manifest.json"))["entries"]]
        # the corpus's 3 clips, then the 15 first variants and the 90 made from all 18
        assert [p for p in paths if p.startswith("..")] == [
            f"../corpus/{d}/clip_000.wav" for d in ("Music", "Normal", "Spiritual")]
        inside = [p for p in paths if not p.startswith("..")]
        assert len(inside) == 15 + 18 * 5
        assert "corpus/Music/clip_000.aug0.wav" in inside
        assert all(os.path.isfile(os.path.join(aug_dir, p)) for p in inside)


FEATURES_HEADER = ",".join(["id", "label", *FEATURE_NAMES])
ROW = "a,Music," + ",".join(["0.5"] * len(FEATURE_NAMES))
# two rows each of the classes `calmness` checks before Music, ids c0 to c3
CALM_ROWS = [ROW.replace("a,Music", f"c{i},{lab}")
             for i, lab in enumerate(("SpiritualMeditation", "NormalSilence") * 2)]
# Each command that reads a table of numbers, on a table with a cell that
# parses as a float but is not finite: (files, argv, message).
NOT_FINITE_TABLE = "\n".join([FEATURES_HEADER, *CALM_ROWS, ROW.replace("0.5", "{}", 1)])
NOT_FINITE = {
    "train-cam": ({"f.csv": NOT_FINITE_TABLE.format("nan")}, ["train-cam", "{d}/f.csv"],
                  "f.csv line 6, column mfcc_0: 'nan' is not a finite number"),
    "evaluate": ({"f.csv": NOT_FINITE_TABLE.format("inf")},
                 ["evaluate", "{d}/f.csv", "--checkpoint", "{d}/missing.ckpt"],
                 "f.csv line 6, column mfcc_0: 'inf' is not a finite number"),
    "calmness": ({"f.csv": NOT_FINITE_TABLE.format("1e999")}, ["calmness", "{d}/f.csv"],
                 "f.csv line 6, column mfcc_0: '1e999' is not a finite number"),
    "eval-embeddings": ({"e.csv": "id,label,e0\na,Music,1\nb,Music,nan\n"},
                        ["eval-embeddings", "{d}/e.csv"],
                        "e.csv line 3, column e0: 'nan' is not a finite number"),
    "report-plot-tsne": ({"t.csv": "id,label,x,y\na,Music,-inf,1\n"},
                         ["report", "--plot-tsne", "{d}/t.csv"],
                         "t.csv line 2, column x: '-inf' is not a finite number"),
    "report-plot-history": ({"h.csv": "epoch,loss\n1,0.5\n2,nan\n"},
                            ["report", "--plot-history", "{d}/h.csv"],
                            "h.csv line 3, column loss: 'nan' is not a finite number"),
}

# Keys the config schema rejects. `features` (the fixed log-mel front end)
# and `validation` are no sections at all, so their cases name the section.
REMOVED_KEYS = [("features", "n_mfcc", 13), ("features", "wavelet_levels", 5),
                ("features", "wavelet", "haar"), ("features", "window_name", "hann"),
                ("cam", "input_dim", 25), ("cam", "n_classes", 3), ("cam", "mode", "sequence"),
                ("encoder", "uniformity_weight", 0.0), ("augment", "noise_sigma_abs", None),
                ("augment", "vocoder_win", 1024), ("augment", "vocoder_hop", 256),
                ("synth", "seed", 1), ("augment", "seed", 1), ("encoder", "seed", 1),
                ("cam", "seed", 1), ("tsne", "seed", 1), ("encoder", "width_scale", 0.125)]

# Counts the schema bounds; a 0 there used to train nothing or end in a traceback.
ZERO_KEYS = [("encoder", "epochs", ">= 1"), ("encoder", "batch_pairs", ">= 1"),
             ("encoder", "frames", ">= 1"),
             ("cam", "epochs", ">= 1"), ("cam", "batch", ">= 1"), ("synth", "duration_s", "> 0")]

# (section, key, value, the command that reads it, bound). A negative lr
# trains uphill; the others failed only once the stage ran, or never.
SECTION_BOUNDS = [("cam", "lr", -1, "train-cam", "must be >= 0, got -1"),
                  ("cam", "val_fraction", 0, "train-cam", "must be in (0, 1), got 0"),
                  ("cam", "val_fraction", -1, "train-cam", "must be in (0, 1), got -1"),
                  ("encoder", "lr", -1, "train-encoder", "must be >= 0, got -1"),
                  ("encoder", "val_fraction", 2, "train-encoder", "must be in [0, 1), got 2"),
                  ("tsne", "lr", -100, "eval-embeddings", "must be >= 0, got -100"),
                  ("tsne", "iters", -5, "eval-embeddings", "must be >= 0, got -5"),
                  ("tsne", "perplexity", 0.5, "eval-embeddings", "must be >= 1, got 0.5")]

def _tone_wav(seconds=1.0, rate=16000):
    """A mono 16-bit WAV of a 440 Hz tone, as bytes."""
    t = np.arange(int(seconds * rate)) / rate
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(rate)
        wav.writeframes(np.rint(16384 * np.sin(2 * np.pi * 440.0 * t)).astype("<i2").tobytes())
    return buf.getvalue()


def _float32_wav(x, rate=16000):
    """A mono IEEE float 32-bit WAV (format 3) of ``x``, as bytes."""
    data = np.asarray(x, dtype="<f4").tobytes()
    return (b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVEfmt "
            + struct.pack("<IHHIIHH", 16, 3, 1, rate, 4 * rate, 4, 32)
            + b"data" + struct.pack("<I", len(data)) + data)


TWO_CLIPS = {"m.json": json.dumps({"entries": [{"path": f"{c}.wav", "label": "Music",
                                                "duration_s": 0.15, "rate": 16000}
                                               for c in "ab"],
                                   "counts": {"Music": 2}}),
             "a.wav": _tone_wav(0.15), "b.wav": _tone_wav(0.15)}

# Documents refused at load, before any stage runs on them. Building the mel
# filterbank is the one rate check: it fails below 16 kHz (F_HI above rate / 2)
# and from 28,896 Hz up, which only `features` used to find, with exit 1. The
# front end is fixed, so a document that sets log_eps names its section.
BOUNDED_LEAVES = {
    "rate-0": ('{"rate": 0}', "config document: need 0 <= f_lo < f_hi <= rate/2, "
                              "got (0.0, 8000.0) at 0 Hz"),
    "rate-negative": ('{"rate": -16000}', "config document: need 0 <= f_lo < f_hi <= rate/2, "
                                          "got (0.0, 8000.0) at -16000 Hz"),
    "rate-29000": ('{"rate": 29000}', "config document: infeasible mel spacing: filter 0 "
                                      "(0.0-56.4 Hz) covers no FFT bin at 29000 Hz"),
    "log_eps-0": ('{"features": {"log_eps": 0.0}}', "unknown config key features"),
    "log_eps-negative": ('{"features": {"log_eps": -1.0}}', "unknown config key features"),
}

# (files to write, command, exit code, message); {d} is the directory they are in.
BAD_INPUT = {
    "manifest-not-json": ({"m.json": "not json"}, ["validate", "{d}/m.json"], 1,
                          "m.json: not a JSON manifest"),
    "manifest-not-object": ({"m.json": "[]"}, ["validate", "{d}/m.json"], 1,
                            "m.json: a manifest is an object"),
    "manifest-no-counts": ({"m.json": '{"entries": []}'}, ["validate", "{d}/m.json"], 1,
                           "m.json: a manifest is an object"),
    "manifest-entries-object": ({"m.json": '{"entries": {}, "counts": {}}'},
                                ["validate", "{d}/m.json"], 1, "m.json: a manifest is an object"),
    "manifest-entry-no-label": ({"m.json": '{"entries": [{"path": "x.wav"}], "counts": {}}'},
                                ["validate", "{d}/m.json"], 1,
                                "m.json: entry 0 has no valid 'label'"),
    # these three used to write an empty table, manifest or embedding file
    **{f"manifest-empty-{command}": ({"m.json": '{"entries": [], "counts": {}}'},
                                     [command, "{d}/m.json", *argv], 1,
                                     "m.json: empty corpus under")
       for command, argv in (("features", []), ("augment", []),
                             ("embed", ["--checkpoint", "{d}/missing.ckpt"]))},
    # every listed clip's header is read when the manifest loads
    "manifest-wav-missing": ({"m.json": TWO_CLIPS["m.json"]}, ["features", "{d}/m.json"], 1,
                             "m.json: cannot read {d}/a.wav: No such file or directory"),
    # features used to write two rows of one id, one per label
    **{f"manifest-path-listed-twice-{name}": (
        {"m.json": json.dumps({"entries": [{"path": p, "label": lab, "duration_s": 0.15,
                                            "rate": 16000}
                                           for p, lab in (("a.wav", "Music"),
                                                          (again, "NormalSilence"))],
                               "counts": {"Music": 1, "NormalSilence": 1}}),
         "a.wav": _tone_wav(0.15)},
        ["features", "{d}/m.json"], 1, "m.json: a.wav is listed more than once")
       for name, again in (("as-written", "a.wav"), ("after-normpath", "./a.wav"))},
    "manifest-entry-rate-string": (
        {"m.json": '{"entries": [{"path": "x.wav", "label": "Music", "duration_s": 1.0, '
                   '"rate": "16000"}], "counts": {"Music": 1}}'},
        ["validate", "{d}/m.json"], 1, "m.json: entry 0 has no valid 'rate'"),
    "class-dirs-shared": ({"c.json": '{"class_dirs": {"Music": "X", "NormalSilence": "./X"}}'},
                          ["--config", "{d}/c.json", "synth", "--n", "1"], 2,
                          "class_dirs maps Music and NormalSilence to one directory, './X'"),
    "class-dirs-partial": ({"c.json": '{"class_dirs": {"Music": "M"}}'},
                           ["--config", "{d}/c.json", "synth", "--n", "1"], 1,
                           "class_dirs names no directory for SpiritualMeditation, NormalSilence"),
    "features-not-a-number": ({"f.csv": f"{FEATURES_HEADER}\n{ROW.replace('0.5', 'x', 1)}\n"},
                              ["calmness", "{d}/f.csv"], 1, "f.csv line 2, column mfcc_0: 'x'"),
    "features-short-row": ({"f.csv": f"{FEATURES_HEADER}\n{ROW}\na,Music,1\n"},
                           ["calmness", "{d}/f.csv"], 1, "f.csv line 3: 3 cells, the header has 27"),
    "features-not-utf8": ({"f.csv": b"\xff\xfe"}, ["calmness", "{d}/f.csv"], 1,
                          "f.csv: not UTF-8 text"),
    "features-unterminated-quote": ({"f.csv": f"{FEATURES_HEADER}\n{ROW}\n\"b,Music\n"},
                                    ["calmness", "{d}/f.csv"], 1,
                                    "f.csv line 3: unexpected end of data"),
    "features-field-over-csv-limit": ({"f.csv": f"{FEATURES_HEADER}\n{'a' * 131073}{ROW[1:]}\n"},
                                      ["calmness", "{d}/f.csv"], 1,
                                      "f.csv line 2: field larger than field limit (131072)"),
    "embeddings-not-a-number": ({"e.csv": "id,label,e0\na,Music,1\nb,Music,y\n"},
                                ["eval-embeddings", "{d}/e.csv"], 1, "e.csv line 3, column e0: 'y'"),
    "embeddings-header": ({"e.csv": "e0,e1\n1,2\n"}, ["eval-embeddings", "{d}/e.csv"], 1,
                          "e.csv: header must start with id,label"),
    "tsne-no-y-column": ({"t.csv": "id,label,x\na,Music,1\n"}, ["report", "--plot-tsne", "{d}/t.csv"],
                         1, "t.csv: expected x and y columns"),
    **{f"not-finite-{command}": (files, argv, 1, message)
       for command, (files, argv, message) in NOT_FINITE.items()},
    **{f"label-not-a-class-{command}": (
        {"f.csv": "\n".join([FEATURES_HEADER, *CALM_ROWS, ROW.replace("a,Music", "b,Jazz")])},
        [command, "{d}/f.csv", *argv], 1, "f.csv: row 'b': unknown class label 'Jazz'")
       for command, argv in (("calmness", []), ("train-cam", []),
                             ("evaluate", ["--checkpoint", "{d}/missing.ckpt"]))},
    # train-cam used to put both rows of a repeated id in the held-out report
    **{f"features-repeated-id-{command}": (
        {"f.csv": "\n".join([FEATURES_HEADER, *CALM_ROWS, ROW,
                             ROW.replace("Music", "NormalSilence")])},
        [command, "{d}/f.csv", *argv], 1, "f.csv: id 'a' is on more than one row")
       for command, argv in (("calmness", []), ("train-cam", []),
                             ("evaluate", ["--checkpoint", "{d}/missing.ckpt"]))},
    # a header and no row; train-cam and evaluate used to end in a traceback
    **{f"no-rows-{command}": ({"f.csv": FEATURES_HEADER + "\n"}, [command, "{d}/f.csv", *argv], 1,
                             "f.csv: no feature rows")
       for command, argv in (("calmness", []), ("train-cam", []),
                             ("evaluate", ["--checkpoint", "{d}/missing.ckpt"]))},
    "history-not-a-number": ({"h.csv": "epoch,loss\n1,0.5\n2,nope\n"},
                             ["report", "--plot-history", "{d}/h.csv"], 1,
                             "h.csv line 3, column loss: 'nope'"),
    **{f"removed-{section}.{key}": ({"c.json": json.dumps({section: {key: value}})},
                                    ["--config", "{d}/c.json", "synth", "--n", "1"], 2,
                                    f"unknown config key {section}"
                                    + ("" if section == "features" else f".{key}"))
       for section, key, value in REMOVED_KEYS},
    "removed-validation.phase_search": ({"c.json": '{"validation": {"phase_search": false}}'},
                                        ["--config", "{d}/c.json", "synth", "--n", "1"], 2,
                                        "unknown config key validation"),
    "config-missing": ({}, ["--config", "{d}/c.json", "synth", "--n", "1"], 2,
                       "cannot read config {d}/c.json: No such file or directory"),
    "removed-seed": ({"c.json": '{"seed": 1}'}, ["--config", "{d}/c.json", "synth", "--n", "1"], 2,
                     "unknown config key seed"),
    **{f"zero-{section}.{key}": ({"c.json": json.dumps({section: {key: 0}})},
                                 ["--config", "{d}/c.json", "synth", "--n", "1"], 2,
                                 f"config {section}: {key} must be {bound}")
       for section, key, bound in ZERO_KEYS},
    "negative-encoder.frames": ({"c.json": '{"encoder": {"frames": -3}}'},
                                ["--config", "{d}/c.json", "train-encoder", "{d}"], 2,
                                "config encoder: frames must be >= 1, got -3"),
    # At frames 8 a view keeps fewer mel frames than the 20 that the default
    # time mask may blank. The config is rejected before any input is read:
    # the manifest named does not exist.
    "encoder-frames-below-time-mask": (
        {"c.json": '{"encoder": {"frames": 8, "widths": [8, 16, 32, 64]}}'},
        ["--config", "{d}/c.json", "train-encoder", "{d}/missing.json", "--epochs", "1"], 2,
        "config document: encoder.frames 8: the shortest training view has 18 mel frames "
        "and keeps 8, fewer than augment.time_mask_max (20)"),
    # A 0.15-s clip is shorter than the crop window, so its views are too,
    # whatever frames is; the error names both sizes.
    "encoder-clip-below-time-mask": (
        {**TWO_CLIPS, "c.json": '{"encoder": {"frames": 32, "widths": [8, 16, 32, 64]}}'},
        ["--config", "{d}/c.json", "train-encoder", "{d}/m.json", "--epochs", "1"], 1,
        "mask maxima (8 bins, 20 frames) exceed the grid shape (64 bins, 13 frames)"),
    # The split needs only the clip count, so it fails before a clip's
    # samples are read; the manifest's load reads the two WAV headers.
    "encoder-split-leaves-no-training-clips": (
        {**TWO_CLIPS, "c.json": '{"encoder": {"val_fraction": 0.9}}'},
        ["--config", "{d}/c.json", "train-encoder", "{d}/m.json"], 1,
        "validation split leaves no training clips"),
    "flag-synth-n-zero": ({}, ["synth", "--n", "0"], 2, "config synth: n_per_class must be >= 1"),
    "flag-synth-duration-zero": ({}, ["synth", "--duration", "0"], 2,
                                 "config synth: duration_s must be > 0"),
    # positive, but round(duration_s * rate) is 0: no sample to write
    "flag-synth-duration-below-one-sample": (
        {}, ["synth", "--n", "1", "--duration", "0.00001"], 2,
        "config document: synth.duration_s 1e-05 makes 0 samples at rate 16000; "
        "a clip needs at least 1"),
    "flag-train-encoder-epochs-zero": ({}, ["train-encoder", "{d}", "--epochs", "0"], 2,
                                       "config encoder: epochs must be >= 1"),
    "flag-train-cam-epochs-zero": ({}, ["train-cam", "{d}/f.csv", "--epochs", "0"], 2,
                                   "config cam: epochs must be >= 1"),
    # JSON's NaN and Infinity and argparse's float("nan") used to pass the schema.
    "nan-cam.lr": ({"c.json": '{"cam": {"lr": NaN}}'}, ["--config", "{d}/c.json", "synth", "--n", "1"],
                   2, "config key cam.lr must be finite, got nan"),
    "infinity-augment.noise_sigma_rel": (
        {"c.json": '{"augment": {"noise_sigma_rel": Infinity}}'},
        ["--config", "{d}/c.json", "synth", "--n", "1"], 2,
        "config key augment.noise_sigma_rel must be finite, got inf"),
    "flag-synth-snr-db-nan": ({}, ["synth", "--n", "1", "--snr-db", "nan"], 2,
                              "config key synth.snr_db must be finite, got nan"),
    "int-beyond-float-cam.lr": ({"c.json": '{"cam": {"lr": 1%s}}' % ("0" * 400)},
                                ["--config", "{d}/c.json", "synth", "--n", "1"], 2,
                                "config key cam.lr must be finite, got 1000"),
    # Values the schema's types take but the stage cannot run: no stage, a
    # noise power past the float range, a vocoder output 2^(200/12) times the
    # clip. Each names a missing input, so the stage never runs on them.
    "empty-encoder.widths": ({"c.json": '{"encoder": {"widths": [], "blocks": []}}'},
                             ["--config", "{d}/c.json", "train-encoder", "{d}/missing.json"], 2,
                             "config encoder: widths and blocks must name at least one stage"),
    **{f"snr-{value}-synth.snr_db": ({"c.json": json.dumps({"synth": {"snr_db": value}})},
                                     ["--config", "{d}/c.json", "validate", "{d}/missing.json"], 2,
                                     f"config synth: snr_db must be within [-300, 300] dB, "
                                     f"got {value}")
       for value in (1e6, -1e6)},
    **{f"{name}-{command}": ({**TWO_CLIPS, "c.json": doc},
                             ["--config", "{d}/c.json", command, *argv], 2, message)
       for name, (doc, message) in BOUNDED_LEAVES.items()
       for command, argv in (("synth", ["--n", "1"]), ("validate", ["{d}/m.json"]),
                             ("features", ["{d}/m.json"]))},
    **{f"float32-{value}-sample": (
        {**TWO_CLIPS, "a.wav": _float32_wav([0.5, float(value), -0.5] * 800)},
        ["features", "{d}/m.json"], 1, "a.wav: non-finite sample")
       for value in ("nan", "inf", "-inf")},
    # Each names a missing input: the schema rejects the value before the stage reads it.
    **{f"bound-{section}.{key}-{value}": ({"c.json": json.dumps({section: {key: value}})},
                                         ["--config", "{d}/c.json", command, "{d}/missing"], 2,
                                         f"config {section}: {key} {bound}")
       for section, key, value, command, bound in SECTION_BOUNDS},
    # the mel filterbank's top edge, features.F_HI, is bounded by the run's rate
    "bound-features.f_hi-above-rate-half": (
        {"c.json": '{"rate": 12000}'},
        ["--config", "{d}/c.json", "features", "{d}/missing"], 2,
        "config document: need 0 <= f_lo < f_hi <= rate/2, got (0.0, 8000.0) at 12000 Hz"),
    **{f"calmness-music-{n}-rows": (
        {"f.csv": "\n".join([FEATURES_HEADER, *CALM_ROWS] + [ROW] * n)},
        ["calmness", "{d}/f.csv"], 1, f"class Music needs >= 2 rows, got {n}")
       for n in (0, 1)},
    # The index is read before the command runs, so the command writes nothing.
    **{f"artifacts-index-{name}": ({"out/artifacts.json": doc}, ["synth", "--n", "1"], 1,
                                   "artifacts.json: not a JSON object mapping commands to files")
       for name, doc in (("not-json", "not json"), ("list", "[]"))},
    # argparse rejects the flag before the config or any input is read
    **{f"jobs-{value}": ({}, ["--jobs", value, "validate", "{d}/missing.json"], 2,
                         f"argument --jobs: must be an integer >= 1, got '{value}'")
       for value in ("0", "-3")},
    "pitch-200-augment.pitch_range_semitones": (
        {"c.json": '{"augment": {"pitch_range_semitones": 200}}'},
        ["--config", "{d}/c.json", "augment", "{d}/missing.json"], 2,
        "config augment: pitch_range_semitones must be in [0, 12], got 200"),
}


# A training run whose loss turns NaN, on the tiny chain's inputs: (config,
# command, the one error logged). Both used to exit 0 and write a checkpoint.
DIVERGED = {
    "train-cam-lr-1e30": ({"cam": {"lr": 1e30, "hidden": 8, "fc_dim": 8, "epochs": 10}},
                          ["train-cam", "{run}/features.csv"],
                          "cam training diverged: loss nan at epoch 2, batch 1"),
    "train-encoder-lr-1e12": ({"encoder": {"lr": 1e12, "widths": [4, 8, 16, 32], "frames": 64,
                                           "epochs": 3}},
                              ["train-encoder", "{run}/corpus"],
                              "encoder training diverged: validation loss nan at epoch 1"),
}


# Each per-clip stage on a corpus whose Music/clip_000.wav holds too few
# samples for it: (samples, extra arguments, the one error logged). The clip
# is named by its manifest path, and by its id in train-encoder.
SHORT_CLIP = {
    "validate": (5, [], "Music/clip_000.wav: analytic signal needs length >= 8, got 5"),
    "augment": (300, [], "Music/clip_000.wav: clip of 300 samples is shorter than one vocoder "
                         "window (1024)"),
    "features": (300, [], "Music/clip_000.wav: signal of 300 samples is shorter than one "
                          "window (400)"),
    "embed": (300, ["--checkpoint", "{run}/encoder.ckpt"],
              "Music/clip_000.wav: signal of 300 samples is shorter than one window (400)"),
    "train-encoder": (300, [], "Music/clip_000: clip of 300 samples is shorter than one "
                               "vocoder window (1024)"),
}


class TestBadInput:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("command", list(SHORT_CLIP))
    def test_short_clip_named_once(self, tiny_run, tmp_path, caplog, capsys, command, jobs):
        n, argv, message = SHORT_CLIP[command]
        out = str(tmp_path / "out")
        run(["--out", out, "--seed", "1", "synth", "--n", "1", "--duration", "1.0"])
        corpus = os.path.join(out, "corpus")
        with wave.open(os.path.join(corpus, "Music", "clip_000.wav"), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(np.full(n, 1000, dtype="<i2").tobytes())
        code = run(["--config", os.path.join(tiny_run, "tiny.json"), "--jobs", str(jobs),
                    "--out", out, command, corpus] + [a.replace("{run}", tiny_run) for a in argv])
        assert code == 1
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == [message]
        assert "Traceback" not in capsys.readouterr().err

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

    @pytest.mark.parametrize("files,argv,code,message", list(BAD_INPUT.values()),
                             ids=list(BAD_INPUT))
    def test_bad_input_named_without_traceback(self, tmp_path, caplog, capsys,
                                               files, argv, code, message):
        for name, content in files.items():
            if isinstance(content, str):
                content = content.encode()
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_bytes(content)
        d = str(tmp_path)
        args = ["--out", os.path.join(d, "out")] + [a.replace("{d}", d) for a in argv]
        try:
            got, said = run(args), caplog.text
        except SystemExit as exc:   # argparse prints a flag's usage error on stderr
            got, said = exc.code, None
        err = capsys.readouterr().err
        assert got == code
        assert message.replace("{d}", d) in (err if said is None else said)
        assert "Traceback" not in err

    @pytest.mark.parametrize("config,argv,message", list(DIVERGED.values()), ids=list(DIVERGED))
    def test_diverged_training_exits_1_without_a_checkpoint(self, tiny_run, tmp_path, caplog,
                                                            capsys, config, argv, message):
        (tmp_path / "c.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        code = run(["--config", str(tmp_path / "c.json"), "--out", str(out)]
                   + [a.replace("{run}", tiny_run) for a in argv])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [message]
        assert not [name for name in os.listdir(out) if name.endswith(".ckpt")]
        assert "Traceback" not in capsys.readouterr().err

    def test_missing_wav_named_once(self, tmp_path, caplog):
        (tmp_path / "m.json").write_text(TWO_CLIPS["m.json"])
        assert run(["--out", str(tmp_path / "out"), "features", str(tmp_path / "m.json")]) == 1
        assert caplog.text.count(str(tmp_path / "a.wav")) == 1

    def test_corrupt_artifacts_index_stops_before_the_command(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "artifacts.json").write_text("[]")
        assert run(["--out", str(out), "synth", "--n", "1"]) == 1
        assert os.listdir(out) == ["artifacts.json"]

    @pytest.mark.parametrize("split", [[], {"test_ids": 5}], ids=["list", "ids-not-a-list"])
    def test_split_header_not_id_lists_evaluate_exits_1(self, tiny_run, tmp_path, caplog,
                                                        capsys, split):
        model, _ = load_cam(os.path.join(tiny_run, "cam.ckpt"))
        bad = str(tmp_path / "bad.ckpt")
        save_cam(model, bad, split)
        code = run(["--out", str(tmp_path / "out"), "evaluate",
                    os.path.join(tiny_run, "features.csv"), "--checkpoint", bad, "--split", "test"])
        assert code == 1
        assert f"{bad}: the split header is not an object of id lists" in caplog.text
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

    @pytest.mark.parametrize("argv,message", [
        (["evaluate", "{run}/features.csv", "--checkpoint", "{run}/encoder.ckpt"],
         "encoder.ckpt: not a cam checkpoint"),
        (["embed", "{run}/corpus", "--checkpoint", "{run}/cam.ckpt"],
         "cam.ckpt: not an encoder checkpoint"),
    ], ids=["evaluate-encoder-ckpt", "embed-cam-ckpt"])
    def test_checkpoint_of_other_kind_exits_1(self, tiny_run, tmp_path, caplog, capsys,
                                              argv, message):
        code = run(["--out", str(tmp_path / "out")] + [a.replace("{run}", tiny_run) for a in argv])
        assert code == 1
        assert message in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("name,key,value,argv", [
        ("cam.ckpt", "seed", 3, ["evaluate", "{run}/features.csv", "--checkpoint", "{bad}"]),
        ("encoder.ckpt", "width_scale", 0.125,
         ["embed", "{run}/corpus", "--checkpoint", "{bad}"]),
    ], ids=["cam-seed", "encoder-width_scale"])
    def test_checkpoint_config_with_a_removed_key_exits_2(self, tiny_run, tmp_path, caplog,
                                                           capsys, name, key, value, argv):
        """A checkpoint whose header config still holds a removed key is
        named and refused; it must be retrained."""
        bad = str(tmp_path / name)
        _rewrite_header(os.path.join(tiny_run, name), bad,
                        lambda header: header["meta"]["config"].update({key: value}))
        code = run(["--out", str(tmp_path / "out")]
                   + [a.replace("{run}", tiny_run).replace("{bad}", bad) for a in argv])
        assert code == 2
        assert f"unknown config key {bad} config.{key}" in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [lambda meta: meta.pop("feature_params"),
                                      lambda meta: meta["feature_params"].update(n_mels=32)],
                             ids=["default", "n_mels-32"])
    def test_encoder_checkpoint_without_feature_params_exits_1(self, tiny_run, tmp_path,
                                                               caplog, capsys, edit):
        """``embed`` compares the front end a checkpoint was trained with to
        `features.FRONT_END`; a checkpoint that does not record it matches
        none, and neither does one trained under an old ``features`` override."""
        bad = str(tmp_path / "encoder.ckpt")
        _rewrite_header(os.path.join(tiny_run, "encoder.ckpt"), bad,
                        lambda header: edit(header["meta"]))
        code = run(["--out", str(tmp_path / "out"),
                    "embed", os.path.join(tiny_run, "corpus"), "--checkpoint", bad])
        assert code == 1
        assert (f"{bad}: checkpoint feature params do not match the log-mel front end"
                in caplog.text)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("dtype", [">f4", "<f2", "<i8"])
    def test_checkpoint_dtype_other_than_f4_or_f8_exits_1(self, tiny_run, tmp_path, caplog,
                                                         capsys, dtype):
        """Only ``<f4`` and ``<f8`` payloads are read: another dtype in the
        index is named, not reinterpreted."""
        with open(os.path.join(tiny_run, "encoder.ckpt"), "rb") as fh:
            blob = fh.read()
        assert b'"dtype":"<f4"' in blob and b'"dtype":"<f8"' in blob
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob.replace(b'"dtype":"<f4"', f'"dtype":"{dtype}"'.encode(), 1))
        code = run(["--out", str(tmp_path / "out"), "embed", os.path.join(tiny_run, "corpus"),
                    "--checkpoint", str(bad)])
        assert code == 1
        assert "bad.ckpt: malformed index entry for tensor 'stem.conv'" in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("name,argv", [
        ("encoder.ckpt", ["embed", "{run}/corpus", "--checkpoint", "{bad}"]),
        ("cam.ckpt", ["evaluate", "{run}/features.csv", "--checkpoint", "{bad}"]),
    ], ids=["embed", "evaluate"])
    def test_non_finite_checkpoint_tensor_exits_1(self, tiny_run, tmp_path, caplog, capsys,
                                                  name, argv):
        """One NaN in a stored tensor is named, not run: ``embed`` used to
        write NaN rows and ``evaluate`` to report chance accuracy."""
        arrays, _ = load_checkpoint(os.path.join(tiny_run, name))
        first = next(iter(arrays))   # its payload comes first, so a NaN there is its entry 0
        with open(os.path.join(tiny_run, name), "rb") as fh:
            blob = fh.read()
        start = len(MAGIC) + 4 + struct.unpack_from("<I", blob, len(MAGIC))[0]
        nan = np.array(np.nan, arrays[first].dtype).tobytes()
        bad = str(tmp_path / name)
        with open(bad, "wb") as fh:
            fh.write(blob[:start] + nan + blob[start + len(nan):])
        code = run(["--out", str(tmp_path / "out")]
                   + [a.replace("{run}", tiny_run).replace("{bad}", bad) for a in argv])
        assert code == 1
        assert f"{bad}: tensor {first!r} holds a non-finite value" in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    def test_sub_sample_duration_writes_nothing(self, tmp_path):
        """A duration that rounds to no sample is rejected before any file,
        or the output directory, is made."""
        assert run(["--out", str(tmp_path / "out"), "synth", "--n", "1",
                    "--duration", "0.00001"]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_memory_error_exits_1_on_one_line(self, tmp_path, monkeypatch, caplog, capsys):
        def exhausted(args, cfg, out):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, "cmd_synth", exhausted)
        assert run(["--out", str(tmp_path / "out"), "synth"]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == ["MemoryError: Unable to allocate 7.28 TiB for an array"]
        assert "Traceback" not in capsys.readouterr().err


def _rewrite_header(src, dst, edit):
    """Copy the checkpoint ``src`` to ``dst`` with ``edit`` applied to its
    JSON header in place."""
    with open(src, "rb") as fh:
        blob = fh.read()
    start = len(MAGIC) + 4
    end = start + struct.unpack_from("<I", blob, len(MAGIC))[0]
    header = json.loads(blob[start:end])
    edit(header)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(dst, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", len(text)) + text + blob[end:])


def _artifacts(out):
    """{path: bytes} of every file artifacts.json lists."""
    files = {}
    for paths in read_json(os.path.join(out, "artifacts.json")).values():
        for p in paths:
            with open(os.path.join(out, p), "rb") as fh:
                files[p] = fh.read()
    return files


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("tiny") / "a")
    run_chain(out)
    return out


# What each command of `tiny_chain.run_chain` lists in artifacts.json.
_CLIPS = [f"{d}/clip_00{i}" for d in ("Music", "Normal", "Spiritual") for i in (0, 1)]
TINY_CHAIN_ARTIFACTS = {
    "augment": [f"augmented/{c}.aug{k}.wav" for c in _CLIPS for k in range(5)]
    + ["augmented/manifest.json"],
    "calmness": ["calmness.json"],
    "embed": ["embeddings.csv"],
    "eval-embeddings": ["embedding_geometry.json", "tsne.csv", "tsne_kl.csv"],
    "evaluate": ["evaluation.json"],
    "features": ["features.csv"],
    "report": ["cam_history.svg", "tsne.svg"],
    "synth": [f"corpus/{c}.wav" for c in _CLIPS] + ["corpus/manifest.json"],
    "train-cam": ["cam.ckpt", "cam_heldout_eval.json", "cam_history.csv"],
    "train-encoder": ["encoder.ckpt", "encoder_history.csv"],
    "validate": ["validation.json"] + [f"validation_{lab}_{kind}.svg"
                                       for lab in ("Music", "NormalSilence", "SpiritualMeditation")
                                       for kind in ("spectrum", "wave")],
}
# The commands that draw, and the files they write that hold no draw.
DRAWING = {"synth", "augment", "train-encoder", "eval-embeddings", "train-cam"}
UNDRAWN = {"corpus/manifest.json", "embedding_geometry.json"}


class TestEndToEnd:
    def test_rerun_byte_identical(self, tiny_run, tmp_path):
        assert len(read_json(os.path.join(tiny_run, "artifacts.json"))) == 11
        again = str(tmp_path / "b")
        run_chain(again)
        assert _artifacts(again) == _artifacts(tiny_run)

    @pytest.mark.parametrize("command", list(TINY_CHAIN_ARTIFACTS))
    def test_seed_changes_exactly_the_drawn_files(self, tiny_run, tmp_path, command):
        """Rerun at ``--seed 4`` on the seed-3 chain's inputs, a command
        that draws writes other bytes in every file it draws, and every
        command writes the same bytes in each file it does not draw."""
        step = next(s for s in chain_steps(tiny_run) if s[0] == command)
        out = str(tmp_path / "out")
        assert run(["--config", os.path.join(tiny_run, "tiny.json"), "--seed", "4",
                    "--out", out] + step) == 0
        now, before = _artifacts(out), _artifacts(tiny_run)
        changed = [p for p in TINY_CHAIN_ARTIFACTS[command] if now[p] != before[p]]
        drawn = [p for p in TINY_CHAIN_ARTIFACTS[command] if p not in UNDRAWN]
        assert changed == (drawn if command in DRAWING else [])

    def test_jobs_2_matches_jobs_1(self, tiny_run, tmp_path):
        # all 11 commands, each artifact byte for byte
        out = str(tmp_path / "c")
        run_chain(out, jobs=2)
        got = _artifacts(out)
        assert len(read_json(os.path.join(out, "artifacts.json"))) == 11
        assert got == _artifacts(tiny_run)

    def test_artifacts_index_lists_every_written_file(self, tiny_run):
        listed = {p for paths in read_json(os.path.join(tiny_run, "artifacts.json")).values()
                  for p in paths}
        written = {os.path.relpath(os.path.join(root, name), tiny_run).replace(os.sep, "/")
                   for root, _, names in os.walk(tiny_run) for name in names}
        assert written - listed == {"artifacts.json", "tiny.json"}
        assert listed <= written

    def test_artifacts_index_pins_each_command_files(self, tiny_run):
        """Each document is written in one form: a new file shows up here."""
        assert read_json(os.path.join(tiny_run, "artifacts.json")) == TINY_CHAIN_ARTIFACTS

    def test_histories_hold_every_trainer_key(self, tiny_run):
        for name, header in (("encoder_history.csv", "epoch,train_loss,val_loss,train_cossim,"
                                                     "val_cossim,emb_variance"),
                             ("cam_history.csv", "epoch,loss,acc")):
            with open(os.path.join(tiny_run, name), encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            assert lines[0] == header
            assert len(lines) == 1 + 2   # the tiny config trains 2 epochs

    def test_tsne_chart_drawn_by_report_only(self, tiny_run, tmp_path):
        index = read_json(os.path.join(tiny_run, "artifacts.json"))
        assert [command for command, paths in index.items() if "tsne.svg" in paths] == ["report"]
        with pytest.raises(SystemExit) as exc:
            run(["--out", str(tmp_path / "out"), "eval-embeddings",
                 os.path.join(tiny_run, "embeddings.csv"), "--plot"])
        assert exc.value.code == 2

    def test_eval_embeddings_below_the_tsne_minimum_skips_the_projection(self, tmp_path, caplog):
        n = tsne.MIN_POINTS - 1
        (tmp_path / "e.csv").write_text("id,label,e0,e1\n" + "".join(
            f"c{i},{('Music', 'NormalSilence')[i % 2]},{i},{i * i}\n" for i in range(n)))
        out = tmp_path / "out"
        assert run(["--out", str(out), "eval-embeddings", str(tmp_path / "e.csv")]) == 0
        assert sorted(os.listdir(out)) == ["artifacts.json", "embedding_geometry.json"]
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == [
            f"fewer than {tsne.MIN_POINTS} embeddings: skipping the 2-d projection"]

    def test_evaluate_reproduces_heldout_report(self, tiny_run):
        with open(os.path.join(tiny_run, "evaluation.json"), "rb") as fh:
            evaluated = fh.read()
        with open(os.path.join(tiny_run, "cam_heldout_eval.json"), "rb") as fh:
            assert fh.read() == evaluated


def test_no_command_reads_a_section_leaf():
    """A command hands a stage its config section whole: no ``cmd_*`` reads
    a ``cfg.<section>.<leaf>``."""
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    reads = [f"{fn.name}: cfg.{node.value.attr}.{node.attr}"
             for fn in tree.body
             if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")
             for node in ast.walk(fn)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
             and isinstance(node.value.value, ast.Name) and node.value.value.id == "cfg"]
    assert not reads, "\n".join(reads)


class TestTrainEncoder:
    def test_no_validation_clip_writes_no_val_figure(self, tmp_path, caplog):
        """At ``val_fraction`` 0 the history has no val columns, the log names
        no val figure, and `report` still draws the history."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"encoder": {"val_fraction": 0, "widths": [8, 16, 32, 64], "frames": 64}}')
        out = str(tmp_path / "out")
        base = ["--config", str(cfg), "--seed", "2", "--out", out]
        assert run(base + ["synth", "--n", "2", "--duration", "1.0"]) == 0
        caplog.clear()
        with caplog.at_level(logging.INFO):
            assert run(base + ["train-encoder", os.path.join(out, "corpus"),
                               "--epochs", "2"]) == 0
        messages = [r.getMessage() for r in caplog.records]
        hist = os.path.join(out, "encoder_history.csv")
        with open(hist, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "epoch,train_loss,train_cossim,emb_variance"
        assert len(lines) == 1 + 2
        assert not [m for m in messages if "val" in m]
        assert messages[-1].startswith("final train cosine similarity")
        assert run(base + ["report", "--plot-history", hist]) == 0
        assert os.path.getsize(os.path.join(out, "encoder_history.svg")) > 0


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

    def test_float64_checkpoint_loads_and_evaluates_in_float64(self, tiny_run, tmp_path,
                                                                monkeypatch):
        """A cam.ckpt with every tensor stored as ``<f8``, the layout of a CAM
        trained in float64, loads each tensor as float64, and `evaluate` runs
        it in float64: it writes the evaluation.json that the LSTM composed
        from primitive float64 ops gives."""
        model, meta = load_cam(os.path.join(tiny_run, "cam.ckpt"))
        for p in model.params.values():
            p.data = p.data.astype(np.float64)
        path = str(tmp_path / "f8.ckpt")
        save_cam(model, path, meta["split"])
        with open(path, "rb") as fh:
            assert b'"<f4"' not in fh.read()
        back, _ = load_cam(path)
        assert {a.dtype for a in state_arrays(back).values()} == {np.dtype(np.float64)}
        feats = os.path.join(tiny_run, "features.csv")
        x = np.stack([vec for _, _, vec in read_features_csv(feats)])
        assert back.forward(x, train=False).data.dtype == np.float64

        def evaluation(out):
            assert run(["--out", out, "evaluate", feats, "--checkpoint", path,
                        "--split", "test"]) == 0
            with open(os.path.join(out, "evaluation.json"), "rb") as fh:
                return fh.read()

        fused = evaluation(str(tmp_path / "fused"))
        monkeypatch.setattr(classifier, "bilstm_final", lstm_oracle.bilstm_final)
        assert evaluation(str(tmp_path / "composed")) == fused


class TestReport:
    def test_print_default_config(self, capsys):
        assert run(["report", "--print-default-config"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cam"]["hidden"] == 256
        assert data["cam"]["lr"] == 0.005
        assert data["encoder"]["widths"] == [64, 128, 256, 512]
        assert data["augment"]["variants_per_clip"] == 5
        assert "features" not in data   # the log-mel front end is fixed

    def test_plot_history(self, tmp_path):
        out = str(tmp_path / "out")
        os.makedirs(out)
        hist = os.path.join(out, "h.csv")
        with open(hist, "w") as fh:
            fh.write("epoch,loss,acc\n1,0.5,0.4\n2,0.3,0.9\n")
        assert run(["--out", out, "report", "--plot-history", hist]) == 0
        assert os.path.exists(os.path.join(out, "h.svg"))

    def test_print_default_config_creates_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SMSAT_OUT", raising=False)
        assert run(["report", "--print-default-config"]) == 0
        assert os.listdir(tmp_path) == []
        want = json.dumps(json_sanitize(asdict(RunConfig())), sort_keys=True, indent=2)
        assert capsys.readouterr().out == want + "\n"

    def test_config_checked(self, tmp_path, caplog):
        (tmp_path / "c.json").write_text('{"cam": {"hiddden": 8}}')
        (tmp_path / "h.csv").write_text("epoch,loss\n1,0.5\n")
        assert run(["--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "out"),
                    "report", "--plot-history", str(tmp_path / "h.csv")]) == 2
        assert "unknown config key cam.hiddden" in caplog.text

    def test_no_action_is_usage_error(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "atscalm.cli", "--out", str(tmp_path), "report"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "ERROR atscalm: nothing to do" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestConfigHandling:
    def test_unknown_key_named_and_usage_exit(self, tmp_path, caplog):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"cam": {"hiddden": 8}}')
        out = str(tmp_path / "out")
        assert run(["--config", str(cfg), "--out", out, "synth", "--n", "1"]) == 2
        assert "hiddden" in caplog.text

    @pytest.mark.parametrize("doc,key", [
        ('{"rate": "abc"}', "rate"),
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
