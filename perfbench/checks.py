"""Output checks for each CLI stage, so a fast but broken stage counts as failed.

Each check reads the stage's artifacts through the public atscalm API and
returns a list of problems (empty when the output is right). Artifact
digests are recorded for information only: crop-first augmentation changes
encoder outputs by design, so the hashes are not a gate.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import replace

import numpy as np

from atscalm import classifier, encoder, features
from atscalm.audio_io import load_manifest
from atscalm.augment import AugmentConfig
from atscalm.util import read_csv, read_json

CLIP_SECONDS = 10.0
VARIANTS = AugmentConfig().variants_per_clip


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


def _csv_matrix(path: str, skip: int) -> np.ndarray:
    _, rows = read_csv(path)
    return np.array([[float(v) for v in r[skip:]] for r in rows], dtype=np.float64)


def _check_corpus(manifest_path: str, n_clips: int, duration: float | None) -> list[str]:
    manifest = load_manifest(manifest_path)
    problems = []
    if len(manifest.entries) != n_clips:
        problems.append(f"{manifest_path}: {len(manifest.entries)} entries, expected {n_clips}")
    for e in manifest.entries:
        if not os.path.isfile(os.path.join(manifest.root, e.path)):
            problems.append(f"{manifest_path}: missing {e.path}")
        if duration is not None and abs(e.duration_s - duration) > 1e-9:
            problems.append(f"{e.path}: {e.duration_s} s, expected {duration} s")
    return problems


def _check_features(path: str, n_rows: int) -> list[str]:
    rows = features.read_features_csv(path)
    problems = []
    if len(rows) != n_rows:
        problems.append(f"{path}: {len(rows)} rows, expected {n_rows}")
    bad = [cid for cid, _, vec in rows if vec.size != features.N_FEATURES or not _finite(vec)]
    if bad:
        problems.append(f"{path}: {len(bad)} rows without {features.N_FEATURES} finite features")
    return problems


def check_synth(out, n_clips):
    return _check_corpus(os.path.join(out, "corpus", "manifest.json"), n_clips, CLIP_SECONDS)


def check_validate(out, n_clips):
    per_clip = read_json(os.path.join(out, "validation.json"))["per_clip"]
    problems = []
    if len(per_clip) != n_clips:
        problems.append(f"validation.json: {len(per_clip)} clips, expected {n_clips}")
    numbers = [v for rec in per_clip for k, v in rec.items() if k != "clip_id"]
    if not _finite(numbers):
        problems.append("validation.json: non-finite per-clip values")
    return problems


def check_augment(out, n_clips):
    aug = os.path.join(out, "augmented")
    problems = _check_corpus(os.path.join(aug, "manifest.json"), n_clips * (1 + VARIANTS), None)
    per_clip: dict[str, int] = {}
    for root, _, names in os.walk(aug):
        for name in names:
            if name.endswith(".wav"):
                stem = os.path.relpath(os.path.join(root, name), aug).split(".aug")[0]
                per_clip[stem] = per_clip.get(stem, 0) + 1
    if len(per_clip) != n_clips or set(per_clip.values()) != {VARIANTS}:
        problems.append(f"augmented WAVs per clip {sorted(per_clip.values())}, "
                        f"expected {VARIANTS} for each of {n_clips} clips")
    return problems


def check_features(out, n_clips):
    # corpus-long extracts from the augmented manifest, cam-default from the raw corpus
    n_rows = n_clips * (1 + VARIANTS) if os.path.isdir(os.path.join(out, "augmented")) else n_clips
    return _check_features(os.path.join(out, "features.csv"), n_rows)


def check_calmness(out, n_clips):
    report = read_json(os.path.join(out, "calmness.json"))
    problems = []
    if [r["feature"] for r in report["features"]] != list(features.FEATURE_NAMES):
        problems.append("calmness.json: feature list differs from the 25 features")
    if report["vote"]["calmest_overall"] not in ("SM", "M", "NS"):
        problems.append(f"calmness.json: no calmest class ({report['vote']['calmest_overall']!r})")
    return problems


def check_train_encoder(out, n_clips):
    model, _ = encoder.load_encoder(os.path.join(out, "encoder.ckpt"))
    problems = []
    if model.cfg != encoder.EncoderConfig():
        problems.append(f"encoder checkpoint config {model.cfg} is not the default")
    hist = _csv_matrix(os.path.join(out, "encoder_history.csv"), 0)
    if hist.shape[0] < 1 or not _finite(hist):
        problems.append("encoder_history.csv: empty or non-finite")
    return problems


def check_embed(out, n_clips):
    emb = _csv_matrix(os.path.join(out, "embeddings.csv"), 2)
    problems = []
    if emb.shape != (n_clips, encoder.EncoderConfig().proj_dim):
        problems.append(f"embeddings.csv: shape {emb.shape}")
    if not _finite(emb):
        problems.append("embeddings.csv: non-finite embeddings")
    return problems


def check_eval_embeddings(out, n_clips):
    geo = read_json(os.path.join(out, "embedding_geometry.json"))
    problems = []
    if sum(geo["n_per_class"].values()) != n_clips:
        problems.append(f"embedding_geometry.json: counts {geo['n_per_class']}")
    xy = _csv_matrix(os.path.join(out, "tsne.csv"), 2)
    if xy.shape != (n_clips, 2) or not _finite(xy):
        problems.append(f"tsne.csv: shape {xy.shape} or non-finite")
    return problems


def _test_rows(out) -> int:
    _, meta = classifier.load_cam(os.path.join(out, "cam.ckpt"))
    return len(meta["split"]["test_ids"])


def _confusion_problems(path: str, n_test: int) -> list[str]:
    confusion = np.array(read_json(path)["confusion"])
    if confusion.shape != (3, 3) or int(confusion.sum()) != n_test:
        return [f"{os.path.basename(path)}: confusion sums to {confusion.sum()}, expected {n_test}"]
    return []


def check_train_cam(out, n_clips):
    model, _ = classifier.load_cam(os.path.join(out, "cam.ckpt"))
    problems = []
    shipped = classifier.CamConfig()
    if replace(model.cfg, epochs=shipped.epochs) != shipped:
        problems.append(f"cam checkpoint config {model.cfg} differs from the shipped one")
    hist = _csv_matrix(os.path.join(out, "cam_history.csv"), 0)
    if hist.shape[0] != model.cfg.epochs or not _finite(hist):
        problems.append("cam_history.csv: wrong length or non-finite")
    return problems + _confusion_problems(os.path.join(out, "cam_heldout_eval.json"), _test_rows(out))


def check_evaluate(out, n_clips):
    return _confusion_problems(os.path.join(out, "evaluation.json"), _test_rows(out))


CHECKS = {
    "synth": check_synth,
    "validate": check_validate,
    "augment": check_augment,
    "features": check_features,
    "calmness": check_calmness,
    "train-encoder": check_train_encoder,
    "embed": check_embed,
    "eval-embeddings": check_eval_embeddings,
    "train-cam": check_train_cam,
    "evaluate": check_evaluate,
}


def check_stage(command: str, out: str, n_clips: int) -> list[str]:
    """Problems with one stage's outputs; an unreadable artifact is a problem."""
    try:
        return CHECKS[command](out, n_clips)
    except Exception as exc:  # any failure to read the artifacts fails the stage
        return [f"{command}: cannot check outputs: {type(exc).__name__}: {exc}"]


def artifact_digest(out: str, command: str) -> str:
    """sha256 over the files the stage lists in artifacts.json, in order."""
    index = read_json(os.path.join(out, "artifacts.json"))
    h = hashlib.sha256()
    for rel in index.get(command, []):
        h.update(rel.encode())
        with open(os.path.join(out, rel), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()
