"""Command-line entry point wiring the whole pipeline.

Every command reads inputs, never mutates them, and writes all artifacts
under the output directory (``--out``, falling back to $SMSAT_OUT, then
``./out``). With a fixed ``--seed`` and ``--jobs 1`` the pipeline is a pure
function of its inputs: rerunning a command reproduces its artifacts
byte for byte. Wall-clock times go to the log, never into artifacts.

Every CSV artifact has a header row, ',' between cells, RFC 4180 minimal
quoting (a cell holding ',', '"' or a newline is quoted, with '"'
doubled) and LF line ends; the CSV readers take the same dialect.

Exit codes: 0 success, 1 domain error, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import augment as aug_mod
from . import classifier as cam_mod
from . import embedding_eval, encoder, features, plots, stats, tsne, validation
from .audio_io import (CLASS_TONE_HZ, LABELS, CorpusManifest, ManifestEntry,
                       build_manifest, load_manifest, parse_label, save_manifest,
                       save_wav, synth_corpus)
from .config import RunConfig, load_config
from .util import (ConfigError, PipelineError, ensure_dir, json_sanitize,
                   parallel_map, read_float_csv, read_json, write_csv, write_json)

log = logging.getLogger("atscalm")


def _out_dir(args) -> str:
    out = args.out or os.environ.get("SMSAT_OUT") or "out"
    return ensure_dir(out)


def _config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg.override_seed(args.seed)
    return cfg


def _record_artifacts(out: str, command: str, paths: list[str]) -> None:
    """Per-command list of produced files (paths relative to the out dir)."""
    index_path = os.path.join(out, "artifacts.json")
    index = read_json(index_path) if os.path.exists(index_path) else {}
    index[command] = sorted(os.path.relpath(p, out).replace(os.sep, "/") for p in paths)
    write_json(index_path, index)


def _write_svg(path: str, svg: str) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    return path


def cmd_synth(args) -> int:
    cfg = _config(args)
    out = _out_dir(args)
    corpus_dir = os.path.join(out, "corpus")
    synth_cfg = replace(
        cfg.synth,
        n_per_class=args.n or cfg.synth.n_per_class,
        duration_s=args.duration or cfg.synth.duration_s,
        snr_db=cfg.synth.snr_db if args.snr_db is None else args.snr_db,
    )
    manifest = synth_corpus(corpus_dir, synth_cfg, cfg.class_dir_map(), cfg.rate)
    produced = [os.path.join(corpus_dir, e.path) for e in manifest.entries]
    produced.append(os.path.join(corpus_dir, "manifest.json"))
    _record_artifacts(out, "synth", produced)
    log.info("synthesized %d clips under %s", len(manifest.entries), corpus_dir)
    return 0


def _load_corpus(args, cfg: RunConfig) -> CorpusManifest:
    path = args.corpus
    if os.path.isdir(path):
        return build_manifest(path, cfg.class_dir_map())
    return load_manifest(path)


def cmd_validate(args) -> int:
    cfg = _config(args)
    out = _out_dir(args)
    manifest = _load_corpus(args, cfg)
    report = validation.validate_corpus(manifest, target_rate=cfg.rate, jobs=args.jobs)
    json_path = os.path.join(out, "validation.json")
    csv_path = os.path.join(out, "validation.csv")
    validation.write_validation_report(report, json_path, csv_path)
    produced = [json_path, csv_path]
    if args.plot:
        for label in LABELS:
            entry = next((e for e in manifest.entries if e.label == label), None)
            if entry is None:
                continue
            clip = manifest.load_clip(entry, target_rate=cfg.rate)
            theo = validation.reconstruct_theoretical(clip, CLASS_TONE_HZ[label])
            wave_svg, spec_svg = plots.validation_overlay(
                clip.samples, theo, clip.rate, label.value)
            for suffix, svg in (("wave", wave_svg), ("spectrum", spec_svg)):
                produced.append(_write_svg(
                    os.path.join(out, f"validation_{label.value}_{suffix}.svg"), svg))
    _record_artifacts(out, "validate", produced)
    log.info("validation report at %s", json_path)
    return 0


def cmd_augment(args) -> int:
    cfg = _config(args)
    out = _out_dir(args)
    manifest = _load_corpus(args, cfg)
    aug_dir = ensure_dir(os.path.join(out, "augmented"))
    entries = []
    produced = []
    for entry in manifest.entries:
        clip = manifest.load_clip(entry, target_rate=cfg.rate)
        rel_orig = os.path.relpath(
            os.path.join(manifest.root, entry.path), aug_dir).replace(os.sep, "/")
        entries.append(ManifestEntry(rel_orig, entry.label, clip.duration_s, clip.rate))
        for var in aug_mod.augment_pipeline(clip, cfg.augment):
            rel = f"{os.path.splitext(entry.path)[0]}.aug{var.id.rsplit('aug', 1)[1]}.wav"
            full = os.path.join(aug_dir, rel)
            ensure_dir(os.path.dirname(full))
            save_wav(var, full)
            entries.append(ManifestEntry(
                rel.replace(os.sep, "/"), entry.label, var.duration_s, var.rate))
            produced.append(full)
    entries.sort(key=lambda e: e.path)
    aug_manifest = CorpusManifest(entries=entries, root=aug_dir)
    man_path = os.path.join(aug_dir, "manifest.json")
    save_manifest(aug_manifest, man_path)
    produced.append(man_path)
    _record_artifacts(out, "augment", produced)
    log.info("wrote %d augmented files under %s", len(produced) - 1, aug_dir)
    return 0


def _extract_rows(manifest: CorpusManifest, cfg: RunConfig, jobs: int):
    def work(entry):
        clip = manifest.load_clip(entry, target_rate=cfg.rate)
        return clip.id, entry.label.value, features.extract_features(clip, cfg.features)

    return parallel_map(work, manifest.entries, jobs)


def cmd_features(args) -> int:
    cfg = _config(args)
    out = _out_dir(args)
    manifest = _load_corpus(args, cfg)
    rows = _extract_rows(manifest, cfg, args.jobs)
    path = os.path.join(out, "features.csv")
    features.write_features_csv(path, rows)
    _record_artifacts(out, "features", [path])
    log.info("wrote %d feature rows to %s", len(rows), path)
    return 0


def cmd_train_encoder(args) -> int:
    cfg = _config(args)
    out = _out_dir(args)
    manifest = _load_corpus(args, cfg)
    model, history = encoder.train_encoder(
        manifest, cfg.encoder.architecture(), cfg.augment, cfg.features,
        epochs=args.epochs or cfg.encoder.epochs, lr=cfg.encoder.lr,
        seed=cfg.encoder.seed, batch_pairs=cfg.encoder.batch_pairs,
        val_fraction=cfg.encoder.val_fraction, target_rate=cfg.rate)
    ckpt = os.path.join(out, "encoder.ckpt")
    encoder.save_encoder(model, ckpt, cfg.features)
    hist_path = os.path.join(out, "encoder_history.csv")
    write_csv(hist_path,
              ["epoch", "train_loss", "val_loss", "train_cossim", "val_cossim"],
              [[h["epoch"], h["train_loss"], h["val_loss"], h["train_cossim"], h["val_cossim"]]
               for h in history])
    _record_artifacts(out, "train-encoder", [ckpt, hist_path])
    log.info("final val cosine similarity %.4f", history[-1]["val_cossim"])
    return 0


def cmd_embed(args) -> int:
    cfg = _config(args)
    out = _out_dir(args)
    manifest = _load_corpus(args, cfg)
    model, meta = encoder.load_encoder(args.checkpoint)
    stored = meta.get("feature_params")
    if stored is not None and stored != asdict(cfg.features):
        raise PipelineError("checkpoint feature params do not match the current config")
    embs = encoder.embed_corpus(model, manifest, cfg.features,
                                target_rate=cfg.rate, jobs=args.jobs)
    path = os.path.join(out, "embeddings.csv")
    d = model.cfg.proj_dim
    write_csv(path, ["id", "label"] + [f"e{i}" for i in range(d)],
              [[e.clip_id, e.label.value] + [float(v) for v in e.vec] for e in embs])
    _record_artifacts(out, "embed", [path])
    log.info("wrote %d embeddings to %s", len(embs), path)
    return 0


def _read_embeddings(path: str) -> list[encoder.Embedding]:
    _, keys, values = read_float_csv(path, ["id", "label"])
    return [encoder.Embedding(vec=vec, clip_id=cid, label=parse_label(lab))
            for (cid, lab), vec in zip(keys, values)]


def cmd_eval_embeddings(args) -> int:
    cfg = _config(args)
    out = _out_dir(args)
    embs = _read_embeddings(args.embeddings)
    geo_path = os.path.join(out, "embedding_geometry.json")
    write_json(geo_path, json_sanitize(embedding_eval.geometry_report(embs)))
    produced = [geo_path]
    if len(embs) >= 5:
        x = np.stack([e.vec for e in embs])
        perplexity = min(cfg.tsne.perplexity, (len(embs) - 1) / 3.0)
        y, kl_history = tsne.tsne(x, perplexity=perplexity, lr=cfg.tsne.lr,
                                  iters=cfg.tsne.iters, seed=cfg.tsne.seed)
        tsne_path = os.path.join(out, "tsne.csv")
        write_csv(tsne_path, ["id", "label", "x", "y"],
                  [[e.clip_id, e.label.value, float(px), float(py)]
                   for e, (px, py) in zip(embs, y)])
        kl_path = os.path.join(out, "tsne_kl.csv")
        write_csv(kl_path, ["iter", "kl"], list(enumerate(kl_history)))
        produced += [tsne_path, kl_path]
        if args.plot:
            svg = plots.scatter_chart(
                [(float(px), float(py), e.label.value) for e, (px, py) in zip(embs, y)],
                "2-d embedding map")
            produced.append(_write_svg(os.path.join(out, "tsne.svg"), svg))
    else:
        log.warning("fewer than 5 embeddings: skipping the 2-d projection")
    _record_artifacts(out, "eval-embeddings", produced)
    return 0


def cmd_train_cam(args) -> int:
    cfg = _config(args)
    out = _out_dir(args)
    rows = features.read_features_csv(args.features)
    cam_cfg = cfg.cam
    if args.epochs:
        cam_cfg = replace(cam_cfg, epochs=args.epochs)
    model, history, report, split_info = cam_mod.train_cam(rows, cam_cfg)
    ckpt = os.path.join(out, "cam.ckpt")
    cam_mod.save_cam(model, ckpt, split_info)
    hist_path = os.path.join(out, "cam_history.csv")
    write_csv(hist_path, ["epoch", "loss", "acc"],
              [[h["epoch"], h["loss"], h["acc"]] for h in history])
    report_path = os.path.join(out, "cam_heldout_eval.json")
    write_json(report_path, json_sanitize(report.to_dict()))
    _record_artifacts(out, "train-cam", [ckpt, hist_path, report_path])
    log.info("held-out accuracy %.4f", report.overall_accuracy)
    return 0


def cmd_evaluate(args) -> int:
    cfg = _config(args)
    out = _out_dir(args)
    rows = features.read_features_csv(args.features)
    model, meta = cam_mod.load_cam(args.checkpoint)
    if args.split != "all":
        wanted = set(meta.get("split", {}).get(f"{args.split}_ids", []))
        if not wanted:
            raise PipelineError(f"checkpoint carries no {args.split} split ids")
        rows = [r for r in rows if r[0] in wanted]
        if not rows:
            raise PipelineError(f"no feature rows match the stored {args.split} split")
    report = cam_mod.evaluate(model, rows)
    json_path = os.path.join(out, "evaluation.json")
    write_json(json_path, json_sanitize(report.to_dict()))
    conf_path = os.path.join(out, "confusion.csv")
    write_csv(conf_path, ["true\\pred"] + [lab.value for lab in LABELS],
              [[lab.value] + report.confusion[i].tolist() for i, lab in enumerate(LABELS)])
    _record_artifacts(out, "evaluate", [json_path, conf_path])
    log.info("overall accuracy %.4f on %d rows", report.overall_accuracy, len(rows))
    return 0


def cmd_calmness(args) -> int:
    cfg = _config(args)
    out = _out_dir(args)
    rows = features.read_features_csv(args.features)
    groups = {}
    for lab in LABELS:
        mat = [vec for _, name, vec in rows if name == lab.value]
        if len(mat) < 2:
            raise PipelineError(f"class {lab.value} has {len(mat)} feature rows; need >= 2")
        groups[lab] = np.stack(mat)
    report = stats.calmness_report(groups, list(features.FEATURE_NAMES))
    json_path = os.path.join(out, "calmness.json")
    csv_path = os.path.join(out, "calmness.csv")
    stats.write_calmness_json(report, json_path)
    stats.write_calmness_csv(report, csv_path)
    _record_artifacts(out, "calmness", [json_path, csv_path])
    log.info("calmest class by majority vote: %s (tally %s)",
             report.calmest_overall, report.tally)
    return 0


def cmd_report(args) -> int:
    if args.print_default_config:
        print(json.dumps(json_sanitize(asdict(RunConfig())), sort_keys=True, indent=2))
        return 0
    out = _out_dir(args)
    produced = []
    if args.plot_history:
        header, _, values = read_float_csv(args.plot_history, [])
        series = {name: (values[:, 0], values[:, j]) for j, name in enumerate(header[1:], start=1)}
        svg = plots.line_chart(series, os.path.basename(args.plot_history), header[0], "value")
        path = os.path.join(out, os.path.splitext(os.path.basename(args.plot_history))[0] + ".svg")
        produced.append(_write_svg(path, svg))
    if args.plot_tsne:
        _, keys, values = read_float_csv(args.plot_tsne, ["id", "label"])
        if values.shape[1] < 2:
            raise PipelineError(f"{args.plot_tsne}: expected x and y columns after id,label")
        svg = plots.scatter_chart(
            [(x, y, lab) for (_, lab), (x, y) in zip(keys, values[:, :2])], "2-d embedding map")
        path = os.path.join(out, os.path.splitext(os.path.basename(args.plot_tsne))[0] + ".svg")
        produced.append(_write_svg(path, svg))
    if not produced:
        print("nothing to do: pass --print-default-config, --plot-history, or --plot-tsne")
        return 2
    _record_artifacts(out, "report", produced)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atscalm",
        description="Acoustic time-series calmness analysis pipeline")
    parser.add_argument("--config", help="JSON config file (defaults are used otherwise)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override every nested stage seed")
    parser.add_argument("--jobs", type=int, default=1,
                        help="per-clip parallelism; 1 is the reference mode")
    parser.add_argument("--out", default=None,
                        help="output directory (default $SMSAT_OUT or ./out)")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--n", type=int, default=None, help="clips per class")
    p.add_argument("--duration", type=float, default=None, help="seconds per clip")
    p.add_argument("--snr-db", type=float, default=None, help="additive noise SNR")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("validate", help="envelope/RMSE/spectral validation report")
    p.add_argument("corpus", help="manifest.json or corpus directory")
    p.add_argument("--plot", action="store_true", help="emit per-class overlay SVGs")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("augment", help="write augmented variants plus a new manifest")
    p.add_argument("corpus")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("features", help="extract the 25-dim feature CSV")
    p.add_argument("corpus")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train-encoder", help="contrastive encoder training")
    p.add_argument("corpus")
    p.add_argument("--epochs", type=int, default=None)
    p.set_defaults(func=cmd_train_encoder)

    p = sub.add_parser("embed", help="embed a corpus with a trained encoder")
    p.add_argument("corpus")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("eval-embeddings", help="class geometry + 2-d projection")
    p.add_argument("embeddings", help="embeddings.csv from the embed command")
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_eval_embeddings)

    p = sub.add_parser("train-cam", help="train the BiLSTM classifier on features")
    p.add_argument("features", help="features.csv")
    p.add_argument("--epochs", type=int, default=None)
    p.set_defaults(func=cmd_train_cam)

    p = sub.add_parser("evaluate", help="classification metrics for a checkpoint")
    p.add_argument("features")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=["all", "train", "test"], default="all")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("calmness", help="per-feature group statistics and vote")
    p.add_argument("features")
    p.set_defaults(func=cmd_calmness)

    p = sub.add_parser("report", help="config dump and SVG rendering")
    p.add_argument("--print-default-config", action="store_true")
    p.add_argument("--plot-history", default=None)
    p.add_argument("--plot-tsne", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        log.error("%s", exc)
        return 2
    except PipelineError as exc:
        log.error("%s", exc)
        return 1
    except OSError as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
