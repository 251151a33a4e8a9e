"""Command-line entry point wiring the whole pipeline.

`main` is the one runner. It resolves the config once: the ``--config``
file, then the command's flags (each sets one ``section.key`` through the
same schema). The seed is no config key: it is ``--seed`` (default 0), and
each command that draws hands it to its stage. `main` creates the one
output directory (``--out``, else $SMSAT_OUT, else ``./out``) and calls
``cmd(args, cfg, out)``. A command reads its inputs, never mutates them,
and returns the files it wrote; `main` lists them under the command's name
in ``artifacts.json``. ``report --print-default-config`` is answered before
all this and creates nothing. A stage gets its config section whole and
reads its own leaves. The log-mel front end is no config section: it is
fixed in `features`, an encoder checkpoint records it, and ``embed``
refuses a checkpoint that records another. `report` draws every chart
that can be drawn from an artifact; only ``validate --plot`` draws its
own, as its overlays need the audio.

Each analysis document is written once, as JSON. ``train-cam``'s
``cam_heldout_eval.json`` is built as ``evaluate --split test`` builds its
``evaluation.json``, by `_split_rows` and `classifier.evaluate`.

With a fixed ``--seed`` and ``--jobs 1`` the pipeline is a pure function
of its inputs: rerunning a command reproduces its artifacts byte for
byte. Wall-clock times go to the log, never into artifacts. The promise
assumes the same BLAS thread count (``OPENBLAS_NUM_THREADS`` and the like,
read once when numpy is imported): a GEMM may order its sums by how it
splits the work between threads. On the default chain's 144 feature rows,
one epoch of the default float32 CAM ends with different ``wh`` weights
at 1 and at 2 OpenBLAS threads (up to 1.2e-6 apart), and the epoch losses
part from the second epoch on.

Every CSV artifact has a header row, ',' between cells, RFC 4180 minimal
quoting (a cell holding ',', '"' or a newline is quoted, with '"'
doubled) and LF line ends; the CSV readers take the same dialect.

Exit codes: 0 success, 1 domain error (bad input data, I/O, an allocation
that does not fit), 2 usage or config error, including a flag value the
config schema rejects. Either error is logged as one named line on stderr.
A failure in one clip's work names the clip: by its manifest path in
``validate``, ``augment``, ``features`` and ``embed``, and when
``train-encoder`` loads it; by its id in a ``train-encoder`` view. A clip
that a manifest lists without a valid WAV header fails when the manifest
loads, named after the manifest and the clip.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import asdict
from pathlib import PurePath

import numpy as np

from . import augment as aug_mod
from . import classifier as cam_mod
from . import dsp, embedding_eval, encoder, features, plots, stats, tsne, validation
from .audio_io import (CLASS_TONE_HZ, LABELS, CorpusManifest, build_manifest, load_manifest,
                       manifest_of, parse_label, save_manifest, save_wav, synth_corpus)
from .config import RunConfig, load_config
from .util import (ConfigError, PipelineError, ensure_dir, json_text, read_float_csv,
                   read_json, write_csv, write_json)

log = logging.getLogger("atscalm")


def _write_svg(path: str, svg: str) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    return path


def _write_history(path: str, history: list[dict]) -> str:
    """One row per epoch, one column per key the trainer returns, in its order."""
    write_csv(path, list(history[0]), [list(h.values()) for h in history])
    return path


def cmd_synth(args, cfg: RunConfig, out: str) -> list[str]:
    corpus_dir = os.path.join(out, "corpus")
    manifest = synth_corpus(corpus_dir, cfg.synth, cfg.class_dir_map(), cfg.rate, args.seed)
    log.info("synthesized %d clips under %s", len(manifest.entries), corpus_dir)
    return [os.path.join(corpus_dir, e.path) for e in manifest.entries] + [
        os.path.join(corpus_dir, "manifest.json")]


def _load_corpus(args, cfg: RunConfig) -> CorpusManifest:
    if os.path.isdir(args.corpus):
        return build_manifest(args.corpus, cfg.class_dir_map())
    return load_manifest(args.corpus)


def cmd_validate(args, cfg: RunConfig, out: str) -> list[str]:
    manifest = _load_corpus(args, cfg)
    report = validation.validate_corpus(manifest, target_rate=cfg.rate, jobs=args.jobs)
    json_path = os.path.join(out, "validation.json")
    write_json(json_path, report)
    produced = [json_path]
    if args.plot:
        for label in LABELS:
            entry = next((e for e in manifest.entries if e.label == label), None)
            if entry is None:
                continue
            x = manifest.load_clip(entry, target_rate=cfg.rate)
            theo = validation.reconstruct_theoretical(
                dsp.analytic_envelope(x), cfg.rate, CLASS_TONE_HZ[label])
            wave_svg, spec_svg = plots.validation_overlay(x, theo, cfg.rate, label.value)
            for suffix, svg in (("wave", wave_svg), ("spectrum", spec_svg)):
                produced.append(_write_svg(
                    os.path.join(out, f"validation_{label.value}_{suffix}.svg"), svg))
    log.info("validation report at %s", json_path)
    return produced


def cmd_augment(args, cfg: RunConfig, out: str) -> list[str]:
    manifest = _load_corpus(args, cfg)
    aug_dir = ensure_dir(os.path.join(out, "augmented"))

    def work(entry, x):
        # without its anchor and '..' parts, the entry's path stays under aug_dir
        path = PurePath(os.path.splitext(entry.path)[0])
        stem = os.path.join(*[p for p in path.parts if p not in (path.anchor, os.pardir)])
        written = []
        for k, var in enumerate(aug_mod.augment_pipeline(x, cfg.rate, entry.clip_id,
                                                         cfg.augment, args.seed)):
            rel = f"{stem}.aug{k}.wav"
            full = os.path.join(aug_dir, rel)
            ensure_dir(os.path.dirname(full))
            save_wav(var, cfg.rate, full)
            written.append((rel, entry.label))
            del var   # not alive while the next variant is made
        return written

    variants = [f for written in manifest.map_clips(work, target_rate=cfg.rate, jobs=args.jobs)
                for f in written]
    originals = [(os.path.relpath(os.path.join(manifest.root, e.path), aug_dir), e.label)
                 for e in manifest.entries]
    man_path = os.path.join(aug_dir, "manifest.json")
    save_manifest(manifest_of(aug_dir, originals + variants), man_path)
    log.info("wrote %d augmented files under %s", len(variants), aug_dir)
    return [os.path.join(aug_dir, rel) for rel, _ in variants] + [man_path]


def cmd_features(args, cfg: RunConfig, out: str) -> list[str]:
    manifest = _load_corpus(args, cfg)

    rows = list(manifest.map_clips(lambda e, x: (
        e.clip_id, e.label.value, features.extract_features(x, cfg.rate)),
        target_rate=cfg.rate, jobs=args.jobs))
    path = os.path.join(out, "features.csv")
    features.write_features_csv(path, rows)
    log.info("wrote %d feature rows to %s", len(rows), path)
    return [path]


def cmd_train_encoder(args, cfg: RunConfig, out: str) -> list[str]:
    manifest = _load_corpus(args, cfg)
    model, history = encoder.train_encoder(manifest, cfg.encoder, cfg.augment, args.seed,
                                           target_rate=cfg.rate, jobs=args.jobs)
    ckpt = os.path.join(out, "encoder.ckpt")
    encoder.save_encoder(model, ckpt)
    hist_path = _write_history(os.path.join(out, "encoder_history.csv"), history)
    side = "val" if "val_cossim" in history[-1] else "train"
    log.info("final %s cosine similarity %.4f", side, history[-1][f"{side}_cossim"])
    return [ckpt, hist_path]


def cmd_embed(args, cfg: RunConfig, out: str) -> list[str]:
    manifest = _load_corpus(args, cfg)
    model, meta = encoder.load_encoder(args.checkpoint)
    if meta.get("feature_params") != features.FRONT_END:   # a missing entry matches nothing
        raise PipelineError(f"{args.checkpoint}: checkpoint feature params do not match "
                            f"the log-mel front end")
    x = encoder.embed_corpus(model, manifest, target_rate=cfg.rate, jobs=args.jobs)
    path = os.path.join(out, "embeddings.csv")
    write_csv(path, ["id", "label"] + [f"e{i}" for i in range(model.cfg.proj_dim)],
              [[e.clip_id, e.label.value] + [float(v) for v in row]
               for e, row in zip(manifest.entries, x)])
    log.info("wrote %d embeddings to %s", len(x), path)
    return [path]


def cmd_eval_embeddings(args, cfg: RunConfig, out: str) -> list[str]:
    _, keys, x = read_float_csv(args.embeddings, ["id", "label"])
    ids = [cid for cid, _ in keys]
    labels = [parse_label(lab) for _, lab in keys]
    geo_path = os.path.join(out, "embedding_geometry.json")
    write_json(geo_path, embedding_eval.geometry_report(ids, labels, x))
    produced = [geo_path]
    if len(ids) >= tsne.MIN_POINTS:
        y, kl_history = tsne.tsne(x, cfg.tsne, args.seed)
        tsne_path = os.path.join(out, "tsne.csv")
        write_csv(tsne_path, ["id", "label", "x", "y"],
                  [[cid, lab.value, float(px), float(py)]
                   for cid, lab, (px, py) in zip(ids, labels, y)])
        kl_path = os.path.join(out, "tsne_kl.csv")
        write_csv(kl_path, ["iter", "kl"], list(enumerate(kl_history)))
        produced += [tsne_path, kl_path]
    else:
        log.warning("fewer than %d embeddings: skipping the 2-d projection", tsne.MIN_POINTS)
    return produced


def _split_rows(rows, split_info, split: str, source: str) -> list:
    """The feature rows whose ids ``split_info`` (a checkpoint's ``split``
    header) lists under ``<split>_ids``, in file order."""
    ids = split_info.get(f"{split}_ids", []) if isinstance(split_info, dict) else None
    if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
        raise PipelineError(f"{source}: the split header is not an object of id lists")
    if not ids:
        raise PipelineError(f"{source}: checkpoint carries no {split} split ids")
    wanted = set(ids)
    rows = [r for r in rows if r[0] in wanted]
    if not rows:
        raise PipelineError(f"no feature rows match the stored {split} split")
    return rows


def cmd_train_cam(args, cfg: RunConfig, out: str) -> list[str]:
    rows = features.read_features_csv(args.features)
    model, history, split_info = cam_mod.train_cam(rows, cfg.cam, args.seed)
    ckpt = os.path.join(out, "cam.ckpt")
    cam_mod.save_cam(model, ckpt, split_info)
    hist_path = _write_history(os.path.join(out, "cam_history.csv"), history)
    report = cam_mod.evaluate(model, _split_rows(rows, split_info, "test", ckpt))
    report_path = os.path.join(out, "cam_heldout_eval.json")
    write_json(report_path, report)
    log.info("held-out accuracy %.4f", report["overall_accuracy"])
    return [ckpt, hist_path, report_path]


def cmd_evaluate(args, cfg: RunConfig, out: str) -> list[str]:
    rows = features.read_features_csv(args.features)
    model, meta = cam_mod.load_cam(args.checkpoint)
    if args.split != "all":
        rows = _split_rows(rows, meta.get("split", {}), args.split, args.checkpoint)
    report = cam_mod.evaluate(model, rows)
    json_path = os.path.join(out, "evaluation.json")
    write_json(json_path, report)
    log.info("overall accuracy %.4f on %d rows", report["overall_accuracy"], len(rows))
    return [json_path]


def cmd_calmness(args, cfg: RunConfig, out: str) -> list[str]:
    rows = features.read_features_csv(args.features)
    # (n, 25) even at n = 0, so `calmness_report` holds the one class-size check
    groups = {lab: np.array([vec for _, label, vec in rows if label is lab])
              .reshape(-1, features.N_FEATURES) for lab in LABELS}
    report = stats.calmness_report(groups, list(features.FEATURE_NAMES))
    json_path = os.path.join(out, "calmness.json")
    write_json(json_path, report)
    log.info("calmest class by majority vote: %s (tally %s)",
             report["vote"]["calmest_overall"], report["vote"]["tally"])
    return [json_path]


def cmd_report(args, cfg: RunConfig, out: str) -> list[str]:
    if not (args.plot_history or args.plot_tsne):
        raise ConfigError("nothing to do: pass --print-default-config, --plot-history, "
                          "or --plot-tsne")
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
    return produced


def _read_index(path: str) -> dict:
    """The artifact index at ``path``; {} before a command has written one."""
    try:
        index = read_json(path) if os.path.exists(path) else {}
    except ValueError:
        index = None
    if not isinstance(index, dict):
        raise PipelineError(f"{path}: not a JSON object mapping commands to files")
    return index


def _jobs(text: str) -> int:
    """``--jobs``: a worker count, so an integer >= 1."""
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atscalm",
        description="Acoustic time-series calmness analysis pipeline")
    parser.add_argument("--config", help="JSON config file (defaults are used otherwise)")
    parser.add_argument("--seed", type=int, default=0,
                        help="the run's one seed, handed to every stage that draws")
    parser.add_argument("--jobs", type=_jobs, default=1,
                        help="per-clip parallelism; 1 is the reference mode")
    parser.add_argument("--out", default=None,
                        help="output directory (default $SMSAT_OUT or ./out)")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    # A command flag whose dest is a dotted config key overrides that key;
    # left unset, it is absent from the namespace (SUPPRESS).

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--n", type=int, dest="synth.n_per_class", default=argparse.SUPPRESS,
                   help="clips per class")
    p.add_argument("--duration", type=float, dest="synth.duration_s", default=argparse.SUPPRESS,
                   help="seconds per clip")
    p.add_argument("--snr-db", type=float, dest="synth.snr_db", default=argparse.SUPPRESS,
                   help="additive noise SNR")
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
    p.add_argument("--epochs", type=int, dest="encoder.epochs", default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_train_encoder)

    p = sub.add_parser("embed", help="embed a corpus with a trained encoder")
    p.add_argument("corpus")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("eval-embeddings", help="class geometry + 2-d projection")
    p.add_argument("embeddings", help="embeddings.csv from the embed command")
    p.set_defaults(func=cmd_eval_embeddings)

    p = sub.add_parser("train-cam", help="train the BiLSTM classifier on features")
    p.add_argument("features", help="features.csv")
    p.add_argument("--epochs", type=int, dest="cam.epochs", default=argparse.SUPPRESS)
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
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    if args.command == "report" and args.print_default_config:
        print(json_text(asdict(RunConfig())))
        return 0
    try:
        overrides = {key: value for key, value in vars(args).items() if "." in key}
        cfg = load_config(args.config, overrides)
        out = ensure_dir(args.out or os.environ.get("SMSAT_OUT") or "out")
        index_path = os.path.join(out, "artifacts.json")
        index = _read_index(index_path)
        paths = args.func(args, cfg, out)
        index[args.command] = sorted(os.path.relpath(p, out).replace(os.sep, "/") for p in paths)
        write_json(index_path, index)
        return 0
    except ConfigError as exc:
        log.error("%s", exc)
        return 2
    except (PipelineError, OSError) as exc:
        log.error("%s", exc)
        return 1
    except MemoryError as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
