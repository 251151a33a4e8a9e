"""All 11 CLI commands on a tiny config: the end-to-end tests run this chain,
and so does the check that every layer the benchmark traces is still reached.

    python tests/tiny_chain.py OUT

runs the chain into the new directory OUT and prints one ``sha256  relpath``
line per file it wrote, sorted by path, so two checkouts are compared
byte for byte with one ``diff`` of their outputs.
"""

import hashlib
import json
import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from atscalm.cli import main

DURATION_S = 1.0
TINY_CONFIG = {"encoder": {"widths": [8, 16, 32, 64], "epochs": 2, "frames": 64},
               "cam": {"hidden": 16, "epochs": 2}}


def chain_steps(out):
    """The 11 commands in dependency order, each reading its inputs under ``out``."""
    corpus = os.path.join(out, "corpus")
    feats = os.path.join(out, "features.csv")
    return [
        ["synth", "--n", "2", "--duration", str(DURATION_S)],
        ["validate", corpus, "--plot"],
        ["augment", os.path.join(corpus, "manifest.json")],
        ["features", os.path.join(corpus, "manifest.json")],
        ["calmness", feats],
        ["train-encoder", corpus],
        ["embed", corpus, "--checkpoint", os.path.join(out, "encoder.ckpt")],
        ["eval-embeddings", os.path.join(out, "embeddings.csv")],
        ["train-cam", feats],
        ["evaluate", feats, "--checkpoint", os.path.join(out, "cam.ckpt"), "--split", "test"],
        ["report", "--plot-history", os.path.join(out, "cam_history.csv"),
         "--plot-tsne", os.path.join(out, "tsne.csv")],
    ]


def run_chain(out, jobs=1):
    """All 11 commands on a tiny synthetic corpus, at seed 3."""
    os.makedirs(out)
    cfg = os.path.join(out, "tiny.json")
    with open(cfg, "w") as fh:
        json.dump(TINY_CONFIG, fh)
    base = ["--config", cfg, "--seed", "3", "--jobs", str(jobs), "--out", out]
    for step in chain_steps(out):
        assert main(base + step) == 0, step


def digests(out):
    """``sha256  relpath`` for every file under ``out``, sorted by path."""
    lines = []
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append((os.path.relpath(path, out).replace(os.sep, "/"), digest))
    return [f"{digest}  {rel}" for rel, digest in sorted(lines)]


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/tiny_chain.py OUT")
    run_chain(sys.argv[1])
    print("\n".join(digests(sys.argv[1])))
