"""The benchmark's contract with ``src/``: every layer perfbench traces is still
reached by the CLI, ``count_flops`` still equals the conv FLOPs computed
from traced shapes plus the projection head, and the trained stages at the
shipped defaults pass perfbench's output checks.

A refactor that renames or unbinds a traced function, changes the encoder
without changing ``count_flops``, or changes what a checkpoint's config holds
breaks perfbench without failing any other test. The tracer patches the
package in place, so the traced chain runs in a subprocess.
"""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap

from atscalm.cli import main
from atscalm.nn.checkpoint import load_checkpoint

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = textwrap.dedent("""
    import json, os, tempfile
    import tiny_chain   # imports atscalm.cli, so install() sees every binding
    import tracer

    tr = tracer.install("contract")
    with tempfile.TemporaryDirectory() as d:
        tiny_chain.run_chain(os.path.join(d, "a"))
    reached = {span[0] for span in tr.spans} | set(tr.counts)
    fc = tr.flopcheck
    print(json.dumps({
        "missing": sorted(k for k in tracer.RUNS_ON if k not in reached),
        "unexplained_flops": fc["count_flops"] - fc["traced_conv_flops"] - fc["head_flops"],
    }))
""")


def test_traced_layers_reached_and_flops_explained(tmp_path):
    path = [os.path.join(ROOT, d) for d in ("src", "perfbench", "tests")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path + [os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["missing"] == []
    assert result["unexplained_flops"] == 0


def test_shipped_defaults_pass_the_benchmark_checks(tmp_path):
    """perfbench's checks compare each checkpoint's config with the shipped
    `EncoderConfig()` and `CamConfig()`; one epoch of each trainer at every
    other default, and each checkpoint's reader, passes them. The shipped
    cam.ckpt stores its 10 parameters as ``<f4`` and its z-score buffers
    as ``<f8``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", os.path.join(ROOT, "perfbench", "checks.py"))
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    out = str(tmp_path)
    corpus, feats = os.path.join(out, "corpus"), os.path.join(out, "features.csv")
    for step in (["synth", "--n", "2", "--duration", "1"],
                 ["features", corpus],
                 ["train-encoder", corpus, "--epochs", "1"],
                 ["embed", corpus, "--checkpoint", os.path.join(out, "encoder.ckpt")],
                 ["train-cam", feats, "--epochs", "1"],
                 ["evaluate", feats, "--checkpoint", os.path.join(out, "cam.ckpt"),
                  "--split", "test"]):
        assert main(["--out", out] + step) == 0, step
    stages = ("train-encoder", "embed", "train-cam", "evaluate")
    assert {c: checks.check_stage(c, out, 6) for c in stages} == {c: [] for c in stages}
    arrays, _ = load_checkpoint(os.path.join(out, "cam.ckpt"))
    layout = {name: a.dtype.str for name, a in arrays.items()}
    params = ([f"{d}.{k}" for d in ("fwd", "bwd") for k in ("wx", "wh", "b")]
              + [f"{fc}.{k}" for fc in ("fc1", "fc2") for k in ("w", "b")])
    assert layout == {**dict.fromkeys(params, "<f4"), "norm.mean": "<f8", "norm.std": "<f8"}
