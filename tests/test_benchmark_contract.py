"""The benchmark's contract with ``src/``: every layer perfbench traces is still
reached by the CLI, and ``count_flops`` still equals the conv FLOPs computed
from traced shapes plus the projection head.

A refactor that renames or unbinds a traced function, or changes the encoder
without changing ``count_flops``, breaks perfbench without failing any other
test. The tracer patches the package in place, so the chain runs in a
subprocess.
"""

import json
import os
import subprocess
import sys
import textwrap

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
