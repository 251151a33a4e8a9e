"""Run one atscalm CLI stage the way the ``atscalm`` console script does,
under an address-space cap, optionally with the span tracer installed.

    python3 perfbench/stage.py [--trace-out F --run-id ID] -- <atscalm args>

The cap, MEM_CAP_MB, is applied before numpy is imported, so an allocation
past it raises MemoryError (exit code 1) instead of waking the kernel OOM
killer.
"""

from __future__ import annotations

import argparse
import resource
import sys

MEM_CAP_MB = 6144   # below the 8 GB box; one default train-cam epoch needs ~3.1 GB


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--run-id", default="")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    cap = MEM_CAP_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    from atscalm.cli import main as atscalm_main

    if args.trace_out is None:
        return atscalm_main(cli_args)
    import tracer

    tr = tracer.install(args.run_id)
    try:
        return atscalm_main(cli_args)
    finally:
        tr.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
