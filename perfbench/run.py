"""atscalm pipeline benchmark.

    python3 perfbench/run.py --workload corpus-long --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout. It synthesizes the
workload's inputs from ``--seed`` (set-up), then runs the workload's CLI
stages one after another, each in its own child process started the way
``atscalm <command> --jobs 1`` starts, under an address-space cap. It
repeats the stage sequence while ``--seconds`` allow and reports medians.

With ``--trace 1`` it alternates an untraced repetition with a traced one,
in which every stage process runs with the span tracer installed, and
reports the per-layer metrics instead of the end-to-end ones.

Every line but the last is a human-readable report (environment, stage
runs, checks, every metric with its unit); the last line is one JSON object
with the keys correct, attempted, failed and metrics. See README.md.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import tracer
from stage import MEM_CAP_MB

WORK = ".perfbench_work"
HERE = os.path.dirname(os.path.abspath(__file__))
STAGE_TIMEOUT_S = 150
SETUP_REPEATS = 15
CLIP_SECONDS = 10


@dataclass(frozen=True)
class Workload:
    n_per_class: int
    setup_features: bool          # also extract raw-corpus features during set-up
    main: str                     # the stage that dominates the workload
    stages: tuple[tuple[str, tuple[str, ...]], ...]   # {in}: set-up dir, {out}: rep dir


WORKLOADS = {
    "corpus-long": Workload(
        n_per_class=1, setup_features=False, main="augment",
        stages=(("validate", ("{in}/corpus",)),
                ("augment", ("{in}/corpus",)),
                ("features", ("{out}/augmented/manifest.json",)),
                ("calmness", ("{out}/features.csv",)))),
    "encoder-long": Workload(
        n_per_class=2, setup_features=False, main="train-encoder",
        stages=(("train-encoder", ("{in}/corpus", "--epochs", "1")),
                ("embed", ("{in}/corpus", "--checkpoint", "{out}/encoder.ckpt")),
                ("eval-embeddings", ("{out}/embeddings.csv",)))),
    "cam-default": Workload(
        n_per_class=4, setup_features=True, main="train-cam",
        stages=(("train-cam", ("{in}/features.csv", "--epochs", "1")),
                ("evaluate", ("{in}/features.csv", "--checkpoint", "{out}/cam.ckpt",
                              "--split", "test")))),
}

# (name, unit); every one is reported on every workload with --trace 0.
END_TO_END = (
    ("wall_s", "s"),
    ("main_stage_s", "s"),
    ("peak_rss_mb", "MB"),
    ("other_stages_rss_mb", "MB"),
    ("setup_s", "s"),
)

CONV = tuple(f"nn.conv2d.{st}" for st in ("stem", "stage0", "stage1", "stage2", "stage3"))
# (metric, unit, source, key). Sources: self/incl = summed self/inclusive
# span seconds, calls = span count, count = counter total, derived = below.
PER_LAYER = (
    ("audio_io.resample_signal.s", "s", "self", "audio_io.resample_signal"),
    ("audio_io.resample_signal.calls", "count", "calls", "audio_io.resample_signal"),
    ("audio_io.resample_signal.samples_out", "samples", "count", "audio_io.resample_signal.samples_out"),
    ("augment.phase_vocoder.s", "s", "self", "augment.phase_vocoder"),
    ("augment.phase_vocoder.calls", "count", "calls", "augment.phase_vocoder"),
    ("augment.phase_vocoder.samples_in", "samples", "count", "augment.phase_vocoder.samples_in"),
    ("augment.make_variant.s", "s", "self", "augment.make_variant"),
    ("augment.pitch_shift.s", "s", "self", "augment.pitch_shift"),
    ("augment.spec_mask.s", "s", "self", "augment.spec_mask"),
    ("encoder.frames_kept_ratio", "ratio", "derived", None),
    ("audio_io.save_wav.s", "s", "self", "audio_io.save_wav"),
    ("audio_io.save_wav.bytes", "bytes", "count", "audio_io.save_wav.bytes"),
    ("audio_io.load_wav.s", "s", "self", "audio_io.load_wav"),
    ("audio_io.load_wav.bytes", "bytes", "count", "audio_io.load_wav.bytes"),
    ("dsp.stft.s", "s", "self", "dsp.stft"),
    ("dsp.stft.calls", "count", "calls", "dsp.stft"),
    ("dsp.stft.frames", "frames", "count", "dsp.stft.frames"),
    ("dsp.analytic_envelope.s", "s", "self", "dsp.analytic_envelope"),
    ("features.mel_spectrogram.s", "s", "self", "features.mel_spectrogram"),
    ("features.extract_features.s", "s", "self", "features.extract_features"),
    ("features.wavelet_stats.s", "s", "self", "features.wavelet_stats"),
    ("features.mfcc13.s", "s", "self", "features.mfcc13"),
    ("validation.validate_clip.s", "s", "self", "validation.validate_clip"),
    *((f"{c}.{m}", unit, src, f"{c}.{k}") for c in CONV for m, unit, src, k in (
        ("fwd_s", "s", "self", "fwd"), ("bwd_s", "s", "self", "bwd"),
        ("flops", "computed_flop", "count", "flops"))),
    ("nn.batchnorm2d.fwd_s", "s", "self", "nn.batchnorm2d.fwd"),
    ("nn.batchnorm2d.bwd_s", "s", "self", "nn.batchnorm2d.bwd"),
    ("nn.maxpool2d.fwd_s", "s", "self", "nn.maxpool2d.fwd"),
    ("nn.maxpool2d.bwd_s", "s", "self", "nn.maxpool2d.bwd"),
    ("encoder.AcousticEncoder.forward.train_s", "s", "incl", "encoder.AcousticEncoder.forward.train"),
    ("encoder.AcousticEncoder.forward.eval_s", "s", "incl", "encoder.AcousticEncoder.forward.eval"),
    ("nn.Tensor.backward.s", "s", "self", "nn.Tensor.backward"),
    ("nn.Adam.step.s", "s", "self", "nn.Adam.step"),
    ("nn.bilstm_final.fwd_s", "s", "self", "nn.bilstm_final.fwd"),
    ("classifier.BiLstmClassifier.predict.s", "s", "incl", "classifier.BiLstmClassifier.predict"),
    ("nn.tensors_created.per_step", "count", "derived", None),
    ("nn.tensors_created.per_sample", "count", "derived", None),
    ("nn.graph_bytes.per_step", "bytes", "derived", None),
    ("nn.graph_bytes.per_sample", "bytes", "derived", None),
    ("nn.save_checkpoint.s", "s", "self", "nn.save_checkpoint"),
    ("nn.save_checkpoint.bytes", "bytes", "count", "nn.save_checkpoint.bytes"),
    ("nn.load_checkpoint.s", "s", "self", "nn.load_checkpoint"),
    ("tsne.tsne.s", "s", "self", "tsne.tsne"),
    ("stats.calmness_report.s", "s", "self", "stats.calmness_report"),
    ("embedding_eval.geometry_report.s", "s", "self", "embedding_eval.geometry_report"),
    ("flopcheck.traced_conv_flops", "computed_flop", "derived", None),
    ("flopcheck.count_flops", "flop", "derived", None),
    ("flopcheck.unexplained_flops", "flop", "derived", None),
    ("trace.overhead_ratio", "ratio", "derived", None),
    ("validate_s", "s", "derived", "validate"),
    ("augment_s", "s", "derived", "augment"),
    ("features_s", "s", "derived", "features"),
    ("train_encoder_s", "s", "derived", "train-encoder"),
    ("embed_s", "s", "derived", "embed"),
    ("embed_rss_mb", "MB", "derived", "embed"),
    ("train_cam_s", "s", "derived", "train-cam"),
    ("fail_ratio", "ratio", "derived", None),
)


@dataclass
class StageRun:
    command: str
    seconds: float
    rss_mb: float                  # 0 for a set-up, which runs in this process
    failure: str | None = None     # None when the stage ran and its outputs check out
    digest: str = ""
    trace_file: str | None = None


@dataclass
class Rep:
    out: str
    traced: bool
    stages: list[StageRun] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(s.failure is None for s in self.stages)

    @property
    def wall(self) -> float:
        return sum(s.seconds for s in self.stages)


class Bench:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.n_clips = 3 * self.wl.n_per_class
        self.root = os.path.join(WORK, name)
        self.runs: list[StageRun] = []
        self.env = dict(os.environ)
        src = os.path.abspath("src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")

    def stage(self, command: str, args: list[str], out: str,
              trace_file: str | None = None) -> StageRun:
        argv = [sys.executable, os.path.join(HERE, "stage.py")]
        if trace_file is not None:
            argv += ["--trace-out", trace_file, "--run-id", f"{self.name}/{out}/{command}"]
        argv += ["--", "--jobs", "1", "--out", out, command, *args]
        err_path = os.path.join(out, f"{command}.stderr")
        os.makedirs(out, exist_ok=True)
        timed_out = threading.Event()
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=self.env)

            def kill():
                timed_out.set()
                proc.kill()

            timer = threading.Timer(STAGE_TIMEOUT_S, kill)
            timer.start()
            try:
                # this child's own rusage; RUSAGE_CHILDREN would keep a maximum over all
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        run = StageRun(command, seconds, usage.ru_maxrss / 1024.0, trace_file=trace_file)
        run.failure = self._failure(proc.returncode, timed_out.is_set(), err_path)
        return self._checked(run, out)

    def setup_stage(self, command: str, args: list[str], out: str) -> StageRun:
        """Run one set-up command inside this process, so that set-up time is
        the time to generate the inputs: interpreter and numpy start-up
        varied by up to 0.2 s per process on the target box, as much as
        the generation itself. The first set-up also pays the imports."""
        from atscalm.cli import main as atscalm_main

        t0 = time.perf_counter()
        try:
            code = atscalm_main(["--jobs", "1", "--out", out, "--seed", str(self.seed),
                                 command, *args])
            failure = None if code == 0 else f"exit code {code}"
        except Exception as exc:
            failure = f"raised {exc!r}"
        run = StageRun(command, time.perf_counter() - t0, rss_mb=0.0, failure=failure)
        return self._checked(run, out)

    def _checked(self, run: StageRun, out: str) -> StageRun:
        if run.failure is None:
            import checks  # imports atscalm, importable once main() has put src on the path

            problems = checks.check_stage(run.command, out, self.n_clips)
            run.failure = "; ".join(problems) if problems else None
            if run.failure is None:
                run.digest = checks.artifact_digest(out, run.command)
        self.runs.append(run)
        return run

    @staticmethod
    def _failure(code: int, timed_out: bool, err_path: str) -> str | None:
        if timed_out:
            return f"timed out after {STAGE_TIMEOUT_S} s"
        if code == 0:
            return None
        with open(err_path, "rb") as fh:
            tail = fh.read()[-2000:].decode("utf-8", "replace")
        if "MemoryError" in tail:
            return f"hit the {MEM_CAP_MB} MB address-space cap"
        if code < 0:
            return f"killed by signal {-code}"
        return f"exit code {code}: {tail.strip().splitlines()[-1] if tail.strip() else ''}"

    def setup(self, k: int) -> tuple[float, str | None, str]:
        """Generate the inputs once; returns (seconds, failure, digest)."""
        out = os.path.join(self.root, f"setup{k}")
        runs = [self.setup_stage("synth", ["--n", str(self.wl.n_per_class),
                                           "--duration", str(CLIP_SECONDS)], out)]
        if self.wl.setup_features and runs[0].failure is None:
            runs.append(self.setup_stage("features", [f"{out}/corpus"], out))
        failure = next((r.failure for r in runs if r.failure), None)
        return sum(r.seconds for r in runs), failure, "".join(r.digest for r in runs)

    def rep(self, k: int, inp: str, traced: bool) -> Rep:
        out = os.path.join(self.root, f"rep{k}")
        rep = Rep(out, traced)
        for command, template in self.wl.stages:
            args = [a.replace("{in}", inp).replace("{out}", out) for a in template]
            trace_file = os.path.join(out, f"{command}.trace.json") if traced else None
            run = self.stage(command, args, out, trace_file=trace_file)
            rep.stages.append(run)
            if run.failure is not None:
                break
        return rep


def aggregate_traces(files: list[str]) -> tuple[dict, list[str]]:
    """Self/inclusive seconds, calls and counters over one traced repetition."""
    agg = {"self": {}, "incl": {}, "calls": {}, "count": {}, "flopcheck": {}, "bindings": {}}
    problems = []
    for path in files:
        with open(path, encoding="utf-8") as fh:
            trace = json.load(fh)
        spans = trace["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if end is None:
                problems.append(f"{trace['run_id']}: span {name} never closed")
                continue
            if parent >= 0:
                p_name, p_start, p_end = spans[parent][:3]
                if p_end is None or start < p_start or end > p_end:
                    problems.append(f"{trace['run_id']}: span {name} lies outside its parent {p_name}")
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            if end is None:
                continue
            own = (end - start) - child[i]
            if own < -1e-9:
                problems.append(f"{trace['run_id']}: span {name} has negative self time {own}")
            agg["self"][name] = agg["self"].get(name, 0.0) + max(own, 0.0)
            agg["incl"][name] = agg["incl"].get(name, 0.0) + (end - start)
            agg["calls"][name] = agg["calls"].get(name, 0) + 1
        for key, value in trace["counts"].items():
            agg["count"][key] = agg["count"].get(key, 0) + value
        agg["flopcheck"].update(trace["flopcheck"])
        agg["bindings"].update(trace["bindings"])
    return agg, problems


def coverage_problems(name: str, agg: dict) -> list[str]:
    problems = []
    for key, workloads in tracer.RUNS_ON.items():
        n = agg["calls"].get(key, 0) or agg["count"].get(key, 0)
        if name in workloads and n == 0:
            problems.append(f"coverage: {key} was never called on {name}")
        if name not in workloads and n != 0:
            problems.append(f"coverage: {key} was called {n} times on {name}, expected 0")
    return problems


def layer_metrics(agg: dict) -> dict[str, float]:
    values = {}
    for metric, _, source, key in PER_LAYER:
        if source != "derived":
            values[metric] = float(agg[source].get(key, 0))
    count = agg["count"]
    frames = count.get("frames.computed", 0)
    values["encoder.frames_kept_ratio"] = count.get("frames.kept", 0) / frames if frames else 0.0
    steps, samples = count.get("step.count", 0), count.get("step.samples", 0)
    for metric, key in (("nn.tensors_created", "step.tensors"), ("nn.graph_bytes", "step.bytes")):
        total = count.get(key, 0)
        values[f"{metric}.per_step"] = total / steps if steps else 0.0
        values[f"{metric}.per_sample"] = total / samples if samples else 0.0
    fc = agg["flopcheck"]
    values["flopcheck.traced_conv_flops"] = float(fc.get("traced_conv_flops", 0))
    values["flopcheck.count_flops"] = float(fc.get("count_flops", 0))
    values["flopcheck.unexplained_flops"] = float(
        fc.get("count_flops", 0) - fc.get("traced_conv_flops", 0) - fc.get("head_flops", 0))
    return values


def median_or_none(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def environment() -> dict:
    import numpy

    threads = {k: os.environ.get(k, "unset")
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "blas_pool": "OpenBLAS-default(one-thread-per-core)",
        "jobs": 1,
        "mem_cap_mb": MEM_CAP_MB,
    }


def _commit() -> str:
    """HEAD of the checkout's own .git, if it has one; never looks above it."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running stage child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join("src", "atscalm", "cli.py")):
        print("perfbench: run from the root of an atscalm checkout (src/atscalm/cli.py "
              "not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    # set-ups call the CLI in this process; keep its INFO lines out of the report
    logging.basicConfig(level=logging.WARNING)

    bench = Bench(args.workload, args.seed)
    shutil.rmtree(bench.root, ignore_errors=True)
    env = environment()
    problems: list[str] = []

    setup_times: list[float] = []
    setup_digests: set[str] = set()

    def set_up_until(n: int) -> bool:
        """Run set-ups until n have run; False once one fails."""
        while len(setup_times) < n:
            k = len(setup_times)
            seconds, failure, digest = bench.setup(k)
            if failure:
                problems.append(f"set-up {k}: {failure}")
                return False
            setup_times.append(seconds)
            setup_digests.add(digest)
            if k:
                shutil.rmtree(os.path.join(bench.root, f"setup{k}"), ignore_errors=True)
        return True

    inp = os.path.join(bench.root, "setup0")
    reps: list[Rep] = []
    layer_values: list[dict[str, float]] = []
    bindings: dict[str, int] = {}
    if set_up_until(1):
        measured = 0.0
        while True:
            start = time.perf_counter()
            batch = [bench.rep(len(reps), inp, traced=False)]
            reps += batch
            if args.trace and batch[0].ok:
                batch.append(bench.rep(len(reps), inp, traced=True))
                reps.append(batch[1])
                if batch[1].ok:
                    agg, span_problems = aggregate_traces([s.trace_file for s in batch[1].stages])
                    problems += span_problems + coverage_problems(args.workload, agg)
                    layer_values.append(layer_metrics(agg))
                    bindings = agg["bindings"]
            if not all(r.ok for r in batch):
                break
            elapsed = time.perf_counter() - start
            measured += elapsed
            if measured + elapsed > args.seconds:
                set_up_until(SETUP_REPEATS)
                break
            for r in batch:
                # keep only the newest outputs; an encoder checkpoint is ~90 MB
                shutil.rmtree(r.out, ignore_errors=True)
            # The set-ups are spread over the run, so setup_s sees the same
            # CPU speed as the stages; the box's speed drifts within a minute.
            if not set_up_until(math.ceil(SETUP_REPEATS * measured / args.seconds)):
                break
    if len(setup_digests) > 1:
        problems.append("set-up outputs differ between repeats of the same seed")

    plain = [r for r in reps if not r.traced and r.ok]
    traced = [r for r in reps if r.traced and r.ok]
    for r in bench.runs:
        if r.failure:
            problems.append(f"{r.command}: {r.failure}")

    def stage_stat(command: str, attr: str) -> list[float]:
        return [getattr(s, attr) for r in plain for s in r.stages if s.command == command]

    main_stage = bench.wl.main
    e2e = {
        "wall_s": median_or_none([r.wall for r in plain]),
        "main_stage_s": median_or_none(stage_stat(main_stage, "seconds")),
        "peak_rss_mb": median_or_none([max(s.rss_mb for s in r.stages) for r in plain]),
        "other_stages_rss_mb": median_or_none(
            [max(s.rss_mb for s in r.stages if s.command != main_stage) for r in plain]),
        "setup_s": median_or_none(setup_times),
    }
    attempted = len(bench.runs)
    failed = sum(1 for r in bench.runs if r.failure)

    units = dict(END_TO_END)
    if args.trace:
        units = {m: u for m, u, _, _ in PER_LAYER}
        values = {m: median_or_none([v[m] for v in layer_values]) for m in units
                  if layer_values and m in layer_values[0]}
        values["trace.overhead_ratio"] = (
            statistics.median([r.wall for r in traced]) / e2e["wall_s"]
            if traced and e2e["wall_s"] else None)
        for metric, _, source, command in PER_LAYER:
            if source == "derived" and command is not None:
                attr = "rss_mb" if metric.endswith("_rss_mb") else "seconds"
                values[metric] = median_or_none(stage_stat(command, attr)) or 0.0
        values["fail_ratio"] = failed / attempted if attempted else 0.0
    else:
        values = e2e

    report(args, env, bench, reps, problems, values, units, attempted, failed, bindings)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values.get(m), "unit": u} for m, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def workload_why(name: str) -> str:
    """The workload's rationale, kept in one place: BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return next(w["why"] for w in json.load(fh)["workloads"] if w["name"] == name)


def report(args, env, bench, reps, problems, values, units, attempted, failed,
           bindings) -> None:
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"  why: {workload_why(args.workload)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "blas_threads")
          + " " + " ".join(f"{k}={v}" for k, v in env["blas_threads"].items()))
    for k, rep in enumerate(reps):
        for s in rep.stages:
            state = "ok" if s.failure is None else f"FAILED ({s.failure})"
            print(f"stage rep{k:<2} {'traced' if rep.traced else 'plain':<6} {s.command:<16} "
                  f"{s.seconds:9.3f} s {s.rss_mb:9.1f} MB {state} sha256={s.digest[:16]}")
    print(f"check stage runs: {attempted - failed}/{attempted} ok, fail_ratio "
          f"{failed / attempted if attempted else 0.0:.4f}")
    if bindings:
        print("trace bindings wrapped per function: " + " ".join(
            f"{name.removeprefix('atscalm.')}={n}" for name, n in sorted(bindings.items())))
    for p in problems:
        print(f"check FAILED: {p}")
    if not problems:
        print("check outputs" + (", span nesting, self times and layer coverage"
                                 if args.trace else "") + ": all passed")
    for metric, unit in units.items():
        v = values.get(metric)
        print(f"metric {metric} = {'n/a' if v is None else f'{v:.6g}'} {unit}")
    with open(os.path.join(bench.root, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "problems": problems, "values": values,
                   "stage_runs": [vars(s) for s in bench.runs]}, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
