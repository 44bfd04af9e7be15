"""Workloads, stage runners and measurement of the typovec benchmark.

A run has three parts:

1. Set-up builds a pristine work directory from the seed by running
   ``typovec`` stages.  It is repeated ``SETUP_REPEATS`` times (every
   repetition must produce byte-identical artifacts) and ``setup_s`` is the
   median.
2. The timed loop repeats the workload's op until ``--seconds`` would be
   exceeded.  Each repetition starts from a fresh copy of the pristine
   directory and runs one child process per stage, one stage at a time;
   wall time is taken around each child and CPU time and peak RSS come from
   ``os.wait4``.  :class:`SpeedProbe` measures the machine's slowdown just
   before and just after every child; each repetition's wall and CPU time
   are divided by the mean slowdown around its stages, and the median over
   repetitions is reported.  Peak RSS is the largest per-stage median.
   Set-up times are scaled the same way.
3. Checks on the outputs (see ``checks.py``) feed ``attempted``/``failed``.

With ``--trace 1`` the same set-up and op run in this process instead:
untraced, then under :class:`tracer.Tracer`, then untraced again.  The
traced op yields the per-layer call counts and times; the untraced ops,
which bracket it so that neither side alone pays first-call costs, yield the
stage times and the tracing overhead.
"""

from __future__ import annotations

import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import (
    Checker,
    check_losses,
    check_merge_count,
    check_pipeline_outputs,
    check_stage,
    load_encoded,
    snapshot,
)
from spec import END_TO_END_UNITS, MOVES, PER_LAYER_UNITS, STAGES, WORKLOADS
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
PROBE_SAMPLES = 15
# Median time of SpeedProbe's two loops on a quiet 2-vCPU Xeon VM: the Python
# loop, then the matmul loop.  Scaled times read as seconds at this speed.
PROBE_REF_S = (1.2e-3, 2.3e-3)
MIN_OP_REPEATS = 2  # so that every run compares repetitions byte for byte
IMPORT_REPEATS = 3
STAGE_TIMEOUT_S = 150.0

ALL_METHODS = "LMVec,MTVec,MTCell,MTBoth,MTCellFinal,MTHiddenMean"
# The training configuration of the synthetic acceptance run (A5).
TRAIN = {"hidden_size": 64, "embed_size": 64, "lr": 0.002, "dropout": 0.1, "batch_size": 64}

PIPELINE_SNIPPET = (
    "import sys\n"
    "from typovec.cli import main\n"
    "for stage in sys.argv[1:]:\n"
    "    code = main(['--config', 'run.cfg', stage])\n"
    "    if code:\n"
    "        sys.exit(code)\n"
)
IMPORT_SNIPPET = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import typovec.cli\n"
    "print(repr(time.perf_counter() - start))\n"
)


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    setup: tuple[str, ...]
    op: tuple[str, ...]

    @property
    def methods(self) -> list[str]:
        return [m for m in str(self.config.get("methods", "")).split(",") if m]


def make_workloads(smoke: bool) -> dict[str, Workload]:
    # Below the pinned acceptance scale (40 x 500 sentences, 10 epochs), so
    # that a run, three set-ups plus the timed loop, stays near 30 s on two
    # cores and still fits two or more op repetitions.  Each suite is sized
    # so that the layer its workload stresses takes most of the op; the
    # shares are measured in perfbench/README.md.  `analyze` trains both
    # models in every set-up, so its suite is the smaller one.
    suite = {"synth_langs": 40, "synth_sentences": 80, "num_merges": 300, "epochs": 1, **TRAIN}
    inference = {**suite, "synth_langs": 16, "methods": ALL_METHODS}
    large = {"synth_langs": 200, "synth_sentences": 100, "synth_lexicon": 200, "num_merges": 600}
    if smoke:
        tiny = {"synth_langs": 10, "synth_sentences": 8, "num_merges": 20, "epochs": 1,
                **TRAIN, "hidden_size": 8, "embed_size": 8, "batch_size": 8, "bootstrap_n": 1000}
        suite, large = tiny, tiny
        inference = {**tiny, "methods": ALL_METHODS}
    prepare = ("synth", "ingest", "bpe-learn")
    training = ("train-lm", "train-nmt")
    return {
        "train": Workload("train", suite, prepare, training),
        "analyze": Workload("analyze", inference, (*prepare, *training),
                            ("extract", "baseline", "predict", "report", "bootstrap", "traj")),
        "bpe": Workload("bpe", large, ("synth",), ("bpe-learn",)),
    }


# --- stage runners ----------------------------------------------------------

@dataclass
class StageRun:
    stage: str
    code: int
    output: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    slowdown: float = 1.0  # the machine's slowdown against PROBE_REF_S while it ran


class SpeedProbe:
    """How much slower than its reference speed the machine runs right now.

    On a shared 2-vCPU Xeon VM, the same code ran up to 1.6x slower in spells
    lasting from seconds to minutes, and CPU time slowed with
    wall time.  Per-stage minima or medians over one run's repetitions left
    spreads of 15-35% between runs, because a run can fall wholly inside a
    spell.  The probe times a fixed Python loop and a fixed small matmul loop,
    the two kinds of work typovec does.  Every child is bracketed by two
    probes, and an op is charged the mean slowdown around its stages: on that
    VM one op-level mean spread less between runs than scaling each stage by
    its own two probes.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.a, self.b = rng.standard_normal((64, 64)), rng.standard_normal((64, 256))

    @staticmethod
    def _python() -> int:
        total = 0
        for i in range(20000):
            total += i * i % 7
        return total

    def _matmul(self) -> None:
        for _ in range(60):
            np.matmul(self.a, self.b)

    def slowdown(self) -> float:
        """Each loop's median time over its reference, averaged over the two loops."""
        times: tuple[list[float], list[float]] = ([], [])
        for _ in range(PROBE_SAMPLES):
            for loop, out in zip((self._python, self._matmul), times):
                start = time.perf_counter()
                loop()
                out.append(time.perf_counter() - start)
        return statistics.fmean(statistics.median(t) / ref for t, ref in zip(times, PROBE_REF_S))


class ChildRunner:
    """One child process per call; timing from perf_counter and os.wait4.

    The probe runs in this process, so this process and its children are
    pinned to one CPU: the probe then measures the CPU the child runs on.
    """

    def __init__(self, logs: Path):
        self.logs = logs
        logs.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.probe = SpeedProbe()
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    def run(self, argv: list[str], cwd: Path, label: str) -> StageRun:
        before = self.probe.slowdown()
        with open(self.logs / f"{label}.log", "w+b") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            log.seek(0)
            output = log.read().decode("utf-8", "replace")
        return StageRun(label, proc.returncode, output, wall,
                        usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                        (before + self.probe.slowdown()) / 2)

    def stage(self, stage: str, cwd: Path) -> StageRun:
        return self.run([sys.executable, "-m", "typovec.cli", "--config", "run.cfg", stage],
                        cwd, stage)

    def pipeline(self, stages, cwd: Path) -> StageRun:
        return self.run([sys.executable, "-c", PIPELINE_SNIPPET, *stages], cwd, "setup")


class InProcessRunner:
    """Calls ``typovec.cli.main`` in this process (used by the traced run)."""

    def stage(self, stage: str, cwd: Path) -> StageRun:
        from typovec.cli import main

        buf = io.StringIO()
        before = resource.getrusage(resource.RUSAGE_SELF)
        previous = os.getcwd()
        os.chdir(cwd)
        start = time.perf_counter()
        try:
            with redirect_stdout(buf), redirect_stderr(buf):
                code = main(["--config", "run.cfg", stage])
        finally:
            wall = time.perf_counter() - start
            os.chdir(previous)
        after = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        return StageRun(stage, code, buf.getvalue(), wall, cpu, after.ru_maxrss / 1024.0)

    def pipeline(self, stages, cwd: Path) -> StageRun:
        runs = []
        for stage in stages:
            runs.append(self.stage(stage, cwd))
            if runs[-1].code:
                break
        return StageRun("setup", runs[-1].code, "".join(r.output for r in runs),
                        sum(r.wall_s for r in runs), sum(r.cpu_s for r in runs),
                        max(r.rss_mb for r in runs))


@dataclass
class OpRun:
    stages: list[StageRun]

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.stages)

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.stages)

    @property
    def slowdown(self) -> float:
        return statistics.fmean(r.slowdown for r in self.stages)


def per_stage(ops: list[OpRun], field: str, reduce) -> dict[str, float]:
    """Per stage, ``reduce`` of ``field`` over op repetitions."""
    values: dict[str, list[float]] = {}
    for op in ops:
        for r in op.stages:
            values.setdefault(r.stage, []).append(getattr(r, field))
    return {stage: reduce(v) for stage, v in values.items()}


# --- one run -----------------------------------------------------------------

def _diff(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def corpus_sentences(workdir: Path) -> int:
    return len((workdir / "corpus.txt").read_text(encoding="utf-8").splitlines())


class Run:
    """One workload at one seed inside its own scratch directory."""

    def __init__(self, workload: Workload, seed: int, base: Path):
        self.workload = workload
        self.seed = seed
        self.base = base
        self.checker = Checker()
        self.artifacts: dict[str, dict[str, str]] = {}
        self._reference: dict[str, str] | None = None

    def write_config(self, workdir: Path) -> None:
        workdir.mkdir(parents=True)
        lines = ["workdir=.", f"seed={self.seed}"]
        lines += [f"{k}={v}" for k, v in self.workload.config.items()]
        (workdir / "run.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")

    def setup(self, runner, repeats: int) -> tuple[Path, list[StageRun]]:
        """Builds ``repeats`` identical work dirs; keeps the first as pristine."""
        runs = []
        pristine = self.base / "setup0"
        for i in range(repeats):
            workdir = self.base / f"setup{i}"
            self.write_config(workdir)
            result = runner.pipeline(self.workload.setup, workdir)
            runs.append(result)
            for stage in self.workload.setup:
                check_stage(self.checker, workdir, stage, result.code, result.output,
                            self.workload.methods)
            snap = snapshot(workdir)
            if i == 0:
                self.artifacts["setup"] = snap
            else:
                diff = _diff(snap, self.artifacts["setup"])
                self.checker.check(not diff, f"set-up repetition {i} differs in {diff}")
                shutil.rmtree(workdir)
        if "train-nmt" in self.workload.setup:
            self.checker.run("set-up losses", check_losses, pristine, ("lm", "nmt"))
        return pristine, runs

    def op(self, runner, pristine: Path, index: int) -> OpRun:
        """One repetition of the timed op on a fresh copy of ``pristine``."""
        workdir = self.base / f"op{index}"
        shutil.copytree(pristine, workdir)
        runs = []
        for stage in self.workload.op:
            runs.append(runner.stage(stage, workdir))
            check_stage(self.checker, workdir, stage, runs[-1].code, runs[-1].output,
                        self.workload.methods)
        snap = snapshot(workdir)
        if self._reference is None:
            self._reference = self.artifacts["op"] = snap
        else:
            diff = _diff(snap, self._reference)
            self.checker.check(not diff, f"repetition {index} artifacts differ in {diff}")
        if "train-nmt" in self.workload.op:
            self.checker.run("losses", check_losses, workdir, ("lm", "nmt"))
        if "bpe-learn" in self.workload.op:
            self.checker.run("merge count", check_merge_count, workdir,
                             int(self.workload.config["num_merges"]))
        if index > 0:
            shutil.rmtree(workdir)
        return OpRun(runs)

    def final_checks(self, pristine: Path) -> None:
        """Checks the stage outputs of a finished pipeline once per run."""
        if "extract" in self.workload.op:
            check_pipeline_outputs(self.checker, self.base / "op0", self.workload.methods, self.seed)
        elif "extract" in self.workload.setup:
            check_pipeline_outputs(self.checker, pristine, self.workload.methods, self.seed)

    def token_counts(self, pristine: Path) -> tuple[int, float]:
        """Training tokens per op and the analytic flop count of training them.

        Forward flops are 2*(E+H)*4H per LSTM step plus 2*H*V per projected
        token; the backward pass is counted as twice the forward.
        """
        encoded, vocab = load_encoded(pristine)
        cfg = self.workload.config
        epochs, hsz = int(cfg["epochs"]), int(cfg["hidden_size"])
        esz = int(cfg.get("embed_size") or hsz)
        lm_steps = sum(len(p.source_ids) + 1 for p in encoded.ordered)
        enc_steps = sum(len(p.source_ids) + 2 for p in encoded.ordered)
        dec_steps = sum(len(p.target_ids) + 1 for p in encoded.ordered)
        lstm, proj = 2 * (esz + hsz) * 4 * hsz, 2 * hsz * len(vocab)
        forward = lm_steps * (lstm + proj) + enc_steps * lstm + dec_steps * (lstm + proj)
        return epochs * (lm_steps + dec_steps), 3.0 * forward * epochs

    def item_count(self, pristine: Path) -> float:
        """Items per op: training tokens, corpus sentences or merges."""
        name = self.workload.name
        if name == "train":
            return float(self.token_counts(pristine)[0])
        if name == "analyze":
            return float(corpus_sentences(pristine))
        return float(self.workload.config["num_merges"])


def measure(run: Run, seconds: float) -> dict[str, float]:
    """Untraced run: child processes, medians of scaled times over repetitions."""
    runner = ChildRunner(run.base / "logs")
    pristine, setups = run.setup(runner, SETUP_REPEATS)
    items = run.item_count(pristine)
    ops: list[OpRun] = []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        ops.append(run.op(runner, pristine, len(ops)))
        now = time.perf_counter()
        elapsed, last = now - start, now - rep_start
        if len(ops) >= MIN_OP_REPEATS and elapsed + last > seconds:
            break
    run.final_checks(pristine)
    wall = statistics.median(op.wall_s / op.slowdown for op in ops)
    print(json.dumps({"repetitions": {
        "setup_s": [r.wall_s for r in setups],
        "setup_slowdown": [r.slowdown for r in setups],
        "op_wall_s": [op.wall_s for op in ops],
        "op_slowdown": [op.slowdown for op in ops],
        "stage_wall_s": per_stage(ops, "wall_s", list)}}))
    return {
        "setup_s": statistics.median(r.wall_s / r.slowdown for r in setups),
        "wall_s": wall,
        "cpu_s": statistics.median(op.cpu_s / op.slowdown for op in ops),
        "peak_rss_mb": max(per_stage(ops, "rss_mb", statistics.median).values()),
        "items_per_s": items / wall,
    }


def gemm_gflops(calls: int = 400, batches: int = 7) -> float:
    """Rate of (64x64)@(64x256) float64 products after warm-up, median batch."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((64, 64)), rng.standard_normal((64, 256))
    out = np.empty((64, 256))
    for _ in range(50):
        np.matmul(a, b, out=out)
    per_call = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            np.matmul(a, b, out=out)
        per_call.append((time.perf_counter() - start) / calls)
    return 2.0 * 64 * 64 * 256 / statistics.median(per_call) / 1e9


def environment(thread_vars) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in thread_vars},
        "gemm_gflops": gemm_gflops(),
    }


class _Observed:
    """Values read from traced calls' arguments and results."""

    def __init__(self) -> None:
        self.tokens = 0.0
        self.clipped = 0
        self.losses: dict[str, float] = {}
        self.merges = 0
        self.word_types = 0

    def observers(self) -> dict:
        """Traced function -> (observer, the metrics the observer feeds)."""
        def tokens(args, kwargs, _result):
            mask = kwargs.get("mask", args[2] if len(args) > 2 else None)
            self.tokens += float(np.sum(mask)) if mask is not None else len(np.atleast_1d(args[1]))

        def clip(args, kwargs, norm):
            max_norm = kwargs.get("max_norm", args[1] if len(args) > 1 else 0.0)
            self.clipped += int(max_norm > 0 and norm > max_norm)

        def loss(kind):
            def observe(_args, _kwargs, result):
                self.losses[kind] = float(result[1][-1])
            return observe

        def merges(_args, _kwargs, table):
            self.merges = len(table)

        def word_types(_args, _kwargs, freqs):
            self.word_types = max(self.word_types, len(freqs))

        return {
            "autograd.softmax_cross_entropy": (tokens, ("training.tokens", "autograd.tensors")),
            "optim.clip_gradients": (clip, ("optim.clip_rate",)),
            "training.train_lm": (loss("lm"), ("training.lm_loss",)),
            "training.train_nmt": (loss("nmt"), ("training.nmt_loss",)),
            "bpe.learn_bpe": (merges, ("bpe.merges",)),
            "bpe.corpus_word_frequencies": (word_types, ("bpe.word_types",)),
        }


def cli_import_s(run: Run) -> float | None:
    """Median time to import ``typovec.cli`` in a fresh interpreter."""
    runner = ChildRunner(run.base / "logs")
    times = []
    for _ in range(IMPORT_REPEATS):
        result = runner.run([sys.executable, "-c", IMPORT_SNIPPET], run.base, "import")
        if run.checker.check(result.code == 0, f"importing typovec.cli: {result.output[-300:]}"):
            times.append(float(result.output.strip().splitlines()[-1]))
    return statistics.median(times) if times else None


def trace(run: Run, gflops: float) -> tuple[dict[str, float], list[str]]:
    """Traced in-process run; returns per-layer metrics and absent names."""
    import typovec.cli  # noqa: F401  (the tracer wraps loaded modules only)

    import_s = cli_import_s(run)
    runner = InProcessRunner()
    with Tracer() as setup_tracer:
        pristine, _ = run.setup(runner, 1)
    before = run.op(runner, pristine, 0)
    observed = _Observed()
    observers = observed.observers()
    with Tracer({fn: observer for fn, (observer, _feeds) in observers.items()}) as tracer:
        traced = run.op(runner, pristine, 1)
    after = run.op(runner, pristine, 2)
    run.final_checks(pristine)
    untraced = per_stage([before, after], "wall_s", min)
    untraced_wall = sum(untraced.values())
    sentences = corpus_sentences(pristine)
    flops = run.token_counts(pristine)[1] if "train-nmt" in run.workload.op else 0.0

    metrics: dict[str, float | None] = {
        "cli.import_s": import_s,
        "cli.up_to_date_s": tracer.inclusive_s("cli.up_to_date"),
        "cli.write_manifest_s": tracer.inclusive_s("cli.write_manifest"),
    }
    for stage in STAGES:
        metrics[f"cli.stage.{stage}.wall_s"] = untraced.get(stage, 0.0)
    for fn in ("autograd.backward", "autograd.matmul", "models.lstm_step", "models.encode",
               "optim.adam_step", "predict.train_logreg"):
        metrics[f"{fn}.calls"] = tracer.calls(fn)
        metrics[f"{fn}.self_s"] = tracer.self_s(fn)
    for fn in ("autograd.softmax_cross_entropy", "autograd.embedding_lookup", "optim.clip_gradients"):
        metrics[f"{fn}.self_s"] = tracer.self_s(fn)
    for fn in ("training.train_lm", "training.train_nmt", "vectors.extract_mtcell",
               "vectors.extract_variant", "predict.evaluate", "predict.paired_bootstrap",
               "predict.export_trajectory", "typology.knn_feature_vector", "bpe.learn_bpe",
               "bpe.build_vocab", "bpe.encode_corpus", "corpus.load_parallel",
               "checkpoint.save_checkpoint", "checkpoint.load_checkpoint"):
        metrics[f"{fn}_s"] = tracer.inclusive_s(fn)
    metrics["synth.generate_suite_s"] = setup_tracer.inclusive_s("synth.generate_suite")

    def ratio(num, den, needs: str):
        return None if tracer.calls(needs) is None else (num / den if den else 0.0)

    def seen(value, needs: str):
        return None if tracer.calls(needs) is None else value

    softmax = "autograd.softmax_cross_entropy"
    metrics["autograd.tensors"] = ratio(tracer.tensors_created, observed.tokens, softmax)
    metrics["models.encode_per_sentence"] = ratio(tracer.calls("models.encode") or 0, sentences,
                                                  "models.encode")
    metrics["optim.clip_rate"] = ratio(observed.clipped, tracer.calls("optim.clip_gradients"),
                                       "optim.clip_gradients")
    metrics["training.steps"] = tracer.calls("optim.adam_step")
    metrics["training.tokens"] = seen(observed.tokens, softmax)
    train_s = untraced.get("train-lm", 0.0) + untraced.get("train-nmt", 0.0)
    metrics["training.floor_ratio"] = train_s / (flops / (gflops * 1e9)) if flops else 0.0
    metrics["training.lm_loss"] = seen(observed.losses.get("lm", 0.0), "training.train_lm")
    metrics["training.nmt_loss"] = seen(observed.losses.get("nmt", 0.0), "training.train_nmt")
    metrics["bpe.merges"] = seen(observed.merges, "bpe.learn_bpe")
    metrics["bpe.word_types"] = seen(observed.word_types, "bpe.corpus_word_frequencies")
    metrics["trace.op_wall_s"] = traced.wall_s
    metrics["trace.untraced_op_wall_s"] = untraced_wall
    metrics["trace.overhead_ratio"] = traced.wall_s / untraced_wall
    metrics["env.gemm_gflops"] = gflops
    for fn in tracer.failed_observers:
        for name in observers[fn][1]:
            metrics[name] = None
    absent = sorted(name for name, value in metrics.items() if value is None)
    return {k: float(v) for k, v in metrics.items() if v is not None}, absent


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool,
                 thread_vars) -> dict:
    """Runs one workload and returns the result object; prints context lines."""
    workload = make_workloads(smoke)[name]
    base = WORK / f"{name}-s{seed}-t{int(traced)}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    try:
        run = Run(workload, seed, base)
        env = environment(thread_vars)
        print(json.dumps({"environment": env}))
        if traced:
            values, absent = trace(run, env["gemm_gflops"])
            units = PER_LAYER_UNITS
            if absent:
                print(json.dumps({"absent": absent}))
        else:
            values = measure(run, seconds)
            units = END_TO_END_UNITS
        print(json.dumps({"artifacts": run.artifacts}))
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return {
        "correct": run.checker.failed == 0,
        "attempted": run.checker.attempted,
        "failed": run.checker.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }


def validate(result: dict, traced: bool) -> list[str]:
    """Problems with one result object against the metric tables."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    expected = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if entry.get("unit") != expected.get(name):
            problems.append(f"{name}: unit {entry.get('unit')!r}")
        if not isinstance(value, float) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        elif not traced and value <= 0:
            problems.append(f"{name}: end-to-end value {value} is not positive")
    return problems


def smoke(thread_vars) -> int:
    """Every workload at tiny sizes in both modes; checks every metric name and unit."""
    problems = []
    if set(MOVES) != set(PER_LAYER_UNITS):
        problems.append(f"spec.MOVES and BENCHMARK.json per_layer differ in "
                        f"{sorted(set(MOVES) ^ set(PER_LAYER_UNITS))}")
    for name in WORKLOADS:
        for traced in (False, True):
            result = run_workload(name, 1, 1.0, traced, True, thread_vars)
            found = validate(result, traced)
            problems += [f"{name} trace={int(traced)}: {p}" for p in found]
            shown = "" if traced else " ".join(
                f"{k}={v['value']:.6g}{v['unit']}" for k, v in result["metrics"].items())
            print(f"smoke {name} trace={int(traced)}: attempted={result['attempted']} "
                  f"failed={result['failed']} metrics={len(result['metrics'])} {shown}")
    for problem in problems:
        print(f"smoke problem: {problem}", file=sys.stderr)
    print(f"smoke: {'ok' if not problems else f'{len(problems)} problems'}")
    return 1 if problems else 0
