"""Train and predict benchmark that drives graphfuse the way its CLI does.

One run measures one workload in this process for a fixed time. A train
cycle is ``training.train`` plus ``checkpoint.save_checkpoint`` (the
``train`` command); a predict cycle is ``checkpoint.load_checkpoint`` plus
``evaluation.predict_corpus`` over the test split (the ``predict``
command). A rate is that of the fastest cycle, because contention from other
tenants of a shared host only ever adds time (README.md has the numbers);
medians and cycle counts are printed alongside. Every cycle's output is
checked, and a wrong output is counted as a failed operation, not raised.

With ``--trace 0`` no wrapper is installed and the end-to-end metrics are
reported. With ``--trace 1`` every cycle is traced and the per-layer metrics
are reported; ``--all`` takes the tracing overhead as the difference between
the two runs' ``train_tok_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from graphfuse.checkpoint import load_checkpoint, save_checkpoint
from graphfuse.evaluation import predict_corpus
from graphfuse.training import train

import checks
from tracing import MOVES, Tracer, per_layer_metrics
from workloads import BY_NAME, DEFAULT_SEED, WORKLOADS, prepare

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 10
# predict cycles per round run until their wall time reaches this share of
# the round's train cycle, so both rates get a comparable number of samples
PREDICT_SHARE = 0.3
END_TO_END = (("train_tok_s", "tok/s"), ("predict_tok_s", "tok/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("final_loss", "nats"))


class Run:
    """Timed train and predict cycles of one prepared workload."""

    def __init__(self, prep, tracer: Tracer, checkpoint: str):
        self.prep = prep
        self.tracer = tracer
        self.checkpoint = checkpoint
        self.tally = checks.Tally()
        self.labels = set(prep.label_vocab.label_to_id)
        self.history_ref: str | None = None
        self.preds_ref: list[list[str]] | None = None
        self.final_loss: float | None = None
        self.train_rates: list[float] = []
        self.predict_rates: list[float] = []
        self.layers: list[dict[str, float]] = []

    def _predict(self, model):
        return predict_corpus(model, self.prep.splits["test"], batch_size=16,
                              max_len=model.config.max_len)

    def _failed(self, operation: str) -> None:
        traceback.print_exc(file=sys.stderr)
        exc = sys.exc_info()[1]
        self.tally.record(operation, [f"{type(exc).__name__}: {exc}"])

    def train_cycle(self, traced: bool = False) -> float | None:
        """One train + save; returns its wall seconds, or None if it failed."""
        prep = self.prep
        model = prep.new_model()
        corpora = {"train": prep.splits["train"], "valid": prep.splits["valid"]}
        if traced:
            self.tracer.install()
        self.tracer.begin("train")
        t0 = perf_counter()
        try:
            result = train(model, corpora, prep.train_config)
            with self.tracer.span("checkpoint.save"):
                save_checkpoint(self.checkpoint, model)
        except Exception:
            self._failed("train")
            return None
        finally:
            wall = perf_counter() - t0
            self.tracer.uninstall()
        jsonl = result.history_jsonl()
        problems = checks.history_problems(result.history, jsonl, self.history_ref)
        if not problems and self.preds_ref is None:
            preds = self._predict(model)
            problems = checks.prediction_problems(
                preds, prep.splits["test"], self.labels, None)
            if not problems:
                self.history_ref = jsonl
                self.preds_ref = preds
                self.final_loss = result.history[-1]["train_loss"]
        if not self.tally.record("train", problems):
            return None
        self.train_rates.append(prep.tokens("train") * len(result.history) / wall)
        if traced:
            self.layers.append(self.tracer.snapshot(wall * 1e3))
        return wall

    def predict_cycle(self, traced: bool = False) -> float | None:
        """One load + predict; returns its wall seconds, or None if it failed."""
        if traced:
            self.tracer.install()
        self.tracer.begin("predict")
        t0 = perf_counter()
        try:
            with self.tracer.span("checkpoint.load"):
                model = load_checkpoint(self.checkpoint)
            preds = self._predict(model)
        except Exception:
            self._failed("predict")
            return None
        finally:
            wall = perf_counter() - t0
            self.tracer.uninstall()
        problems = checks.prediction_problems(
            preds, self.prep.splits["test"], self.labels, self.preds_ref)
        if not self.tally.record("predict", problems):
            return None
        self.predict_rates.append(self.prep.tokens("test") / wall)
        if traced:
            self.layers.append(self.tracer.snapshot(wall * 1e3))
        return wall

    def measure(self, seconds: float, traced: bool, between=None,
                n_between: int = 0) -> None:
        """Rounds of train then predict cycles until ``seconds`` have passed.

        ``between``, if given, is called ``n_between`` times at even
        intervals of the window, between rounds, outside any timed cycle.
        """
        start = perf_counter()
        deadline = start + seconds
        done = 0
        while True:
            if done < n_between and perf_counter() >= start + done * seconds / n_between:
                between()
                done += 1
            train_s = self.train_cycle(traced)
            if train_s is not None:
                spent = 0.0
                while spent < PREDICT_SHARE * train_s:
                    predict_s = self.predict_cycle(traced)
                    if predict_s is None:
                        break
                    spent += predict_s
            if perf_counter() >= deadline:
                return


def setup_sample(workload: str, seed: int, tally: checks.Tally,
                 samples: list[float]) -> None:
    """Time one fresh process that only sets the workload up."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--setup-only"]
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        tally.record("setup", ["set-up process timed out"])
        return
    wall = perf_counter() - t0
    if tally.record("setup", [f"exit {proc.returncode}: {proc.stderr[-300:]}"]
                    if proc.returncode else []):
        samples.append(wall)


def git_commit(root: Path) -> str:
    """The checked-out commit, or "unknown" outside a git checkout."""
    try:
        # the ceiling keeps git from reporting a repository above ``root``
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    try:
        from graphfuse import kernels
        backend = kernels.backend()
    except ImportError:
        backend = "none"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "kernels_backend": backend,
        "GRAPHFUSE_KERNELS": os.environ.get("GRAPHFUSE_KERNELS", ""),
        "GRAPHFUSE_THREADS": os.environ.get("GRAPHFUSE_THREADS"),
        "commit": git_commit(ROOT),
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _best(rates: list[float]) -> float:
    return max(rates, default=0.0)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 t_start: float) -> dict:
    """Set up, measure and check one workload; return the result object."""
    tracer = Tracer()
    prep = prepare(BY_NAME[name], seed, tracer.span)
    prep.new_model()
    setup_ms = (perf_counter() - t_start) * 1e3
    setup_layers = tracer.snapshot(setup_ms)

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        run = Run(prep, tracer, os.path.join(workdir, "checkpoint.npz"))
        # set-up samples are spread over the window, like the cycles, so a
        # slow phase of the host does not hold all of them
        setup: list[float] = []
        if trace:
            run.measure(seconds, trace)
        else:
            run.measure(seconds, trace,
                        lambda: setup_sample(name, seed, run.tally, setup),
                        SETUP_REPEATS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = {k: statistics.median(s[k] for s in run.layers if k in s)
                   for k in {k for s in run.layers for k in s}}
        metrics.update(setup_layers)
        metrics["trace.train_tok_s"] = _best(run.train_rates)
        units = {n: u for n, u, _ in per_layer_metrics()}
        measured = bool(run.train_rates and run.predict_rates)
    else:
        metrics = {
            "train_tok_s": _best(run.train_rates),
            "predict_tok_s": _best(run.predict_rates),
            "setup_s": min(setup, default=0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "final_loss": run.final_loss if run.final_loss is not None else 0.0,
        }
        units = dict(END_TO_END)
        measured = bool(run.train_rates and run.predict_rates and setup)
    info = {
        "workload": name, "seed": seed, "trace": int(trace),
        "train_cycles": len(run.train_rates),
        "predict_cycles": len(run.predict_rates),
        "median_train_tok_s": _median(run.train_rates),
        "median_predict_tok_s": _median(run.predict_rates),
        "not_traced": tracer.missing, "problems": run.tally.problems,
        "environment": environment(),
    }
    print(json.dumps(info))
    return {
        "correct": measured and run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {k: {"value": float(metrics.get(k, 0.0)), "unit": unit}
                    for k, unit in units.items()},
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    report = {"seed": seed, "seconds": seconds, "environment": environment(),
              "moves": MOVES, "workloads": {}}
    failed = False
    for workload in WORKLOADS:
        entry = {"why": workload.why, "seed": seed}
        for trace in (0, 1):
            cmd = [sys.executable, str(RUN), "--workload", workload.name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                print(f"{workload.name} --trace {trace}: exit {proc.returncode}")
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            entry["end_to_end" if trace == 0 else "per_layer"] = result
            entry["run_info" if trace == 0 else "traced_run_info"] = json.loads(lines[-2])
            failed |= not result["correct"]
        report["workloads"][workload.name] = entry
        e2e = entry["end_to_end"]
        print(f"{workload.name}: correct={e2e['correct']} "
              f"attempted={e2e['attempted']} failed={e2e['failed']}")
        for name, unit in END_TO_END:
            print(f"  {name:14s} {e2e['metrics'][name]['value']:12.4f} {unit}")
        untraced = e2e["metrics"]["train_tok_s"]["value"]
        traced = entry["per_layer"]["metrics"]["trace.train_tok_s"]["value"]
        entry["trace_overhead_pct"] = (100.0 * (untraced - traced) / untraced
                                       if untraced else 0.0)
        print(f"  {'tracing cost':14s} {entry['trace_overhead_pct']:12.4f} "
              "% of train_tok_s")
    WORK.mkdir(exist_ok=True)
    out = WORK / "report.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 1 if failed else 0


def main(argv: list[str], t_start: float) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced, "
                             "and write .perfbench/report.json")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up and exit (times setup_s)")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    if args.setup_only:
        prepare(BY_NAME[args.workload], args.seed, Tracer().span).new_model()
        return 0
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), t_start)
    print(json.dumps(result))
    return 0
