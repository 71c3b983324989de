"""Tests of the benchmark itself: its checker counts wrong outputs as
failures, and its tracer reports exactly the metrics BENCHMARK.json lists.

    PYTHONPATH=src python -m pytest perfbench
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import bench  # noqa: E402
import checks  # noqa: E402
import graphfuse.model  # noqa: E402
import graphfuse.training  # noqa: E402
from graphfuse.errors import TrainingDivergedError  # noqa: E402
from tracing import Tracer, per_layer_metrics  # noqa: E402
from workloads import Workload, prepare  # noqa: E402

TINY = Workload(name="tiny", why="test", task="copy", n_train=32, n_valid=8,
                n_test=16, preset="copy", variant="full", epochs=1)


@pytest.fixture(scope="module")
def prep():
    return prepare(TINY, 0, Tracer().span)


@pytest.fixture
def run(prep, tmp_path):
    return bench.Run(prep, Tracer(), str(tmp_path / "checkpoint.npz"))


def test_checker_flags_each_kind_of_wrong_output(prep):
    test = prep.splits["test"]
    labels = set(prep.label_vocab.label_to_id)
    good = [["O"] * len(s) for s in test]
    assert checks.prediction_problems(good, test, labels, None) == []

    short = [p[:-1] for p in good]
    unknown = [["B-NOPE"] + p[1:] for p in good]
    tally = checks.Tally()
    tally.record("short", checks.prediction_problems(short, test, labels, None))
    tally.record("unknown", checks.prediction_problems(unknown, test, labels, None))
    tally.record("changed", checks.prediction_problems(good, test, labels, short))
    history = [{"epoch": 0, "train_loss": math.nan}]
    tally.record("loss", checks.history_problems(history, "x", None))
    tally.record("history", checks.history_problems([], "x", "y"))
    assert (tally.attempted, tally.failed) == (5, 5)


def test_run_counts_wrong_outputs_and_keeps_going(run, monkeypatch):
    assert run.train_cycle() is not None
    assert run.predict_cycle() is not None
    monkeypatch.setattr(bench, "predict_corpus",
                        lambda model, corpus, **kw: [["O"] for _ in corpus])
    assert run.predict_cycle() is None

    def diverge(*args):
        raise TrainingDivergedError("non-finite loss (nan) at optimizer step 0")
    monkeypatch.setattr(bench, "train", diverge)
    assert run.train_cycle() is None
    monkeypatch.undo()
    assert run.predict_cycle() is not None
    assert (run.tally.attempted, run.tally.failed) == (5, 2)
    assert len(run.train_rates) == 1 and len(run.predict_rates) == 2


def test_traced_cycles_report_the_listed_metrics_and_unwrap(run):
    original = graphfuse.model.gat_forward
    run.train_cycle(traced=True)
    run.predict_cycle(traced=True)
    assert graphfuse.model.gat_forward is original
    assert run.tally.failed == 0 and run.tracer.missing == []

    train, predict = run.layers
    assert train["gat.fwd_train_calls"] == 2  # one epoch of 32 in batches of 16
    assert train["gat.edges"] > 0 and predict["gat.edges_eval"] > 0
    assert 0 < train["train.other_ms"] < train["train.wall_ms"]
    names = {n for n, _, _ in per_layer_metrics()}
    assert set(train) | set(predict) < names


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == per_layer_metrics()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(bench.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] \
        == [w.name for w in bench.WORKLOADS]


@pytest.mark.parametrize("workload", [w.name for w in bench.WORKLOADS])
def test_final_loss_bound_catches_a_run_that_does_not_learn(workload, tmp_path,
                                                            monkeypatch):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}["final_loss"]
    prep = prepare(bench.BY_NAME[workload], 0, Tracer().span)

    def final_loss():
        run = bench.Run(prep, Tracer(), str(tmp_path / "checkpoint.npz"))
        assert run.train_cycle() is not None
        return run.final_loss

    learned = final_loss()
    # an optimizer that never updates stands in for a broken backward or AdamW
    monkeypatch.setattr(graphfuse.training, "adamw_step", lambda *a, **k: None)
    assert final_loss() > (1 + bound) * learned
