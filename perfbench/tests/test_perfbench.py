"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``.

They cover a tiny-geometry smoke run of every workload (untraced and
traced), the metric names and units against BENCHMARK.json's rules, the
tail-percentile rule, how failed operations are counted (a worker that
dies included), and the exit code without the program's source.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402
from stats import tail, tail_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def tiny(workload):
    """The same workload shrunk to seconds of work: 12 subjects, 8 ROIs x 32 steps."""
    config = dict(workload.train_config, epochs=1, patience=1, batch_size=4,
                  gcn_hidden_dim=8, gcn_out_dim=4, extractor_dim=4, classifier_hidden_dim=4)
    return dataclasses.replace(
        workload, n_subjects=12, n_rois=8, t_steps=32, train_config=config, min_test_f1=0.0
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run(name, tmp_path):
    workload = tiny(WORKLOADS[name])
    work = str(tmp_path / "work")
    inputs = run.prepare(workload, 7, work)

    tally = run.Tally()
    now = run.clock()
    metrics, details = run.measured_run(workload, inputs, now + 0.05, now + 120, work, tally)
    assert tally.failed == 0, tally.reasons
    assert set(metrics) == set(layers.END_TO_END_NAMES)
    assert all(value > 0 for value in metrics.values()), metrics
    assert details["env"]["nproc"] >= 1
    # Set-up is sampled on both commands; the eval probes load the checkpoint.
    assert {k: len(v) for k, v in details["setup_samples_s"].items()} == {
        "train": run.SETUP_PROBES, "eval": run.SETUP_PROBES
    }

    tally = run.Tally()
    metrics, details = run.traced_run(workload, inputs, work, str(tmp_path), tally,
                                      run.clock() + 120)
    assert tally.failed == 0, tally.reasons
    assert set(metrics) == set(layers.PER_LAYER_NAMES)
    assert details["trace_missing"] == []
    for key in ("graphgen.edge_probabilities.fwd_s", "model.gcn_forward.bwd_s",
                "autodiff.matmul.bwd_gflop", "autodiff.tape_nodes_per_step",
                "train.adam_params", "model.eval_tape_nodes_per_subject"):
        assert metrics[key] > 0, key
    assert metrics["graphgen.edge_probabilities.pairs"] == (
        metrics["graphgen.edge_probabilities.calls"] * 8 * 8
    )
    with open(tmp_path / f"{workload.name}.spans.json") as fh:
        spans = json.load(fh)["spans"]
    assert {"model.forward.train", "model.forward.eval", "autodiff.backward"} <= {
        s[0] for s in spans
    }


def test_traced_run_catches_changed_arithmetic(tmp_path, monkeypatch):
    """A traced worker whose outputs differ from the untraced one fails the run."""
    workload = tiny(WORKLOADS["train-acceptance"])
    work = str(tmp_path / "work")
    inputs = run.prepare(workload, 3, work)
    real_spawn = run.spawn

    def spawn(work_dir, tag, spec, timeout, env_extra=None):
        result = real_spawn(work_dir, tag, spec, timeout, env_extra)
        if tag == "traced":
            result["invocations"][0]["outputs"]["checkpoint_sha256"] = "0" * 64
        return result

    monkeypatch.setattr(run, "spawn", spawn)
    tally = run.Tally()
    run.traced_run(workload, inputs, work, str(tmp_path), tally, run.clock() + 120)
    assert tally.failed >= 1
    assert any("differ from untraced" in reason for reason in tally.reasons)


def test_metric_names_and_units():
    names = [m[0] for m in layers.END_TO_END + layers.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better, *_ in layers.END_TO_END + layers.PER_LAYER:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
        assert better in ("higher", "lower")
    for name in WORKLOADS:
        assert NAME.match(name), name


def test_benchmark_json_matches_definitions():
    bench = _benchmark_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in bench["workloads"])
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]
    ] == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        m[:3] for m in layers.PER_LAYER
    ]
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])


@pytest.mark.parametrize(
    "n, expected",
    [(1, 100.0), (19, 100.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
     (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_rule(n, expected):
    assert tail_percentile(n) == expected


def test_tail_value_and_percentile():
    values = [float(v) for v in range(1, 101)]
    value, p, n = tail(values)
    assert (p, n) == (90.0, 100)
    assert value == pytest.approx(90.1)  # linear interpolation between 90 and 91
    assert sum(v > value for v in values) == 10
    assert tail([5.0, 7.0]) == (7.0, 100.0, 2)


def _invocation(**fields) -> dict:
    record = {"command": "eval", "steps": [], "open_step": False, "eval_probabilities": [],
              "rc": 1, "error": None}
    record.update(fields)
    return record


def test_each_bad_probability_is_one_failed_operation():
    probs = [0.2, float("nan"), 1.5, float("inf"), -0.1, 0.9, 1.0, 0.0]
    tally = run.Tally()
    run.check_invocations([_invocation(eval_probabilities=probs)], WORKLOADS["train-paper"],
                          tally, "t")
    # 8 subjects and the failed invocation; 4 probabilities are bad.
    assert (tally.attempted, tally.failed) == (9, 5)


def test_a_raised_step_is_one_failed_operation():
    tally = run.Tally()
    run.check_invocations([_invocation(command="train", steps=[0.1] * 5, open_step=True)],
                          WORKLOADS["train-paper"], tally, "t")
    # 5 finished steps, the step that raised, and the failed invocation.
    assert (tally.attempted, tally.failed) == (7, 2)


def test_dead_worker_still_prints_a_result(monkeypatch, capsys):
    def spawn(*args, **kwargs):
        raise subprocess.TimeoutExpired("worker", 1.0)

    monkeypatch.setattr(run, "spawn", spawn)
    result = run.run_workload(tiny(WORKLOADS["train-acceptance"]), 1, 0.05, 0)
    assert not result["correct"] and result["failed"] >= 1 and result["attempted"] >= 1
    assert "FAILED: TimeoutExpired" in capsys.readouterr().out


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
