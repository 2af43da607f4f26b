"""dualgraph benchmark: one workload, end-to-end metrics or a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload train-acceptance --seed 1 --seconds 60 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` the per-layer metrics, the traced/untraced
equivalence check, the tracing overhead and a one-thread BLAS baseline.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when every output check passes, 1 when one fails, and 2 when the
program's source (``src/dualgraph``) is not beside this directory.

Inputs are generated from ``--seed`` under ``.bench_work/`` and removed
at the end; the full record of the run is written to
``.bench_out/<workload>-trace<0|1>.json`` (spans to
``.bench_out/<workload>.spans.json``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from statistics import median

import layers
import worker
from cohort import write_cohort
from probes import clock
from stats import tail
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 6  # per command
TRACE_REPS = 2  # repetition 1 warms up; per-layer numbers come from repetition 2
# Every worker is killed this many seconds after the run started (or
# 60 s after --seconds, if that is later), so that a run at the usual
# --seconds ends within three minutes whatever the program does.
RUN_LIMIT_S = 170.0
ONE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Tally:
    """Operations attempted and failed, with a reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, attempted: int, failed: int, reason: str) -> None:
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.reasons.append(reason)

    def check(self, ok: bool, reason: str) -> bool:
        self.record(1, 0 if ok else 1, reason)
        return ok

    def fail(self, reason: str) -> None:
        self.record(1, 1, reason)


# -- inputs -----------------------------------------------------------------


def prepare(workload, seed: int, work: str) -> dict:
    data = os.path.join(work, "data")
    dataset_bytes = write_cohort(
        data, workload.n_subjects, workload.n_rois, workload.t_steps, seed
    )
    config = dict(workload.train_config, seed=seed)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    checkpoint = os.path.join(work, "model.ckpt")
    eval_out = os.path.join(work, "eval.json")
    phases = []
    for phase in workload.phases:
        if phase.command == "train":
            argv = ["train", "--data", data, "--config", config_path, "--out", checkpoint]
        else:
            argv = ["eval", "--model", checkpoint, "--data", data, "--out", eval_out]
        phases.append(
            {
                "command": phase.command,
                "argv": argv,
                "per_cycle": phase.per_cycle,
                "checkpoint": checkpoint,
                "eval_out": eval_out,
            }
        )
    return {"phases": phases, "dataset_bytes": dataset_bytes}


# -- worker processes -------------------------------------------------------


def spawn(work: str, tag: str, spec: dict, timeout: float, env_extra: dict = None) -> dict:
    """Run one worker process, in a process group of its own, on the program in SRC."""
    return worker.spawn(work, tag, dict(spec, src=SRC), timeout, env_extra, own_group=True)


# -- output checks ----------------------------------------------------------


def _finite_losses(log_text: str) -> bool:
    rows = log_text.strip().splitlines()[1:]
    values = [float(v) for row in rows for v in row.split(",")[1:]]
    return bool(rows) and all(math.isfinite(v) for v in values)


def check_invocations(invocations: list, workload, tally: Tally, label: str) -> None:
    """Per-invocation output checks plus the counts that must repeat exactly."""
    first = {}
    for i, inv in enumerate(invocations):
        where = f"{label} {inv['command']} #{i}"
        # A step that raised is the one still open when the command ended.
        tally.record(len(inv["steps"]) + inv["open_step"], int(inv["open_step"]),
                     f"{where}: training step raised")
        probs = inv["eval_probabilities"]
        bad = sum(not 0.0 <= p <= 1.0 for p in probs)  # false for NaN and infinities too
        tally.record(len(probs), bad,
                     f"{where}: {bad} eval probabilities non-finite or outside [0, 1]")
        ok = inv["rc"] == 0
        reason = f"{where}: exit code {inv['rc']} {inv.get('error') or ''}".strip()
        if ok:
            out = inv["outputs"]
            if inv["command"] == "train":
                signature = (out["checkpoint_sha256"], out["log"], len(inv["steps"]),
                             inv["train_subjects"])
                if not _finite_losses(out["log"]):
                    ok, reason = False, f"{where}: non-finite loss in the training log"
                elif out["metrics"]["f1"] < workload.min_test_f1:
                    ok, reason = False, (f"{where}: test F1 {out['metrics']['f1']} "
                                         f"below {workload.min_test_f1}")
                elif out["reload_error"] is not None:
                    ok, reason = False, f"{where}: checkpoint reload: {out['reload_error']}"
            else:
                signature = (out["metrics_text"], len(inv["eval_times"]))
            expected = first.setdefault(inv["command"], signature)
            if ok and signature != expected:
                ok, reason = False, f"{where}: outputs or counts differ from the first repetition"
        tally.check(ok, reason)


# -- end-to-end run ---------------------------------------------------------


def measured_run(workload, inputs: dict, deadline: float, limit: float, work: str,
                 tally: Tally) -> tuple:
    """The measured process: cycles until ``deadline``, killed at ``limit`` (clock values)."""
    spec = {"mode": "measure", "phases": inputs["phases"], "deadline": deadline,
            "probes": SETUP_PROBES}
    result = spawn(work, "measure", spec, max(1.0, limit - clock()))
    check_invocations(result["invocations"], workload, tally, "measure")
    setups = {}
    for probe in result["probes"]:
        reason = f"{probe['command']} set-up probe: {probe['error'] or 'never reached work'}"
        if tally.check(probe["setup_s"] is not None, reason):
            setups.setdefault(probe["command"], []).append(probe["setup_s"])

    measured = [inv for inv in result["invocations"] if not inv["warmup"] and inv["rc"] == 0]
    train = [inv for inv in measured if inv["command"] == "train"]
    evals = [inv for inv in measured if inv["command"] == "eval"]
    steps_ms = [1e3 * s for inv in train for s in inv["steps"]]
    subject_ms = [1e3 * s for inv in evals for s in inv["eval_times"]]
    if not (train and evals and steps_ms and subject_ms and len(setups) == len(inputs["phases"])):
        tally.fail("no measured training step, scored subject or set-up of each command")
        return {}, {"env": result["env"]}
    step_tail, step_p, step_n = tail(steps_ms, workload.step_tail_percentile)
    # The subject tail is taken per eval command, one user-visible run, and
    # its median over the commands reported: pooled, the few cold subjects
    # at the start of each command sit at the tail percentile and a brief
    # stall of the machine moves it.
    subject_tails = [tail([1e3 * s for s in inv["eval_times"]]) for inv in evals]
    subject_tail = median(t[0] for t in subject_tails)
    _, subject_p, subject_n = subject_tails[0]  # every command scores the same subjects
    metrics = {
        "train_subjects_per_s": sum(i["train_subjects"] for i in train)
        / sum(i["wall_s"] for i in train),
        "train_step_ms_p50": median(steps_ms),
        "train_step_ms_tail": step_tail,
        "eval_subjects_per_s": len(subject_ms) / sum(i["score_s"] for i in evals),
        "eval_subject_ms_p50": median(subject_ms),
        "eval_subject_ms_tail": subject_tail,
        # One set-up of each command: a user pays both to train, then score.
        "setup_s": sum(median(values) for values in setups.values()),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    details = {
        "env": result["env"],
        "train_step_tail": {"percentile": step_p, "samples": step_n},
        "eval_subject_tail": {"percentile": subject_p, "samples": subject_n,
                              "commands": len(evals)},
        "setup_samples_s": setups,
        "invocation_wall_s": [
            (inv["command"], inv["warmup"], inv["wall_s"]) for inv in result["invocations"]
        ],
    }
    return metrics, details


# -- traced run -------------------------------------------------------------

REPEATING_COUNTS = (
    "steps", "ops", "step_ops", "step_tape_nodes", "eval_tape_nodes", "eval_forwards",
    "matmul_fwd_flop", "matmul_bwd_flop", "edge_calls", "edge_pairs", "vjp_products",
    "vjp_useful", "dataset_bytes", "dataset_loads", "adam_params",
)


def _by_rep(invocations: list, rep: int) -> list:
    return [inv for inv in invocations if inv["rep"] == rep]


def traced_run(workload, inputs: dict, work: str, out_dir: str, tally: Tally,
               limit: float) -> tuple:
    """Reference, traced and one-thread workers, each killed at ``limit`` (a clock value)."""
    phases = [dict(p, reps=TRACE_REPS) for p in inputs["phases"]]
    timeout = lambda: max(1.0, limit - clock())  # noqa: E731
    reference = spawn(work, "reference", {"mode": "fixed", "phases": phases}, timeout())
    traced = spawn(work, "traced", {
        "mode": "traced", "phases": phases,
        "spans_out": os.path.join(out_dir, f"{workload.name}.spans.json"),
    }, timeout())
    one_thread = spawn(work, "one_thread", {"mode": "fixed", "phases": phases}, timeout(),
                       ONE_THREAD_ENV)
    for label, result in (("reference", reference), ("traced", traced),
                          ("one-thread", one_thread)):
        check_invocations(result["invocations"], workload, tally, label)

    # Traced outputs must equal the untraced ones bit for bit.
    for ref, tr in zip(reference["invocations"], traced["invocations"]):
        same = ref.get("outputs") == tr.get("outputs") and ref["rc"] == tr["rc"] == 0
        tally.check(same, f"traced {tr['command']} rep {tr['rep']}: outputs differ from untraced")
    # Counts must repeat exactly between the two traced repetitions.
    for first, second in zip(_by_rep(traced["invocations"], 0), _by_rep(traced["invocations"], 1)):
        a, b = first["trace"], second["trace"]
        same = all(a["counts"].get(k, 0) == b["counts"].get(k, 0) for k in REPEATING_COUNTS)
        same = same and a["filtered_density"] == b["filtered_density"]
        same = same and a["sampled_density"] == b["sampled_density"]
        tally.check(same, f"traced {first['command']}: counts differ between repetitions")

    last = _by_rep(traced["invocations"], TRACE_REPS - 1)
    metrics = layers.per_layer_metrics(last, _by_rep(reference["invocations"], TRACE_REPS - 1))
    one_thread_ok = [inv.get("outputs") for inv in one_thread["invocations"]] == [
        inv.get("outputs") for inv in reference["invocations"]
    ]
    details = {
        "env": reference["env"],
        "one_thread_env": one_thread["env"],
        "trace_missing": traced["trace_missing"],
        "graph_density": {
            "filtered": layers.mean_of(last, "filtered_density"),
            "sampled": layers.mean_of(last, "sampled_density"),
        },
        "blas_comparison": layers.blas_comparison(
            _by_rep(reference["invocations"], TRACE_REPS - 1),
            _by_rep(one_thread["invocations"], TRACE_REPS - 1),
        ),
        "one_thread_outputs_identical": one_thread_ok,
        "repeating_counts": {
            inv["command"]: {k: inv["trace"]["counts"].get(k, 0) for k in REPEATING_COUNTS}
            for inv in last
        },
    }
    return metrics, details


# -- entry point ------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description="dualgraph benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(workload, seed: int, seconds: float, trace: int, prefix: str = "") -> dict:
    """Run one workload, print its metric lines and return its result object."""
    start = clock()
    out_dir = os.path.join(ROOT, ".bench_out")
    work = os.path.join(ROOT, ".bench_work", f"{workload.name}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    tally = Tally()
    names = layers.PER_LAYER_NAMES if trace else layers.END_TO_END_NAMES
    try:
        inputs = prepare(workload, seed % 2**32, work)
        try:
            limit = start + max(RUN_LIMIT_S, seconds + 60.0)
            if trace:
                metrics, details = traced_run(workload, inputs, work, out_dir, tally, limit)
            else:
                metrics, details = measured_run(
                    workload, inputs, start + seconds, limit, work, tally
                )
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            # A dead or stuck worker is a failed run; the result is still printed.
            tally.fail(f"{type(exc).__name__}: {exc}")
            metrics, details = {}, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = layers.UNITS
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "dataset_bytes": inputs["dataset_bytes"],
        "failures": tally.reasons,
        "metrics": metrics,
        **details,
    }
    with open(os.path.join(out_dir, f"{workload.name}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for key in ("env", "graph_density", "blas_comparison", "one_thread_outputs_identical"):
        if key in details:
            print(f"{prefix}# {key}: {json.dumps(details[key])}")
    for reason in tally.reasons:
        print(f"{prefix}# FAILED: {reason}")
    for name in names:
        if name in metrics:
            tail_of = details.get(name.replace("_ms_tail", "_tail"))
            note = ""
            if tail_of:
                per = (f" per command, median of {tail_of['commands']} commands"
                       if "commands" in tail_of else "")
                note = f" (p{tail_of['percentile']:g} of {tail_of['samples']} samples{per})"
            print(f"{prefix}{name} = {metrics[name]!r} {units[name]}{note}")
    return {
        "correct": tally.failed == 0 and all(name in metrics for name in names),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in names if name in metrics
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dualgraph", "cli.py")):
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    else:
        results = {
            name: run_workload(workload, args.seed, args.seconds, args.trace, f"[{name}] ")
            for name, workload in WORKLOADS.items()
        }
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
