"""The benchmark's workloads: geometry, training config and phase plan.

Every workload runs both user-facing commands, ``dualgraph train`` and
then ``dualgraph eval`` on the checkpoint it wrote, so that every
end-to-end metric is measured on every workload; the workloads differ in
geometry. See README.md for why each one exists.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Phase:
    """One CLI command, run ``per_cycle`` times in each measured cycle.

    The measured process repeats cycles of every phase until its time is
    up, so a faster program takes more samples in the same time.
    """

    command: str  # "train" or "eval"
    per_cycle: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_subjects: int
    n_rois: int
    t_steps: int
    train_config: dict
    phases: tuple  # train first: eval scores the checkpoint train wrote
    # The step tail's percentile, fixed so that both sides of a comparison
    # report the same statistic: the highest with at least ten steps above
    # it in a run at the nominal speed (see the comments below).
    step_tail_percentile: float
    min_test_f1: float = 0.0


def _config(**overrides) -> dict:
    config = {
        "learning_rate": 1e-3,
        "extractor_dim": 32,
        "gcn_hidden_dim": 64,
        "gcn_out_dim": 32,
        "classifier_hidden_dim": 64,
        "corr_threshold": 0.6,
        "temperature": 1.0,
        "batch_size": 16,
        "mode": "full",
    }
    config.update(overrides)
    # Patience never cuts a run short, so every repetition does the same work.
    config["patience"] = config["epochs"]
    return config


# At --seconds 60 (BENCHMARK.json's run_seconds), on the 2-vCPU machine
# the benchmark was defined on, train-acceptance ran about 36 measured
# cycles (1440 steps, so p95 has 72 above it; 108 eval commands) and
# train-paper 7 (42 steps, p75 has 10 above it; 7 eval commands). Eval
# runs three times per cycle on train-acceptance, where one command
# scores its 80 subjects in about 50 ms, so that scoring is sampled all
# through the run and not only at a few instants.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-acceptance",
            why="README acceptance cohort (80 subjects, 16 ROIs x 64 steps): "
            "tiny matrices, so per-op Python, tape bookkeeping, Adam calls and "
            "validation dominate",
            n_subjects=80,
            n_rois=16,
            t_steps=64,
            train_config=_config(epochs=10),
            phases=(Phase("train", 1), Phase("eval", 3)),
            step_tail_percentile=95.0,
            min_test_f1=0.85,
        ),
        Workload(
            name="train-paper",
            why="paper scale (96 ROIs x 150 steps, GCN 256/256): dense matmul "
            "dominates, mostly the 49152 x 64 head product, and Adam updates "
            "3.3M parameters",
            n_subjects=48,
            n_rois=96,
            t_steps=150,
            train_config=_config(epochs=3, gcn_hidden_dim=256, gcn_out_dim=256),
            phases=(Phase("train", 1), Phase("eval", 1)),
            step_tail_percentile=75.0,
        ),
    )
}
