"""Benchmark inputs: seeded planted-block cohorts written in dataset layout.

The benchmark makes its own inputs so that a change to the program's
synthetic generator cannot change what the benchmark measures. The
construction follows the README's cohort: each subject's ROIs split into
two blocks that share a latent factor (weight 0.8, noise weight 0.6, so
within-block correlation is about 0.64), and class 1 rotates the block
partition by a quarter of the ROIs. Correlation structure therefore
separates the classes.
"""

from __future__ import annotations

import os

import numpy as np

FACTOR_WEIGHT = 0.8
NOISE_WEIGHT = 0.6


def _blocks(n_rois: int, label: int) -> np.ndarray:
    half = n_rois // 2
    rotation = 0 if label == 0 else n_rois // 4
    return np.array([0 if (i - rotation) % n_rois < half else 1 for i in range(n_rois)])


def write_cohort(directory: str, n_subjects: int, n_rois: int, t_steps: int, seed: int) -> int:
    """Write labels.csv and one CSV per subject; return the bytes written.

    Labels alternate 0/1 by subject index. Values are written with 17
    significant digits, the program's own lossless format.
    """
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(seed)
    total = 0
    rows = ["subject_id,label"]
    for idx in range(n_subjects):
        label = idx % 2
        factors = rng.standard_normal((2, t_steps))
        noise = rng.standard_normal((n_rois, t_steps))
        series = FACTOR_WEIGHT * factors[_blocks(n_rois, label)] + NOISE_WEIGHT * noise
        subject_id = f"s{idx:04d}"
        rows.append(f"{subject_id},{label}")
        text = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in series)
        total += _write(os.path.join(directory, f"{subject_id}.csv"), text)
    total += _write(os.path.join(directory, "labels.csv"), "\n".join(rows) + "\n")
    return total


def _write(path: str, text: str) -> int:
    data = text.encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)
