"""Subject ingestion, Pearson correlation, and synthetic cohorts.

A subject is an ROI-by-time signal matrix with a binary label. The
correlation matrix doubles as node features and as the source of the
thresholded graph. Dataset directories hold ``labels.csv`` plus one
headerless ``<subject_id>.csv`` per subject (N rows, T columns, LF
endings); ``save_dataset`` writes 17-significant-digit decimals so a
save/load round trip is bitwise exact.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field

import numpy as np

# Unit-variance one-factor construction: signal = 0.8 * block factor
# + 0.6 * idiosyncratic noise (0.6 = sqrt(1 - 0.8^2)), giving a true
# within-block correlation of 0.64 against ~0 across blocks.
FACTOR_WEIGHT = 0.8
NOISE_WEIGHT = 0.6


@dataclass
class BoldMatrix:
    """One subject's ROI-by-time signal matrix and diagnosis label."""

    subject_id: str
    series: np.ndarray
    label: int

    def __post_init__(self):
        self.series = np.asarray(self.series, dtype=np.float64)
        if self.series.ndim != 2:
            raise ValueError(
                f"subject {self.subject_id}: series must be 2-D, "
                f"got shape {self.series.shape}"
            )
        n, t = self.series.shape
        if n < 2 or t < 3:
            raise ValueError(
                f"subject {self.subject_id}: need at least 2 ROIs and 3 time "
                f"steps, got {n}x{t}"
            )
        if not np.all(np.isfinite(self.series)):
            raise ValueError(f"subject {self.subject_id}: series has non-finite values")
        if self.label not in (0, 1):
            raise ValueError(
                f"subject {self.subject_id}: label must be 0 or 1, got {self.label!r}"
            )

    @property
    def n_rois(self) -> int:
        return self.series.shape[0]

    @property
    def t_steps(self) -> int:
        return self.series.shape[1]


@dataclass
class Dataset:
    """Ordered collection of subjects sharing one ROI/time geometry."""

    name: str
    subjects: list = field(default_factory=list)

    def __post_init__(self):
        if not self.subjects:
            raise ValueError(f"dataset {self.name!r} has no subjects")
        n, t = self.subjects[0].n_rois, self.subjects[0].t_steps
        for s in self.subjects:
            if (s.n_rois, s.t_steps) != (n, t):
                raise ValueError(
                    f"dataset {self.name!r}: subject {s.subject_id} is "
                    f"{s.n_rois}x{s.t_steps}, expected {n}x{t}"
                )

    def __len__(self) -> int:
        return len(self.subjects)

    @property
    def n_rois(self) -> int:
        return self.subjects[0].n_rois

    @property
    def t_steps(self) -> int:
        return self.subjects[0].t_steps

    @property
    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.subjects], dtype=np.int64)


def pearson_correlation(series: np.ndarray) -> np.ndarray:
    """Pearson correlation between ROI rows, population denominators.

    Zero-variance rows correlate 0 with everything; the diagonal is set
    to exactly 1. Output is exactly symmetric and clipped to [-1, 1].
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2 or series.shape[1] < 3:
        raise ValueError(
            f"expected an (N, T) matrix with T >= 3, got shape {series.shape}"
        )
    if not np.all(np.isfinite(series)):
        raise ValueError("series has non-finite values")

    centered = series - series.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered**2).sum(axis=1))
    constant = norms == 0.0
    safe = np.where(constant, 1.0, norms)
    scaled = centered / safe[:, None]
    corr = scaled @ scaled.T
    corr = (corr + corr.T) * 0.5
    corr = np.clip(corr, -1.0, 1.0)
    corr[constant, :] = 0.0
    corr[:, constant] = 0.0
    np.fill_diagonal(corr, 1.0)
    return corr


def _format_row(values: np.ndarray) -> str:
    return ",".join(format(v, ".17g") for v in values)


def _check_subject_id(subject_id: str, where: str) -> None:
    """Reject an id whose file would not sit beside labels.csv in the directory."""
    if subject_id in ("", ".", "..") or "/" in subject_id or "\\" in subject_id:
        raise ValueError(f"{where}: subject id {subject_id!r} is not a plain file name")
    if subject_id == "labels":
        raise ValueError(f"{where}: subject id 'labels' would clash with labels.csv")


def save_dataset(dataset: Dataset, directory: str) -> None:
    """Write the labels.csv + per-subject CSV layout under ``directory``.

    Every file is first written to a temp file beside it; only once all
    are written are they moved into place, labels.csv last. A save that
    fails while writing leaves an earlier dataset there as it was.
    """
    for s in dataset.subjects:
        _check_subject_id(s.subject_id, directory)
    os.makedirs(directory, exist_ok=True)
    files = [(f"{s.subject_id}.csv", (_format_row(row) for row in s.series))
             for s in dataset.subjects]
    labels = [f"{s.subject_id},{s.label}" for s in dataset.subjects]
    files.append(("labels.csv", ["subject_id,label"] + labels))
    staged = []
    try:
        for name, lines in files:
            path = os.path.join(directory, name)
            staged.append((f"{path}.{os.getpid()}.tmp", path))
            with open(staged[-1][0], "w", newline="") as fh:
                for line in lines:
                    fh.write(line + "\n")
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise


def load_dataset(directory: str) -> Dataset:
    """Load a dataset directory, subjects ordered by subject_id."""
    labels_path = os.path.join(directory, "labels.csv")
    if not os.path.isfile(labels_path):
        raise ValueError(f"missing labels file: {labels_path}")

    entries = []
    with open(labels_path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "subject_id,label":
        raise ValueError(f"{labels_path}: expected header 'subject_id,label'")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{labels_path}: row {lineno}: expected 2 fields")
        subject_id, label_text = parts
        _check_subject_id(subject_id, f"{labels_path}: row {lineno}")
        if label_text not in ("0", "1"):
            raise ValueError(
                f"{labels_path}: row {lineno}: label must be 0 or 1, "
                f"got {label_text!r}"
            )
        entries.append((subject_id, int(label_text)))
    if not entries:
        raise ValueError(f"{labels_path}: no subjects listed")
    if len({sid for sid, _ in entries}) != len(entries):
        raise ValueError(f"{labels_path}: duplicate subject ids")

    subjects = []
    for subject_id, label in sorted(entries):
        path = os.path.join(directory, f"{subject_id}.csv")
        if not os.path.isfile(path):
            raise ValueError(f"missing subject file: {path}")
        rows = []
        with open(path, newline="") as fh:
            for lineno, line in enumerate(fh.read().splitlines(), start=1):
                if not line:
                    continue
                try:
                    row = np.array(line.split(","), dtype=np.float64)
                except ValueError as exc:
                    raise ValueError(f"{path}: row {lineno}: {exc}") from None
                if rows and len(row) != len(rows[0]):
                    raise ValueError(
                        f"{path}: row {lineno}: has {len(row)} columns, "
                        f"expected {len(rows[0])}"
                    )
                rows.append(row)
        if not rows:
            raise ValueError(f"{path}: empty subject file")
        subjects.append(BoldMatrix(subject_id, np.array(rows), label))

    return Dataset(name=os.path.basename(os.path.abspath(directory)), subjects=subjects)


def generate_synthetic(
    n_subjects: int, n_rois: int, t_steps: int, seed: int
) -> Dataset:
    """Deterministic planted-block cohort with balanced labels.

    ROIs split into two blocks sharing a latent factor per subject;
    class 1 uses the partition rotated by n_rois // 4, so block
    membership (hence the correlation structure) separates the classes.
    Draws come from numpy's seeded PCG64 generator, factors before
    noise, subjects in id order, so equal arguments reproduce the
    dataset bit for bit.
    """
    if n_subjects < 4 or n_subjects % 2 != 0:
        raise ValueError(f"n_subjects must be even and >= 4, got {n_subjects}")
    if n_rois < 8:
        raise ValueError(f"n_rois must be >= 8, got {n_rois}")
    if t_steps < 32:
        raise ValueError(f"t_steps must be >= 32, got {t_steps}")

    rng = np.random.default_rng(seed)
    subjects = []
    for idx in range(n_subjects):
        label = 0 if idx < n_subjects // 2 else 1
        block = planted_blocks(n_rois, label)
        factors = rng.standard_normal((2, t_steps))
        noise = rng.standard_normal((n_rois, t_steps))
        series = FACTOR_WEIGHT * factors[block] + NOISE_WEIGHT * noise
        subjects.append(BoldMatrix(f"s{idx:04d}", series, label))

    name = f"synthetic-{n_subjects}x{n_rois}x{t_steps}-seed{seed}"
    return Dataset(name=name, subjects=subjects)


def planted_blocks(n_rois: int, label: int) -> np.ndarray:
    """Block membership used by the generator for the given class."""
    half = n_rois // 2
    rotation = 0 if label == 0 else n_rois // 4
    return np.array([0 if (i - rotation) % n_rois < half else 1 for i in range(n_rois)])
