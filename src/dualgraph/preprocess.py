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
import io
import locale
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

    Takes one subject's (N, T) series or a stack of B subjects' (B, N, T)
    and returns (N, N) or (B, N, N). Each subject's matrix is computed by
    the same per-row reductions and the same per-matrix product as its
    own 2-D call, so it has that call's bits. Zero-variance rows
    correlate 0 with everything; the diagonal is set to exactly 1.
    Output is exactly symmetric and clipped to [-1, 1]. The steps after
    centering write over their own temporaries, so a stack's working set
    is about three times its size.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim not in (2, 3) or series.shape[-1] < 3:
        raise ValueError(
            f"expected an (N, T) matrix with T >= 3, got shape {series.shape}"
        )
    if not np.all(np.isfinite(series)):
        raise ValueError("series has non-finite values")

    centered = series - series.mean(axis=-1, keepdims=True)
    norms = np.sqrt(np.square(centered).sum(axis=-1))
    constant = norms == 0.0
    some_constant = constant.any()
    if some_constant:
        norms[constant] = 1.0
    centered /= norms[..., None]  # scaled
    corr = centered @ centered.swapaxes(-1, -2)
    corr = corr + corr.swapaxes(-1, -2)
    corr *= 0.5
    np.clip(corr, -1.0, 1.0, out=corr)
    if some_constant:
        corr[constant] = 0.0  # rows
        corr.swapaxes(-1, -2)[constant] = 0.0  # columns
    np.einsum("...ii->...i", corr)[...] = 1.0
    return corr


def _format_row(values: np.ndarray) -> str:
    return ",".join(format(v, ".17g") for v in values)


def _check_subject_id(subject_id: str, where: str) -> None:
    """Reject an id that is not a plain file name or not one labels.csv field.

    Its file must sit beside labels.csv in the directory, and its
    labels.csv line must read back as written: no comma, and none of the
    line breaks of ``str.splitlines``, a superset of the LF the loader
    splits on. It must also encode as a file name and in the text
    encoding labels.csv is written in, so a lone surrogate is refused.
    """
    if subject_id in ("", ".", "..") or any(c in subject_id for c in "/\\\0"):
        raise ValueError(f"{where}: subject id {subject_id!r} is not a plain file name")
    if subject_id == "labels":
        raise ValueError(f"{where}: subject id 'labels' would clash with labels.csv")
    if "," in subject_id or subject_id.splitlines() != [subject_id]:
        raise ValueError(f"{where}: subject id {subject_id!r} holds a comma or a line break")
    try:
        os.fsencode(subject_id)
        subject_id.encode(locale.getpreferredencoding(False))
    except UnicodeEncodeError:
        raise ValueError(f"{where}: subject id {subject_id!r} cannot be encoded") from None


@contextlib.contextmanager
def atomic_paths(paths: list):
    """Temp paths that replace ``paths``, in order, only on success.

    The block writes each temp path, a file beside its target. When it
    exits cleanly ``os.replace`` moves each into place in the order
    given. On any error every temp file is removed and the files at
    ``paths`` are left as they were.
    """
    tmps = [f"{path}.{os.getpid()}.tmp" for path in paths]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise


@contextlib.contextmanager
def atomic_write(path: str):
    """Binary file handle whose contents replace ``path`` only on success."""
    with atomic_paths([path]) as (tmp,), open(tmp, "wb") as fh:
        yield fh


def save_dataset(dataset: Dataset, directory: str) -> None:
    """Write the labels.csv + per-subject CSV layout under ``directory``.

    Every file is first written to a temp file beside it; only once all
    are written are they moved into place, labels.csv last. A save that
    fails while writing leaves an earlier dataset there as it was.
    """
    for s in dataset.subjects:
        _check_subject_id(s.subject_id, directory)
    if len({s.subject_id for s in dataset.subjects}) != len(dataset):
        raise ValueError(f"{directory}: duplicate subject ids")
    os.makedirs(directory, exist_ok=True)
    files = [(f"{s.subject_id}.csv", (_format_row(row) for row in s.series))
             for s in dataset.subjects]
    labels = [f"{s.subject_id},{s.label}" for s in dataset.subjects]
    files.append(("labels.csv", ["subject_id,label"] + labels))
    with atomic_paths([os.path.join(directory, name) for name, _ in files]) as tmps:
        for tmp, (_, lines) in zip(tmps, files):
            with open(tmp, "w", newline="") as fh:
                for line in lines:
                    fh.write(line + "\n")


# The bytes of a subject file numpy's C reader may parse: printable ASCII,
# TAB and LF. Python's float(), behind the row parser, strips more
# whitespace than the C reader (\x1c-\x1f, NEL, U+2028 and others), and a
# CR or any other control byte changes how a line splits.
_PLAIN_TEXT = bytes(range(0x20, 0x7F)) + b"\t\n"


def _read_bytes(path: str, kind: str) -> bytes:
    """A dataset file's bytes; a missing file is named before any read."""
    if not os.path.isfile(path):
        raise ValueError(f"missing {kind} file: {path}")
    with open(path, "rb") as fh:
        return fh.read()


def _split_lines(path: str, data: bytes) -> list:
    """The LF-separated lines of a dataset file, each without one trailing CR.

    The bytes decode as ``open(path)`` decodes the file in text mode; a
    file that does not decode is named. No other character ends a line,
    so a form feed or U+2028 stays inside its row.
    """
    try:
        text = io.TextIOWrapper(io.BytesIO(data), newline="").read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return [line.removesuffix("\r") for line in text.split("\n")]


def _read_subject(path: str) -> np.ndarray:
    """A subject file's (N, T) values.

    A file of ``_PLAIN_TEXT`` bytes with a non-empty line goes to
    ``np.loadtxt``, which gives the row parser's bits in less time. Every
    other file (CRLF, non-ASCII, other control bytes, empty lines only)
    and every file ``np.loadtxt`` rejects goes to the row parser, one
    ``np.array`` per non-empty line, so what loads and every error, named
    by its 1-based line, stay the row parser's. An empty-lines-only file
    never reaches ``np.loadtxt``, which would warn and return no rows.
    """
    data = _read_bytes(path, "subject")
    if data.strip(b"\n") and not data.translate(None, _PLAIN_TEXT):
        with contextlib.suppress(ValueError):
            return np.loadtxt(io.BytesIO(data), delimiter=",", ndmin=2, comments=None)
    rows = []
    for lineno, line in enumerate(_split_lines(path, data), start=1):
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
    return np.array(rows)


def load_dataset(directory: str) -> Dataset:
    """Load a dataset directory, subjects ordered by subject_id.

    Subject files that ``save_dataset`` and ``dualgraph synth`` write take
    numpy's C reader; any other file, and any error, the row parser (see
    ``_read_subject``).
    """
    labels_path = os.path.join(directory, "labels.csv")
    lines = _split_lines(labels_path, _read_bytes(labels_path, "labels"))
    if not lines or lines[0] != "subject_id,label":
        raise ValueError(f"{labels_path}: expected header 'subject_id,label'")
    entries = []
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
        subjects.append(BoldMatrix(subject_id, _read_subject(path), label))

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
