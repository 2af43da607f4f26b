"""Training protocol: splits, Adam, metrics, model selection, ablations.

Subjects split 80/20 into train+validation/test, then 85/15 into
train/validation, stratified by label. Training minimizes mean binary
cross-entropy over mini-batches with Adam; after each epoch the model
is scored on the validation set through the deterministic evaluation
path, and the parameters with the best validation F1 (ties broken by
lower validation loss, then earlier epoch) are the ones kept. The whole
run is a pure function of the dataset and configuration.
"""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass, fields, replace

import numpy as np

from dualgraph import autodiff as ad
from dualgraph.autodiff import bce_value, logistic
from dualgraph.graphgen import sample_gumbel_noise
from dualgraph.model import (
    MODES,
    ModelConfig,
    ModelState,
    _is_number,
    check_config,
    forward,
    init_model,
    thresholded_graph,
)
from dualgraph.preprocess import Dataset, pearson_correlation


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    extractor_dim: int = 32
    gcn_hidden_dim: int = 64
    gcn_out_dim: int = 32
    classifier_hidden_dim: int = 64
    corr_threshold: float = 0.6
    temperature: float = 1.0
    epochs: int = 200
    patience: int = 30
    batch_size: int = 16
    seed: int = 0
    mode: str = "full"

    def __post_init__(self):
        check_config(self, counts=("epochs", "patience", "batch_size"))
        rate = self.learning_rate
        if not (_is_number(rate) and 0.0 <= rate < np.inf):
            raise ValueError(f"learning_rate must be finite and >= 0, got {rate!r}")


_CONFIG_FIELDS = typing.get_type_hints(TrainConfig)


def load_train_config(path: str) -> TrainConfig:
    """Read a flat JSON object mirroring TrainConfig; unknown keys rejected."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # malformed, or nested too deeply
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    unknown = sorted(set(data) - set(_CONFIG_FIELDS))
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    kwargs = {}
    try:
        for key, value in data.items():
            if isinstance(value, str):
                value = value.replace("-", "_")
            elif _CONFIG_FIELDS[key] is float and type(value) is int:
                value = float(value)  # JSON 1 and 1.0 give the same config
            kwargs[key] = value
        return TrainConfig(**kwargs)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None


@dataclass
class SplitIndices:
    train: list
    val: list
    test: list


def _apportion(total: int, counts: list) -> list:
    """Largest-remainder split of ``total`` across groups sized ``counts``."""
    pool = sum(counts)
    quotas = [total * c / pool for c in counts]
    shares = [int(q) for q in quotas]
    leftovers = total - sum(shares)
    by_fraction = sorted(
        range(len(counts)), key=lambda i: (-(quotas[i] - shares[i]), i)
    )
    for i in by_fraction[:leftovers]:
        shares[i] += 1
    return shares


def split(dataset: Dataset, seed: int) -> SplitIndices:
    """Stratified, seeded 80/20 test split then 85/15 train/validation.

    Five subjects are enough to split, but ``train_model`` also needs both
    classes in the test split, which 5-7 subjects (one test subject) never give.
    """
    n = len(dataset)
    if n < 5:
        raise ValueError(f"need at least 5 subjects to split, got {n}")
    labels = dataset.labels
    class_indices = [np.flatnonzero(labels == c) for c in (0, 1)]
    if any(len(ci) == 0 for ci in class_indices):
        raise ValueError("both classes must be present to split")

    rng = np.random.default_rng(seed)
    shuffled = [rng.permutation(ci).tolist() for ci in class_indices]

    n_test = round(0.20 * n)
    test_shares = _apportion(n_test, [len(s) for s in shuffled])
    test, remaining = [], []
    for share, ids in zip(test_shares, shuffled):
        test.extend(ids[:share])
        remaining.append(ids[share:])

    n_val = round(0.15 * (n - n_test))
    val_shares = _apportion(n_val, [len(r) for r in remaining])
    val, train = [], []
    for share, ids in zip(val_shares, remaining):
        val.extend(ids[:share])
        train.extend(ids[share:])

    return SplitIndices(train=sorted(train), val=sorted(val), test=sorted(test))


class Adam:
    """Adaptive-moment optimizer, bias-corrected, epsilon outside the root.

    A step updates the moments and every parameter's array in place, a
    fixed-size chunk at a time through two scratch buffers, so its memory
    traffic does not grow with temporaries. The arithmetic is the
    out-of-place textbook form operation for operation, so the results
    are the same bits. A parameter with no gradient, like an ablation
    mode's unused branch, is skipped: its moments and value stay as they are.
    """

    CHUNK = 32768
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: list, learning_rate: float):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.t = 0
        self.m = [np.zeros(p.data.shape) for p in self.params]
        self.v = [np.zeros(p.data.shape) for p in self.params]
        self._scratch = np.empty((2, self.CHUNK))

    def step(self) -> None:
        self.t += 1
        b1, b2, lr, eps = self.BETA1, self.BETA2, self.learning_rate, self.EPS
        c1, c2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            data, g = p.data, p.grad
            if g.shape != data.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter {data.shape}")
            flat_p = data.reshape(-1)  # a copy when data is not C-contiguous
            flat_g, flat_m, flat_v = g.reshape(-1), m.reshape(-1), v.reshape(-1)
            for start in range(0, flat_p.size, self.CHUNK):
                span = slice(start, start + self.CHUNK)
                gc, mc, vc = flat_g[span], flat_m[span], flat_v[span]
                a, b = self._scratch[:, : gc.size]
                np.multiply(gc, 1.0 - b1, out=a)
                mc *= b1
                mc += a  # m = b1 * m + (1 - b1) * g
                np.multiply(gc, 1.0 - b2, out=a)
                a *= gc
                vc *= b2
                vc += a  # v = b2 * v + (1 - b2) * g * g
                np.divide(mc, c1, out=a)
                a *= lr
                np.divide(vc, c2, out=b)
                np.sqrt(b, out=b)
                b += eps
                a /= b
                flat_p[span] -= a  # p = p - lr * m_hat / (sqrt(v_hat) + eps)
            if not data.flags.c_contiguous:
                data[...] = flat_p.reshape(data.shape)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


@dataclass
class Metrics:
    """Test scores; the field order is the metrics JSON and ablation column order."""

    f1: float
    sensitivity: float
    specificity: float
    auc: float
    tp: int
    fp: int
    tn: int
    fn: int


def _confusion(probs: np.ndarray, labels: np.ndarray) -> tuple:
    preds = probs >= 0.5
    pos = labels == 1
    tp = int(np.sum(preds & pos))
    fp = int(np.sum(preds & ~pos))
    tn = int(np.sum(~preds & ~pos))
    fn = int(np.sum(~preds & pos))
    return tp, fp, tn, fn


def _safe_ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def roc_auc(probs: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based AUC with midrank tie handling (Mann-Whitney form)."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: both classes must be present")
    # Each run of tied probabilities takes the mean of its 1-based ranks.
    _, group, counts = np.unique(
        probs, return_inverse=True, return_counts=True, equal_nan=False
    )
    midranks = np.cumsum(counts) - (counts - 1) / 2.0
    rank_sum = float(midranks[group][labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def binary_metrics(probs: np.ndarray, labels: np.ndarray) -> Metrics:
    """Confusion-based scores plus AUC; positives predicted at prob >= 0.5."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    tp, fp, tn, fn = _confusion(probs, labels)
    return Metrics(
        f1=_safe_ratio(2.0 * tp, 2.0 * tp + fp + fn),
        sensitivity=_safe_ratio(tp, tp + fn),
        specificity=_safe_ratio(tn, tn + fp),
        auc=roc_auc(probs, labels),
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
    )


def _predict_logits(
    state: ModelState, dataset: Dataset, indices: list, inputs: list = None
) -> np.ndarray:
    """Noise-free logits; ``inputs`` is ``_setup``'s, else each subject's are built here."""
    if len(indices) == 0:
        raise ValueError("cannot evaluate an empty index list")
    logits = []
    for idx in indices:
        series = dataset.subjects[idx].series
        corr, graph = inputs[idx] if inputs is not None else (pearson_correlation(series), None)
        logits.append(float(forward(series, corr, state, noise=None, graph=graph).data))
    return np.asarray(logits)


def predict_probabilities(state: ModelState, dataset: Dataset, indices: list) -> np.ndarray:
    """Deterministic disease probabilities via the noise-free path."""
    return logistic(_predict_logits(state, dataset, indices))


def evaluate(state: ModelState, dataset: Dataset, indices: list) -> Metrics:
    """Score the deterministic predictions of ``state`` on the given subjects."""
    probs = predict_probabilities(state, dataset, indices)
    labels = dataset.labels[np.asarray(indices, dtype=np.int64)]
    return binary_metrics(probs, labels)


def _model_config(dataset: Dataset, config: TrainConfig) -> ModelConfig:
    """The dataset's geometry plus every ModelConfig field TrainConfig shares."""
    geometry = {"n_rois": dataset.n_rois, "t_steps": dataset.t_steps}
    names = [f.name for f in fields(ModelConfig) if f.name not in geometry]
    return ModelConfig(**geometry, **{name: getattr(config, name) for name in names})


def _epoch_pass(
    state: ModelState,
    dataset: Dataset,
    inputs: list,
    train_indices: list,
    optimizer: Adam,
    rng: np.random.Generator,
    config: TrainConfig,
    epoch: int,
) -> float:
    """One shuffled pass of mini-batch updates; returns mean train loss."""
    order = [train_indices[i] for i in rng.permutation(len(train_indices))]
    total = 0.0
    for batch_number, start in enumerate(range(0, len(order), config.batch_size), 1):
        batch = order[start : start + config.batch_size]
        where = f"epoch {epoch}, batch {batch_number}"
        total += _batch_update(state, dataset, inputs, batch, optimizer, rng, where) * len(batch)
    return total / len(order)


def _batch_update(
    state: ModelState,
    dataset: Dataset,
    inputs: list,
    batch: list,
    optimizer: Adam,
    rng: np.random.Generator,
    where: str,
) -> float:
    """One Adam update on the batch's mean loss; returns that loss.

    The batch's tape is freed when this returns, before the next batch
    builds its own, so one tape at a time is alive.
    """
    optimizer.zero_grad()
    logits = []
    for idx in batch:
        corr, graph = inputs[idx]
        noise = sample_gumbel_noise(rng, dataset.n_rois)
        logits.append(forward(dataset.subjects[idx].series, corr, state, noise=noise, graph=graph))
    mean_loss = ad.bce_mean(logits, [dataset.subjects[idx].label for idx in batch])
    value = float(mean_loss.data)
    if not np.isfinite(value):
        raise TrainingDiverged(f"non-finite training loss at {where}")
    mean_loss.backward()
    # A finite loss can still have non-finite gradients; stop before
    # Adam writes them into the parameters.
    for p in optimizer.params:
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise TrainingDiverged(f"non-finite gradient at {where}")
    optimizer.step()
    return value


def _setup(dataset: Dataset, config: TrainConfig) -> tuple:
    """Fresh model, every subject's inputs, Adam and the noise stream.

    A subject's inputs are its correlations and its ``thresholded_graph``
    (None in a mode without that branch), both fixed by its signals, so
    they are built once here instead of in every step and validation
    pass. The Gumbel noise comes from a child of the config seed, so it
    never shares draws with the split or the parameter init.
    """
    state = init_model(_model_config(dataset, config))
    corrs = [pearson_correlation(s.series) for s in dataset.subjects]
    inputs = [(corr, thresholded_graph(corr, state.config)) for corr in corrs]
    optimizer = Adam(state.parameters(), config.learning_rate)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    return state, inputs, optimizer, rng


def train_model(dataset: Dataset, config: TrainConfig) -> tuple:
    """Full protocol: split, train, select on validation F1, score on test.

    Returns (state, test Metrics, log) where log is one dict per epoch
    with keys epoch, train_loss, val_f1, val_loss. The retained
    parameters are those of the best validation epoch, not the last.
    Raises ValueError before training when the test split lacks a class.
    """
    indices = split(dataset, config.seed)
    test_counts = np.bincount(dataset.labels[indices.test], minlength=2)
    if not test_counts.all():  # the test AUC needs both; fail before training
        cohort = np.bincount(dataset.labels, minlength=2)
        raise ValueError(
            f"the test split holds {test_counts[0]} class-0 and {test_counts[1]} class-1 "
            f"subjects (cohort: {cohort[0]} and {cohort[1]}); its AUC needs both classes"
        )
    state, inputs, optimizer, rng = _setup(dataset, config)
    val_labels = dataset.labels[np.asarray(indices.val, dtype=np.int64)]

    log = []
    best_key = None
    best_params = [np.empty_like(p.data) for p in state.parameters()]  # one snapshot per run
    stall = 0
    for epoch in range(1, config.epochs + 1):
        train_loss = _epoch_pass(
            state, dataset, inputs, indices.train, optimizer, rng, config, epoch
        )

        val_logits = _predict_logits(state, dataset, indices.val, inputs)
        tp, fp, tn, fn = _confusion(logistic(val_logits), val_labels)
        val_f1 = _safe_ratio(2.0 * tp, 2.0 * tp + fp + fn)
        val_loss = float(
            np.mean([bce_value(z, y) for z, y in zip(val_logits, val_labels)])
        )
        log.append(
            {
                "epoch": epoch,
                "train_loss": train_loss,
                "val_f1": val_f1,
                "val_loss": val_loss,
            }
        )

        key = (-val_f1, val_loss, epoch)
        if best_key is None or key < best_key:
            best_key, stall = key, 0
            for p, saved in zip(state.parameters(), best_params):
                np.copyto(saved, p.data)
        else:
            stall += 1
            if stall >= config.patience:
                break

    for p, saved in zip(state.parameters(), best_params):
        p.data = saved
    test_metrics = evaluate(state, dataset, indices.test)
    return state, test_metrics, log


def run_ablation(dataset: Dataset, config: TrainConfig) -> list:
    """Train every ablation mode with the same seed (hence same splits).

    Returns [(mode, Metrics), ...] in fixed mode order.
    """
    table = []
    for mode in MODES:
        _, metrics, _ = train_model(dataset, replace(config, mode=mode))
        table.append((mode, metrics))
    return table
