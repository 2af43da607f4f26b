"""Dual-branch graph network: two GCNs, flatten pooling, MLP classifier.

Each subject yields two graphs over the same correlation-row node
features. Both run through their own two-layer graph convolution with
symmetric degree normalization (self-loops added once here, which is
why the adjacencies arrive with zero diagonals); a two-layer classifier
joins the two branches' node embeddings, flattens them in node order
and ends in a single logit.

Ablation modes rewire the forward pass: ``no_corr`` keeps only the
sampled-graph branch, ``no_optim`` only the thresholded branch, and
``no_gconv`` skips graph convolution entirely, pooling the raw features
through both branch slots. The classifier input width follows the mode.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import struct
from dataclasses import dataclass, asdict
from operator import attrgetter
from types import SimpleNamespace

import numpy as np

from dualgraph import autodiff as ad
from dualgraph.autodiff import Tensor, logistic
from dualgraph.graphgen import build_filtered, check_temperature, edge_probabilities
from dualgraph.graphgen import gumbel_sample, harden
from dualgraph.preprocess import atomic_write

MODES = ("full", "no_corr", "no_optim", "no_gconv")

_MAGIC = b"DGBC"
_FORMAT_VERSION = 1


_WIDTHS = ("extractor_dim", "gcn_hidden_dim", "gcn_out_dim", "classifier_hidden_dim")


def _is_number(value, kind=numbers.Real) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def check_config(config, counts: tuple = ()) -> None:
    """Reject bad values in the fields ModelConfig and TrainConfig share.

    Those are the mode, a corr_threshold in (0, 1), the temperature
    (``check_temperature``), a non-negative integer seed and the four
    layer widths, which like every field named in ``counts`` must be
    positive integers. Raises ValueError naming the first bad field.
    """
    if config.mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {config.mode!r}")
    threshold = config.corr_threshold
    if not (_is_number(threshold) and 0.0 < threshold < 1.0):
        raise ValueError(f"corr_threshold must be in (0, 1), got {threshold!r}")
    check_temperature(config.temperature)
    for name in _WIDTHS + counts:
        value = getattr(config, name)
        if not (_is_number(value, numbers.Integral) and value > 0):
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if not (_is_number(config.seed, numbers.Integral) and config.seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {config.seed!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Geometry and hyperparameters that pin every parameter shape."""

    n_rois: int
    t_steps: int
    extractor_dim: int
    gcn_hidden_dim: int
    gcn_out_dim: int
    classifier_hidden_dim: int
    corr_threshold: float
    temperature: float
    mode: str
    seed: int

    def __post_init__(self):
        check_config(self, counts=("n_rois", "t_steps"))


class ParamGroup(SimpleNamespace):
    """One group of parameter tensors, named as in ``parameter_shapes``."""

    def parameters(self) -> list:
        """The group's tensors in insertion order, ``parameter_shapes``' in a model."""
        return list(vars(self).values())


@dataclass
class ModelState:
    """All learnable parameters plus the configuration that shaped them."""

    config: ModelConfig
    scorer: ParamGroup
    filtered_gcn: ParamGroup
    optimal_gcn: ParamGroup
    classifier: ParamGroup

    def parameters(self) -> list:
        """Parameter tensors in ``parameter_shapes`` order."""
        return [attrgetter(name)(self) for name, _ in parameter_shapes(self.config)]


def classifier_input_dim(config: ModelConfig) -> int:
    n, f = config.n_rois, config.gcn_out_dim
    if config.mode == "full":
        return 2 * n * f
    if config.mode in ("no_corr", "no_optim"):
        return n * f
    return 2 * n * n  # no_gconv pools the raw n x n features in both slots


def parameter_shapes(config: ModelConfig) -> list:
    """Canonical (name, shape) list: declaration, init, and file order."""
    n = config.n_rois
    t = config.t_steps
    d = config.extractor_dim
    h = config.gcn_hidden_dim
    f = config.gcn_out_dim
    hc = config.classifier_hidden_dim
    return [
        ("scorer.extract_w", (t, d)),
        ("scorer.extract_b", (d,)),
        ("scorer.pair_w1", (2 * d, d)),
        ("scorer.pair_b1", (d,)),
        ("scorer.pair_w2", (d, 1)),
        ("scorer.pair_b2", (1,)),
        ("filtered_gcn.w0", (n, h)),
        ("filtered_gcn.w1", (h, f)),
        ("optimal_gcn.w0", (n, h)),
        ("optimal_gcn.w1", (h, f)),
        ("classifier.w1", (classifier_input_dim(config), hc)),
        ("classifier.b1", (hc,)),
        ("classifier.w2", (hc, 1)),
        ("classifier.b2", (1,)),
    ]


def _assemble(config: ModelConfig, arrays: list) -> ModelState:
    groups = {}
    for (name, _), array in zip(parameter_shapes(config), arrays):
        group, field = name.split(".")
        groups.setdefault(group, {})[field] = Tensor(array, requires_grad=True)
    return ModelState(config, **{group: ParamGroup(**tensors) for group, tensors in groups.items()})


def init_model(config: ModelConfig) -> ModelState:
    """Fresh parameters: Glorot-uniform weights, zero biases, seeded PCG64."""
    rng = np.random.default_rng(config.seed)
    arrays = []
    for _, shape in parameter_shapes(config):
        if len(shape) == 2:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            arrays.append(rng.uniform(-limit, limit, size=shape))
        else:
            arrays.append(np.zeros(shape))
    return _assemble(config, arrays)


def normalize_adjacency(adjacency) -> Tensor:
    """Symmetrically degree-normalized adjacency with self-loops added.

    Adds the identity, then scales entry (i, j) by the inverse square
    roots of row sums i and j. Row sums stay >= 1 thanks to the added
    self-loops, so this never divides by zero. Accepts a constant array
    or a gradient-carrying tensor; gradients flow through both the
    entries and the degrees.
    """
    if not isinstance(adjacency, Tensor):
        adjacency = Tensor(adjacency)
    if (adjacency.data < 0).any():
        raise ValueError("adjacency entries must be non-negative")
    return ad.adjacency_norm(adjacency)


def gcn_forward(features, norm_adjacency: Tensor, stack: ParamGroup) -> Tensor:
    """Two-layer graph convolution: ReLU(A (ReLU(A X W0)) W1).

    ``stack`` is a GCN parameter group (``w0``, ``w1``; no biases).
    Each ``ad.graph_conv`` call checks its shapes (ValueError).
    """
    if not isinstance(features, Tensor):
        features = Tensor(features)
    hidden = ad.graph_conv(norm_adjacency, features, stack.w0)
    return ad.graph_conv(norm_adjacency, hidden, stack.w1)


def _check_inputs(series, corr, config: ModelConfig) -> tuple:
    """``series`` and ``corr`` as float64 arrays of the configured geometry."""
    series = np.asarray(series, dtype=np.float64)
    corr = np.asarray(corr, dtype=np.float64)
    n = config.n_rois
    if series.shape != (n, config.t_steps):
        raise ValueError(
            f"series shape {series.shape} does not match configured "
            f"({n}, {config.t_steps})"
        )
    if corr.shape != (n, n):
        raise ValueError(f"corr shape {corr.shape} does not match {n} ROIs")
    return series, corr


def thresholded_graph(corr: np.ndarray, config: ModelConfig) -> Tensor | None:
    """The thresholded branch's normalized adjacency, or None in a mode without it.

    A constant tensor: no parameter reaches it, so training builds it
    once per subject and passes it to every ``forward``.
    """
    if config.mode not in ("full", "no_optim"):
        return None
    return normalize_adjacency(Tensor(build_filtered(corr, config.corr_threshold)))


def forward(
    series: np.ndarray, corr: np.ndarray, state: ModelState, noise=None, graph=None
) -> Tensor:
    """Scalar logit for one subject.

    ``noise`` is a pair of standard-Gumbel matrices for the training
    path; ``None`` selects the deterministic evaluation path, where the
    sampled graph holds the edges with a non-negative scorer logit.
    ``graph`` is the subject's ``thresholded_graph``; without it the
    thresholded branch builds its own.
    """
    config = state.config
    series, corr = _check_inputs(series, corr, config)

    # Branch outputs (n x f, thresholded first); the head joins and flattens them.
    branches = [Tensor(corr)] * 2 if config.mode == "no_gconv" else []
    if config.mode in ("full", "no_optim"):
        if graph is None:
            graph = thresholded_graph(corr, config)
        branches.append(gcn_forward(corr, graph, state.filtered_gcn))
    if config.mode in ("full", "no_corr"):
        logits = edge_probabilities(series, state.scorer)
        if noise is None:
            optimal = Tensor(harden(logits.data))
        else:
            optimal = gumbel_sample(logits, config.temperature, noise)
        norm_o = normalize_adjacency(optimal)
        branches.append(gcn_forward(corr, norm_o, state.optimal_gcn))
    head = state.classifier
    return ad.classifier_head(branches, head.w1, head.b1, head.w2, head.b2)


def subject_graphs(series: np.ndarray, corr: np.ndarray, state: ModelState) -> tuple:
    """Deterministic graphs for one subject, as used at evaluation time.

    Returns (filtered 0/1 adjacency, edge-probability matrix, hardened
    0/1 adjacency of the sampled graph).
    """
    series, corr = _check_inputs(series, corr, state.config)
    filtered = build_filtered(corr, state.config.corr_threshold)
    logits = edge_probabilities(series, state.scorer).data
    return filtered, logistic(logits), harden(logits)


def save_checkpoint(state: ModelState, path: str) -> None:
    """Single-file checkpoint: magic, version, JSON header, raw float64 LE."""
    config = state.config
    shapes = parameter_shapes(config)
    header = {
        "format_version": _FORMAT_VERSION,
        "config": asdict(config),
        "params": [{"name": name, "shape": list(shape)} for name, shape in shapes],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path) as fh:  # a raise below leaves the earlier file as it was
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQ", _FORMAT_VERSION, len(blob)))
        fh.write(blob)
        for tensor, (name, shape) in zip(state.parameters(), shapes):
            if tensor.data.shape != shape:
                raise ValueError(f"parameter {name} has drifted to {tensor.data.shape}")
            fh.write(np.ascontiguousarray(tensor.data, dtype="<f8"))  # no bytes copy


def load_checkpoint(path: str) -> ModelState:
    """Read a checkpoint, rejecting version or dimension mismatches.

    Any malformed header or non-finite parameter value raises ValueError.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(16)
        if len(prefix) < 16 or prefix[:4] != _MAGIC:
            raise ValueError(f"{path}: not a model checkpoint (bad magic)")
        version, header_len = struct.unpack_from("<IQ", prefix, 4)
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported checkpoint version {version}, "
                f"expected {_FORMAT_VERSION}"
            )
        if 16 + header_len > size:
            raise ValueError(f"{path}: truncated checkpoint header")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
            header_version = header.get("format_version")
            if header_version == _FORMAT_VERSION:
                config = ModelConfig(**header["config"])
                listed = [(p["name"], tuple(p["shape"])) for p in header["params"]]
        except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: malformed checkpoint header: {exc}") from None
        if header_version != _FORMAT_VERSION:
            raise ValueError(f"{path}: header/container version mismatch")

        expected = parameter_shapes(config)
        if listed != expected:
            raise ValueError(f"{path}: parameter table does not match configuration")
        arrays = []
        for name, shape in expected:
            if fh.tell() + 8 * math.prod(shape) > size:  # checked before allocating
                raise ValueError(f"{path}: truncated while reading {name}")
            values = np.empty(shape, dtype="<f8")
            if fh.readinto(values) != values.nbytes:
                raise ValueError(f"{path}: truncated while reading {name}")
            if not np.isfinite(values).all():
                raise ValueError(f"{path}: parameter {name} has non-finite values")
            arrays.append(values)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after parameters")
    return _assemble(config, arrays)
