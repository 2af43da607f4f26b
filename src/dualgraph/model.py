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
from dualgraph.graphgen import build_filtered, check_temperature
from dualgraph.graphgen import edge_probabilities, gumbel_sample, harden
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
    or a gradient-carrying tensor, one subject's (n, n) or a mini-batch's
    (B, n, n) stack; gradients flow through both the entries and the
    degrees.
    """
    if not isinstance(adjacency, Tensor):
        adjacency = Tensor(adjacency)
    if (adjacency.data < 0).any():
        raise ValueError("adjacency entries must be non-negative")
    return ad.adjacency_norm(adjacency)


def gcn_forward(features, norm_adjacency: Tensor, stack: ParamGroup) -> Tensor:
    """Two-layer graph convolution: ReLU(A (ReLU(A X W0)) W1).

    ``stack`` is a GCN parameter group (``w0``, ``w1``; no biases).
    ``features`` and ``norm_adjacency`` are one subject's, (n, k) and
    (n, n), or a mini-batch's stacks of them, (B, n, k) and (B, n, n).
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

    ``corr`` is one subject's (n, n) correlations or a chunk's (B, n, n)
    stack. ``build_filtered`` runs once per subject, and one
    ``normalize_adjacency`` call takes the whole stack, each graph with
    the bits of its 2-D call. A constant tensor: no parameter reaches it,
    so ``forward``'s caller builds it (``train._inputs``) and training
    does so once.
    """
    if config.mode not in ("full", "no_optim"):
        return None
    threshold = config.corr_threshold
    if np.ndim(corr) == 2:
        filtered = build_filtered(corr, threshold)
    else:
        filtered = np.stack([build_filtered(c, threshold) for c in corr])
    return normalize_adjacency(Tensor(filtered))


def forward(
    series: np.ndarray, corr: np.ndarray, state: ModelState, noise=None, graph=None
) -> tuple:
    """One subject's per-subject stage, ``(corr, graph, edges)``, which ``batch_branches`` takes.

    ``graph`` is the subject's ``thresholded_graph``, required in a mode
    with that branch. The stage checks the inputs and runs the edge
    scorer; ``edges``, like ``graph``, is None in a mode without its
    branch. With the subject's pair of standard-Gumbel (n, n) draws,
    ``edges`` are the scorer logits, which ``batch_branches`` relaxes with
    the batch's draw; with ``noise=None``, the scoring path, they are
    the constant hardened 0/1 graph (``harden``). Each subject runs its
    own call because the benchmark (``perfbench``) counts training
    subjects by calls that carry noise and times each
    ``forward(noise=None)`` as one scored subject.
    """
    config = state.config
    series, corr = _check_inputs(series, corr, config)
    if config.mode in ("full", "no_optim") and graph is None:
        raise ValueError(f"mode {config.mode!r} needs the subject's thresholded graph")
    edges = None
    if config.mode in ("full", "no_corr"):
        edges = edge_probabilities(series, state.scorer)
        if noise is None:
            edges = Tensor(harden(edges.data))
    return corr, graph, edges


def batch_branches(inputs: list, state: ModelState, noise: np.ndarray | None = None) -> list:
    """The branch outputs the head joins, thresholded first, from B subjects' ``forward`` stages.

    Each output is a (B, n, ·) stack; a mode without a branch leaves its
    output out, and ``no_gconv`` puts the correlations in both slots. The
    subjects' sampled graphs are stacked into one (B, n, n) tensor; their
    normalization and each GCN layer run once on the (B, n, ·) stacks.
    Each stacked op runs the per-graph products, so a subject's graphs
    and branch outputs have the bits of its own 2-D calls.

    With ``noise``, a training mini-batch's (B, 2, n, n) standard-Gumbel
    draw with subject b's pair in ``noise[b]``, the stack is of scorer
    logits, relaxed in one call; every op is a tape node, and each
    weight's gradient is the one product of its stacked factors. With
    ``noise=None``, the scoring path, the stack is of hardened graphs.
    """
    corrs, graphs, edges = zip(*inputs)
    corr = np.stack(corrs)
    if state.config.mode == "no_gconv":
        return [Tensor(corr)] * 2
    sampled = None
    if edges[0] is not None:
        sampled = ad.stack(edges)
        if noise is not None:
            pairs = (noise[:, 0], noise[:, 1])
            sampled = gumbel_sample(sampled, state.config.temperature, pairs)
    branches = []
    if graphs[0] is not None:
        graph = Tensor(np.stack([g.data for g in graphs]))
        branches.append(gcn_forward(corr, graph, state.filtered_gcn))
    if sampled is not None:
        branches.append(gcn_forward(corr, normalize_adjacency(sampled), state.optimal_gcn))
    return branches


def batch_logits(inputs: list, state: ModelState, noise: np.ndarray | None = None) -> Tensor:
    """The (B,) logits of B subjects: one ``classifier_head`` call on their ``batch_branches``.

    The head runs its rows in zero-padded blocks of ``ad.HEAD_ROWS``, so
    each logit has the same bits whatever subjects share its call: a
    scored subject's (``noise=None``) equal those ``train._predict_logits``
    gives it, and a full training mini-batch of 16 runs one unpadded block.
    Without noise the logits are a constant, as scoring has no gradient.
    """
    out = ad.classifier_head(batch_branches(inputs, state, noise), *state.classifier.parameters())
    return out if noise is not None else Tensor(out.data)


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
