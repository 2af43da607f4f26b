"""The two adjacency structures: thresholded correlation and sampled edges.

The thresholded graph keeps correlation pairs above a cutoff and is a
fixed, undirected input. The sampled graph is learned: a per-node signal
embedding feeds a pair MLP producing one edge logit ``z`` per ordered
pair (edge probability ``sigmoid(z)``), two tape nodes in all: the
extractor's product, then ``ad.pair_logits`` for the rest. During
training a logistic-Gumbel relaxation of those logits,
``sigmoid((z + g1 - g2) / tau)``, gives a differentiable soft
adjacency; at evaluation time the graph is the noise-free limit of that
relaxation, the 0/1 matrix ``z >= 0``. Both graphs keep a zero
diagonal; self-loops are added once during normalization in the model.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from dualgraph import autodiff as ad
from dualgraph.autodiff import Tensor


def build_filtered(corr: np.ndarray, threshold: float) -> np.ndarray:
    """0/1 adjacency keeping strictly super-threshold correlations, zero diagonal."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    corr = np.asarray(corr, dtype=np.float64)
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise ValueError(f"correlation matrix must be square, got {corr.shape}")
    adjacency = (corr > threshold).astype(np.float64)
    np.fill_diagonal(adjacency, 0.0)
    return adjacency


def edge_probabilities(series: np.ndarray, scorer) -> Tensor:
    """Matrix of edge logits for every ordered ROI pair.

    ``scorer`` is the model's ``scorer`` parameter group. Each node's
    length-T signal maps to an embedding through one ReLU layer,
    ``relu(series @ extract_w + extract_b)``; ordered pair embeddings are
    concatenated and scored by a two-layer MLP (``pair_w1``, ``pair_b1``,
    ``pair_w2``, ``pair_b2``) ending in one logit. Entry (i, j) is the
    logit of the directed pair (node i's embedding first), so the matrix
    is generally asymmetric; ``sigmoid`` of it is the edge probability.
    ``ad.pair_logits`` takes the product ``series @ extract_w`` and does
    everything after it, the bias and ReLU included. Differentiable
    with respect to all scorer parameters. The function returns logits
    in spite of its name, which the benchmark's per-layer timing span
    ``graphgen.edge_probabilities`` fixes. A series whose length is not
    the scorer's input width is rejected by ``ad.matmul``.
    """
    product = ad.matmul(Tensor(series), scorer.extract_w)
    w1, b1, w2, b2 = scorer.pair_w1, scorer.pair_b1, scorer.pair_w2, scorer.pair_b2
    return ad.pair_logits(product, scorer.extract_b, w1, b1, w2, b2)


def sample_gumbel_noise(rng: np.random.Generator, n: int) -> tuple:
    """Two independent n-by-n standard Gumbel draws for one forward pass."""
    return rng.gumbel(size=(n, n)), rng.gumbel(size=(n, n))


def check_temperature(tau) -> None:
    """Reject a temperature that is not a positive finite number with a finite reciprocal."""
    is_real = isinstance(tau, numbers.Real) and not isinstance(tau, bool)
    if not (is_real and 0.0 < tau < np.inf and math.isfinite(1.0 / float(tau))):
        raise ValueError(f"temperature and its reciprocal must be positive and finite, got {tau!r}")


def gumbel_sample(logits: Tensor, tau: float, noise: tuple) -> Tensor:
    """Relaxed edge sample: sigmoid((logits + g1 - g2) / tau).

    The noise pair is injected explicitly so training can resample per
    pass while tests freeze it; zero noise at tau=1 gives sigmoid(logits)
    exactly. The diagonal is forced to zero. Gradients flow to the
    logits only; the noise enters as a constant. ``ad.gumbel_relax``
    rejects logits that are not square, ``check_temperature`` a bad ``tau``.
    """
    check_temperature(tau)
    g1, g2 = noise
    if np.shape(g1) != logits.shape or np.shape(g2) != logits.shape:
        shapes = f"{np.shape(g1)} and {np.shape(g2)}"
        raise ValueError(f"noise shapes {shapes} do not match logits {logits.shape}")
    delta = np.asarray(g1, dtype=np.float64) - np.asarray(g2, dtype=np.float64)
    return ad.gumbel_relax(logits, delta, tau)


def harden(logits: np.ndarray) -> np.ndarray:
    """0/1 adjacency of the edges with logit >= 0, zero diagonal.

    This is the zero-noise relaxation thresholded at one half, at any
    temperature, since sigmoid(z / tau) >= 1/2 exactly when z >= 0 in
    exact arithmetic.
    """
    hard = (np.asarray(logits, dtype=np.float64) >= 0.0).astype(np.float64)
    np.fill_diagonal(hard, 0.0)
    return hard
