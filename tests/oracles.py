"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately dumb: explicit loops, textbook
formulas, and scalar math. None of it touches the autodiff engine or
the library's own vectorized paths, so agreement is evidence rather
than tautology.
"""

import math

import numpy as np


def finite_difference_gradient(f, arrays, index, eps=1e-5):
    """Central-difference gradient of scalar f(arrays) w.r.t. arrays[index]."""
    grad = np.zeros_like(arrays[index], dtype=np.float64)
    it = np.nditer(arrays[index], flags=["multi_index"])
    for _ in it:
        pos = it.multi_index
        plus = [a.copy() for a in arrays]
        minus = [a.copy() for a in arrays]
        plus[index][pos] += eps
        minus[index][pos] -= eps
        grad[pos] = (f(plus) - f(minus)) / (2.0 * eps)
    return grad


def max_rel_error(analytic, numeric, floor=1e-8):
    """Worst elementwise relative error; tiny pairs compare absolutely."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    err = np.where(scale > floor, diff / np.where(scale > floor, scale, 1.0), diff)
    return float(err.max()) if err.size else 0.0


def pearson_textbook(series):
    """Pairwise Pearson correlation straight from the definition."""
    n, t = series.shape
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            xi = series[i] - sum(series[i]) / t
            xj = series[j] - sum(series[j]) / t
            num = sum(xi * xj)
            den = math.sqrt(sum(xi * xi)) * math.sqrt(sum(xj * xj))
            out[i, j] = num / den if den != 0 else (1.0 if i == j else 0.0)
    return out


def threshold_double_loop(corr, cutoff):
    n = corr.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and corr[i, j] > cutoff:
                out[i, j] = 1.0
    return out


def normalize_dense_oracle(adjacency):
    """Self-loop + symmetric normalization via explicit matrix inverses."""
    n = adjacency.shape[0]
    with_loops = adjacency + np.eye(n)
    degrees = np.diag(with_loops.sum(axis=1))
    inv_root = np.linalg.inv(np.sqrt(degrees))
    return inv_root @ with_loops @ inv_root


def _stable_logistic(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def gumbel_elementwise_oracle(logits, tau, g1, g2):
    """Scalar-math evaluation of the relaxed sample, zero diagonal."""
    n = logits.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            out[i, j] = _stable_logistic((logits[i, j] + (g1[i, j] - g2[i, j])) / tau)
    return out


def edge_probabilities_double_loop(series, extract_w, extract_b, pair_w1, pair_b1, pair_w2, pair_b2):
    """Edge scorer in scalar math: embed each node, then score each ordered pair.

    Entry (i, j) runs the concatenated pair (node i's embedding first)
    through the two-layer pair MLP one pair at a time; it is the logit.
    """
    n, t = series.shape
    d = extract_w.shape[1]
    embed = [
        [max(0.0, sum(series[i, s] * extract_w[s, c] for s in range(t)) + extract_b[c]) for c in range(d)]
        for i in range(n)
    ]
    logits = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            pair = embed[i] + embed[j]
            hidden = [
                max(0.0, sum(pair[r] * pair_w1[r, c] for r in range(2 * d)) + pair_b1[c])
                for c in range(d)
            ]
            logits[i, j] = sum(hidden[c] * pair_w2[c, 0] for c in range(d)) + pair_b2[0]
    return logits


def harden_double_loop(logits):
    n, m = logits.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            if i != j and logits[i, j] >= 0.0:
                out[i, j] = 1.0
    return out


def auc_pair_counting(probs, labels):
    """Mann-Whitney AUC: fraction of positive/negative pairs ranked right."""
    pos = [p for p, y in zip(probs, labels) if y == 1]
    neg = [p for p, y in zip(probs, labels) if y == 0]
    if not pos or not neg:
        raise ValueError("need both classes")
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def stump_best_accuracy(features, labels):
    """Best depth-1 threshold classifier accuracy on the given feature."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    best = 0.0
    for cut in features:
        above = features > cut
        for positive_above in (True, False):
            preds = above if positive_above else ~above
            best = max(best, float(np.mean(preds == (labels == 1))))
    return best
