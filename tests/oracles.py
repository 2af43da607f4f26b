"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately dumb: explicit loops, textbook
formulas, and scalar math. None of it touches the autodiff engine or
the library's own vectorized paths, so agreement is evidence rather
than tautology. The one exception is the composite layer references at
the end, which chain the engine's primitive ops on purpose: they are the
op-by-op forms that the fused layer ops must match bit for bit.
"""

import math

import numpy as np

from dualgraph import autodiff as ad
from dualgraph.autodiff import Tensor


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


def logistic_masked(x):
    """The two-branch logistic: 1/(1+exp(-x)) where x >= 0, exp(x)/(1+exp(x)) elsewhere.

    Boolean masks hand each branch only the inputs it cannot overflow on.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    pos = flat >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-flat[pos]))
    ex = np.exp(flat[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out.reshape(x.shape)


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


def pair_logits_unfused(embed, w1, b1, w2, b2, g):
    """The edge scorer's pair MLP as separate numpy steps, forward and backward.

    The steps and their arithmetic are those of the composite the fused
    ``pair_logits`` op replaced: two products with copied halves of
    ``w1``, every ordered pair's sum of rows, ReLU, the output product and
    its bias, then the reverse of each. ``pair_w1``'s gradient is the sum
    of two zero-padded halves. Returns the (n, n) logits and the
    gradients of ``sum(g * logits)`` with respect to the five inputs.
    """
    n, d = embed.shape
    top, bottom = w1[:d].copy(), w1[d:].copy()
    left = embed @ top + b1
    right = embed @ bottom
    pre = np.repeat(left, n, axis=0) + np.tile(right, (n, 1))  # row i*n + j
    hidden = np.where(pre > 0, pre, 0.0)
    logits = (hidden @ w2 + b2).reshape(n, n)

    g_out = g.reshape(n * n, 1)
    g_pre = (g_out @ w2.T) * (pre > 0)
    g3 = g_pre.reshape(n, n, -1)
    g_left, g_right = g3.sum(axis=1), g3.sum(axis=0)
    w1_top, w1_bottom = np.zeros_like(w1), np.zeros_like(w1)
    w1_top[:d] = embed.T @ g_left
    w1_bottom[d:] = embed.T @ g_right
    grads = [
        g_left @ top.T + g_right @ bottom.T,
        w1_top + w1_bottom,
        g_left.sum(axis=0),
        hidden.T @ g_out,
        g_out.sum(axis=0),
    ]
    return logits, grads


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


def adam_out_of_place(params, grads_by_step, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam, every step building new arrays; returns the final values.

    ``grads_by_step[t][i]`` is parameter i's gradient at step t + 1, or
    None for no gradient (treated as zeros).
    """
    params = [np.array(p, dtype=np.float64) for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_by_step, start=1):
        for i, g in enumerate(grads):
            g = np.zeros_like(params[i]) if g is None else g
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
            m_hat = m[i] / (1.0 - beta1**t)
            v_hat = v[i] / (1.0 - beta2**t)
            params[i] = params[i] - learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return params


def adjacency_norm_composite(adjacency):
    """``ad.adjacency_norm`` as primitive ops: add I, row sums, power, outer product."""
    n = adjacency.shape[0]
    with_loops = ad.add(adjacency, Tensor(np.eye(n)))
    inv_sqrt_deg = ad.power(ad.row_sum(with_loops), -0.5)  # (n, 1)
    scaling = ad.matmul(inv_sqrt_deg, ad.transpose(inv_sqrt_deg))
    return ad.mul(with_loops, scaling)


def graph_conv_composite(adjacency, features, weight):
    """``ad.graph_conv`` as primitive ops: two products, then ReLU."""
    return ad.relu(ad.matmul(ad.matmul(adjacency, features), weight))


def gumbel_relax_composite(logits, delta, tau):
    """``ad.gumbel_relax`` as primitive ops: add, scale, sigmoid, off-diagonal mask."""
    relaxed = ad.sigmoid(ad.scale(ad.add(logits, Tensor(delta)), 1.0 / tau))
    return ad.mul(relaxed, Tensor(1.0 - np.eye(logits.shape[0])))


def classifier_head_composite(x, w1, b1, w2, b2):
    """``ad.classifier_head`` as primitive ops: copy out the rows, affine, ReLU, affine."""
    d = w1.shape[0]
    axes = next(k for k in range(1, x.data.ndim + 1) if math.prod(x.shape[-k:]) == d)
    rows = ad.reshape(x, (x.size // d, d))
    hidden = ad.relu(ad.add(ad.matmul(rows, w1), b1))
    logit = ad.add(ad.matmul(hidden, w2), b2)
    return ad.reshape(logit, x.shape[:-axes])


LAYER_OP_COMPOSITES = {
    "adjacency_norm": adjacency_norm_composite,
    "graph_conv": graph_conv_composite,
    "gumbel_relax": gumbel_relax_composite,
    "classifier_head": classifier_head_composite,
}
