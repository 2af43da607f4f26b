"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately dumb: explicit loops, textbook
formulas, and scalar math. None of it touches the autodiff engine or
the library's own vectorized paths, so agreement is evidence rather
than tautology. The exceptions are ``pair_logits_broadcast``, the edge
scorer's forward as one array instead of blocks;
``pair_logits_vjp_broadcast``, its backward from one broadcast mask;
``load_dataset_rows``, the loader with every subject file parsed one row
at a time; ``fit``, a training loop built from ``train``'s own set-up
and epoch pass; ``training_logit`` and ``scoring_logit``, one subject's
training or scoring logit from the model's own batched path; and the
primitive ops and composite references at the end. The primitives (``add``, ``relu``,
``concat``, ``mul``, ``sigmoid``, ``sum_all`` and the rest) are taped ops
built on ``ad._make`` that the model no longer runs; tests use them as
probes, such as ``sum_all`` to reduce an op's output to a scalar loss.
The composites chain them on purpose: they are the op-by-op forms that
the fused layer ops and ``ad.bce_mean`` must match bit for bit.
"""

import functools
import math
import os

import numpy as np

from dualgraph import autodiff as ad
from dualgraph import train
from dualgraph.autodiff import Tensor, _make, bce_value, logistic
from dualgraph.model import batch_logits, forward, parameter_shapes, thresholded_graph
from dualgraph.preprocess import BoldMatrix, Dataset, _check_subject_id


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


def sample_gumbel_noise(rng, n):
    """Two independent n-by-n standard Gumbel draws, one subject's noise pair.

    Training draws a mini-batch's noise as one (B, 2, n, n) array; B calls
    of this in turn give the same numbers.
    """
    return rng.gumbel(size=(n, n)), rng.gumbel(size=(n, n))


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
    ``pair_logits`` matches the logits bit for bit; its VJP sums in
    another order, so the gradients match to rounding only.
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


def pair_logits_broadcast(product, bias, w1, b1, w2, b2):
    """``ad.pair_logits``' logits from one (n*n, h) array: broadcast sum, ReLU, one GEMV.

    The unblocked form: the same numpy expressions on operands of the same
    layout, so the op, which works a block of rows at a time, must give
    the same bits.
    """
    n, d = product.shape
    embed = np.where(product + bias > 0, product + bias, 0.0)
    left, right = embed @ w1[:d] + b1, embed @ w1[d:]
    pre = (left[:, None] + right[None]).reshape(n * n, b1.size)  # row i*n + j: pair (i, j)
    return (np.where(pre > 0, pre, 0.0) @ w2 + b2).reshape(n, n)


def pair_logits_vjp_broadcast(product, bias, w1, b1, w2, b2, g):
    """``ad.pair_logits``' six gradients with the masked sums from one (n, n, h) broadcast.

    The form the op's VJP took before it built the pair ReLU mask in the
    forward's pair layout: ``L > -R`` as a broadcast bool mask, the float
    product ``q = g * mask``, and ``q``'s row and column sums as products
    with a row of ones. The rest is the op's own arithmetic, so at
    widths h that are multiples of 4 the op must return the same bits,
    non-finite and signed-zero entries too, but for a NaN's sign and
    payload.
    """
    n, d = product.shape
    h = b1.size
    embed = np.where(product + bias > 0, product + bias, 0.0)
    left, right = embed @ w1[:d] + b1, embed @ w1[d:]
    q = g[:, :, None] * (left[:, None] > -right[None])
    ones = np.ones((1, n))
    s, t = (ones @ q)[:, 0], (ones @ q.reshape(n, n * h)).reshape(n, h)
    g_left, g_right = s * w2[:, 0], t * w2[:, 0]
    gw2 = ((left * s).sum(axis=0) + (right * t).sum(axis=0)).reshape(h, 1)
    gp = (g_left @ w1[:d].T + g_right @ w1[d:].T) * (embed > 0)
    gw1 = np.concatenate((embed.T @ g_left, embed.T @ g_right))
    gb2 = g.reshape(n * n, 1).sum(axis=0)
    return [gp, gp.sum(axis=0), gw1, g_left.sum(axis=0), gw2, gb2]


def pair_logits_chained(product, bias, w1, b1, w2, b2, g):
    """``ad.pair_logits`` as the chain it replaced: the taped ``add`` and ``relu``, then the MLP.

    The embedding ``relu(add(P, b0))`` goes through ``pair_logits_unfused``;
    its gradient goes back through the two taped ops. Returns the logits
    and the gradients of ``sum(g * logits)`` with respect to the six inputs.
    """
    p, b0 = Tensor(product, requires_grad=True), Tensor(bias, requires_grad=True)
    embed = relu(add(p, b0))
    logits, grads = pair_logits_unfused(embed.data, w1, b1, w2, b2, g)
    sum_all(mul(embed, Tensor(grads[0]))).backward()
    return logits, [p.grad, b0.grad] + grads[1:]


def _read_lines_text_mode(path, kind):
    if not os.path.isfile(path):
        raise ValueError(f"missing {kind} file: {path}")
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return [line.removesuffix("\r") for line in text.split("\n")]


def load_dataset_rows(directory):
    """``load_dataset`` with every subject file parsed one row at a time.

    The loader as it was before subject files could take numpy's C reader:
    each file read in text mode, split at LF, one trailing CR dropped per
    line, empty lines skipped, each other line one ``np.array`` of its
    comma-separated fields. Its arrays and its error messages are the
    reference for both of ``load_dataset``'s parse paths.
    """
    labels_path = os.path.join(directory, "labels.csv")
    lines = _read_lines_text_mode(labels_path, "labels")
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
                f"{labels_path}: row {lineno}: label must be 0 or 1, got {label_text!r}"
            )
        entries.append((subject_id, int(label_text)))
    if not entries:
        raise ValueError(f"{labels_path}: no subjects listed")
    if len({sid for sid, _ in entries}) != len(entries):
        raise ValueError(f"{labels_path}: duplicate subject ids")

    subjects = []
    for subject_id, label in sorted(entries):
        path = os.path.join(directory, f"{subject_id}.csv")
        rows = []
        for lineno, line in enumerate(_read_lines_text_mode(path, "subject"), start=1):
            if not line:
                continue
            try:
                row = np.array(line.split(","), dtype=np.float64)
            except ValueError as exc:
                raise ValueError(f"{path}: row {lineno}: {exc}") from None
            if rows and len(row) != len(rows[0]):
                raise ValueError(
                    f"{path}: row {lineno}: has {len(row)} columns, expected {len(rows[0])}"
                )
            rows.append(row)
        if not rows:
            raise ValueError(f"{path}: empty subject file")
        subjects.append(BoldMatrix(subject_id, np.array(rows), label))
    return Dataset(name=os.path.basename(os.path.abspath(directory)), subjects=subjects)


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
    None for no gradient (treated as zeros; for a parameter that has had
    no gradient yet, that leaves it as ``Adam.step``'s skip does).
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


def parameter_count(config):
    """Closed-form parameter total for the configuration."""
    return sum(math.prod(shape) for _, shape in parameter_shapes(config))


def fit(dataset, indices, config):
    """Train on exactly ``indices`` with no validation or early stopping.

    ``train_model``'s set-up and epoch passes without its split, its
    validation or its model selection. Returns (state, per-epoch mean
    train losses); the tests use it for capacity checks on tiny cohorts.
    """
    if not indices:
        raise ValueError("cannot train on an empty index list")
    state, inputs, optimizer, rng = train._setup(dataset, config)
    losses = [
        train._epoch_pass(state, dataset, inputs, indices, optimizer, rng, config, epoch)
        for epoch in range(1, config.epochs + 1)
    ]
    return state, losses


def training_logit(series, corr, state, noise):
    """One subject's 0-d training logit, its training step run as a one-subject mini-batch.

    ``noise`` is the subject's pair of (n, n) standard-Gumbel draws. The
    thresholded graph is built as training builds it; the logit's
    gradient reaches every parameter the step's would.
    """
    graph = thresholded_graph(corr, state.config)
    inputs = forward(series, corr, state, noise=tuple(noise), graph=graph)
    return select(batch_logits([inputs], state, np.stack(noise)[None]), 0)


def scoring_logit(series, corr, state):
    """One subject's 0-d scoring logit, its ``forward(noise=None)`` stage scored alone.

    The thresholded graph is built as scoring builds it; the logit is a
    constant, as scoring's are.
    """
    stage = forward(series, corr, state, graph=thresholded_graph(corr, state.config))
    return Tensor(batch_logits([stage], state).data[0])


# Primitive taped ops. They run on the engine's tape machinery but are
# not part of it: the model's layers are single ops of their own.


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also supports adding a length-n bias row to (m, n)."""
    if a.data.shape == b.data.shape:
        return _make(a.data + b.data, (a, b), lambda g: (g, g))
    if a.data.ndim == 2 and b.data.shape == (a.data.shape[1],):
        return _make(a.data + b.data, (a, b), lambda g: (g, g.sum(axis=0)))
    raise ValueError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}")


def relu(a: Tensor) -> Tensor:
    """``where(x > 0, x, 0)`` bit for bit, without a data-dependent branch.

    ``fmax`` maps NaN to 0 as the comparison does but may return -0.0,
    which adding +0.0 turns into +0.0 and leaves every other value as is.
    """
    out = np.fmax(a.data, 0.0)
    out += 0.0
    mask = a.data > 0 if a.requires_grad else None
    return _make(out, (a,), lambda g: (g * mask,))


def concat(a: Tensor, b: Tensor, axis: int = 0) -> Tensor:
    """Join along ``axis``, the first by default: (m, ...) and (k, ...) -> (m + k, ...)."""
    if a.data.ndim == 0 or a.data.ndim != b.data.ndim:
        raise ValueError(f"concat: incompatible shapes {a.data.shape} and {b.data.shape}")
    try:
        joined = np.concatenate([a.data, b.data], axis=axis)
    except ValueError:
        raise ValueError(f"concat: incompatible shapes {a.data.shape} and {b.data.shape}") from None
    lead = (slice(None),) * (axis % a.data.ndim)
    split = a.data.shape[axis]
    first, second = lead + (slice(None, split),), lead + (slice(split, None),)
    return _make(joined, (a, b), lambda g: (g[first], g[second]))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul: incompatible shapes {a.data.shape} and {b.data.shape}")
    ad, bd = a.data, b.data

    def vjp(g: np.ndarray) -> tuple:
        return (
            g * bd if a.requires_grad else None,
            g * ad if b.requires_grad else None,
        )

    return _make(ad * bd, (a, b), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    return _make(a.data * s, (a,), lambda g: (g * s,))


def transpose(a: Tensor) -> Tensor:
    return _make(a.data.T.copy(), (a,), lambda g: (g.T,))


def sigmoid(a: Tensor) -> Tensor:
    s = logistic(a.data)
    return _make(s, (a,), lambda g: (g * s * (1.0 - s),))


def power(a: Tensor, exponent: float) -> Tensor:
    """Elementwise power for strictly positive inputs (fractional exponents)."""
    ad = a.data
    out = ad**exponent
    return _make(out, (a,), lambda g: (g * exponent * ad ** (exponent - 1.0),))


def sum_all(a: Tensor) -> Tensor:
    shape = a.data.shape
    return _make(
        np.asarray(a.data.sum()), (a,), lambda g: (np.full(shape, g, dtype=np.float64),)
    )


def row_sum(a: Tensor) -> Tensor:
    """Sum each row of an (m, n) matrix into an (m, 1) column."""
    if a.data.ndim != 2:
        raise ValueError(f"row_sum expects a matrix, got shape {a.data.shape}")
    n = a.data.shape[1]
    return _make(
        a.data.sum(axis=1, keepdims=True),
        (a,),
        lambda g: (np.repeat(g, n, axis=1),),
    )


def reshape(a: Tensor, shape: tuple) -> Tensor:
    old = a.data.shape
    return _make(a.data.reshape(shape).copy(), (a,), lambda g: (g.reshape(old),))


def bce_with_logits(logit: Tensor, label) -> Tensor:
    """``bce_value`` on a scalar logit tensor; the gradient is s(z) - y."""
    if logit.data.size != 1:
        raise ValueError(f"bce_with_logits expects a scalar logit, got {logit.shape}")
    y = float(label)
    if y not in (0.0, 1.0):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    z = float(logit.data.reshape(()))
    in_shape = logit.data.shape
    residual = logistic(z) - y

    def vjp(g: np.ndarray) -> tuple:
        return (np.full(in_shape, g * residual, dtype=np.float64),)

    return _make(np.asarray(bce_value(z, y)), (logit,), vjp)


def select(a: Tensor, index: int) -> Tensor:
    """Entry ``index`` of ``a``'s first axis, one graph of a stack; its gradient is zero elsewhere."""
    shape = a.data.shape

    def vjp(g: np.ndarray) -> tuple:
        grad = np.zeros(shape)
        grad[index] = g
        return (grad,)

    return _make(a.data[index].copy(), (a,), vjp)


def per_graph(composite):
    """``composite`` on a stack of B graphs as B 2-D calls, their outputs stacked.

    The first argument decides: with three axes, every argument of three
    axes, tensor or array, is split along the first and the rest are
    shared; otherwise the call is the composite's own.
    """

    @functools.wraps(composite)
    def batched(*args):
        if args[0].data.ndim != 3:
            return composite(*args)

        def graph(arg, b):
            if isinstance(arg, Tensor) and arg.data.ndim == 3:
                return select(arg, b)
            return arg[b] if isinstance(arg, np.ndarray) and arg.ndim == 3 else arg

        return ad.stack([composite(*(graph(arg, b) for arg in args)) for b in range(len(args[0].data))])

    return batched


def adjacency_norm_composite(adjacency):
    """``ad.adjacency_norm`` as primitive ops: add I, row sums, power, outer product."""
    n = adjacency.shape[0]
    with_loops = add(adjacency, Tensor(np.eye(n)))
    inv_sqrt_deg = power(row_sum(with_loops), -0.5)  # (n, 1)
    scaling = ad.matmul(inv_sqrt_deg, transpose(inv_sqrt_deg))
    return mul(with_loops, scaling)


def graph_conv_composite(adjacency, features, weight):
    """``ad.graph_conv`` as primitive ops: two products, then ReLU."""
    return relu(ad.matmul(ad.matmul(adjacency, features), weight))


def gumbel_relax_composite(logits, delta, tau):
    """``ad.gumbel_relax`` as primitive ops: add, scale, sigmoid, off-diagonal mask."""
    relaxed = sigmoid(scale(add(logits, Tensor(delta)), 1.0 / tau))
    return mul(relaxed, Tensor(1.0 - np.eye(logits.shape[0])))


def classifier_head_composite(parts, w1, b1, w2, b2):
    """``ad.classifier_head`` as primitive ops: join on the node axis, copy out the rows, affine, ReLU, affine.

    The last two axes make a row; the leading axes shape the output.
    """
    x = functools.reduce(lambda a, b: concat(a, b, axis=-2), parts)
    d = w1.shape[0]
    flat = reshape(x, (x.size // d, d))
    hidden = relu(add(ad.matmul(flat, w1), b1))
    logit = add(ad.matmul(hidden, w2), b2)
    return reshape(logit, x.shape[:-2])


def entry(a: Tensor, index: int) -> Tensor:
    """Entry ``index`` of ``a`` in row-major order, 0-d; its gradient is zero elsewhere."""
    shape = a.data.shape

    def vjp(g: np.ndarray) -> tuple:
        grad = np.zeros(shape)
        grad.reshape(-1)[index] = g
        return (grad,)

    return _make(a.data.reshape(-1)[index], (a,), vjp)


def bce_mean_loop(logits, labels):
    """``ad.bce_mean`` as it was, one scalar loss and one ``logistic`` call per logit.

    The loss is the stable form in Python scalar arithmetic,
    ``max(z, 0) - z*y + log1p(exp(-|z|))``, added in batch order as it
    goes, and each label is checked as it comes; the op must give the
    same bits and errors.
    """
    zs, count = logits.data, len(labels)
    if not count or zs.shape != (count,) and not (count == 1 and zs.size == 1):
        raise ValueError(
            f"bce_mean needs one label per logit: a ({count},) vector, or a scalar for one "
            f"label; got {count} labels for logits of shape {zs.shape}"
        )
    total, residuals = 0.0, np.empty(count)
    for i, (z, label) in enumerate(zip(zs.reshape(-1).tolist(), labels)):
        y = float(label)
        if y not in (0.0, 1.0):
            raise ValueError(f"label must be 0 or 1, got {label!r}")
        total += max(z, 0.0) - z * y + float(np.log1p(np.exp(-abs(z))))
        residuals[i] = logistic(z) - y
    inv_b = 1.0 / count
    vjp = lambda g: ((g * inv_b * residuals).reshape(zs.shape),)  # noqa: E731
    return _make(np.asarray(total * inv_b), (logits,), vjp)


def bce_mean_composite(logits, labels):
    """``ad.bce_mean`` as primitive ops: one loss per logit entry, summed in order, scaled by 1/B."""
    total = None
    for index, label in enumerate(labels):
        loss = bce_with_logits(entry(logits, index), label)
        total = loss if total is None else add(total, loss)
    return scale(total, 1.0 / len(labels))


# The graph layers' composites are 2-D; ``per_graph`` runs a mini-batch's
# (B, n, ·) stacks through them one graph at a time.
LAYER_OP_COMPOSITES = {
    "adjacency_norm": per_graph(adjacency_norm_composite),
    "graph_conv": per_graph(graph_conv_composite),
    "gumbel_relax": per_graph(gumbel_relax_composite),
    "classifier_head": classifier_head_composite,
    "bce_mean": bce_mean_composite,
}
