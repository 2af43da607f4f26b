"""Minimal reverse-mode autodiff over dense float64 arrays.

Covers exactly the operations the dual-graph classifier needs: matrix
products, elementwise add/mul/scale, ReLU/sigmoid/power, transpose,
reshape, concatenation, sum reductions and a numerically stable binary
cross-entropy on a single logit, plus one op per model layer, so that a
layer costs one tape node:

- ``pair_logits``, the edge scorer's pair MLP, keeps only its inputs and
  recomputes its (n*n, h) hidden layer in backward;
- ``adjacency_norm``, ``D^-1/2 (A + I) D^-1/2``, keeps ``A + I``, the
  scaling and the degrees;
- ``graph_conv``, ``relu((A @ X) @ W)``, keeps ``A @ X`` and reads the
  ReLU mask off its output, so no pre-activation stays alive;
- ``gumbel_relax``, ``sigmoid((z + delta) / tau)`` with a zero diagonal,
  keeps nothing but its output;
- ``classifier_head``, affine, ReLU, affine to one logit per row, keeps
  its input rows as a view of its input (no second copy) and the hidden
  layer.

Each layer op runs the numpy expressions of the primitive-op chain it
replaces, in the same order and on operands of the same layout, so its
outputs and gradients match that chain in every bit. A VJP that needs a
weight reads the live parameter array, which is sound because the
optimizer steps only after ``backward`` returns.

Gradients accumulate into ``Tensor.grad``; each ``backward()`` call adds
one full pass worth of gradient, so calling it twice without zeroing
doubles every gradient. No operation mutates its inputs.

Backward does no work a gradient does not need. A product skips the side
whose operand does not require grad. Every weight gradient ``x.T @ g``,
in ``matmul`` and in the layer ops alike, goes through one rule
(``_weight_grad``): when the weight is a leaf and the factors ``(x, g)``
are smaller than the gradient, ``rows * (in + out) < in * out``, the VJP
returns the factors; ``backward`` stacks every such contribution to the
weight over the whole tape (a mini-batch of subjects, say) and forms
the gradient with one product. That serves a weight fed few rows at a
time, like the classifier head's first layer and, at the benchmark
widths, each GCN's second layer. Any other weight, like a GCN's first
layer, gets ``x.T @ g`` per use instead, since stacking its factors
would copy more than the gradient holds.

ReLU is ``fmax(x, 0) + 0.0``, equal to ``where(x > 0, x, 0)`` in every
bit but free of data-dependent branches. The logistic is
``where(x >= 0, 1/(1+e), e/(1+e))`` with ``e = exp(min(x, -x))``, not
``exp(-|x|)``, since ``-|NaN|`` flips a NaN's sign: neither branch
overflows, any shape (0-d included) goes in as is, and the result
matches the masked two-branch form in every bit, NaNs included.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional, Sequence

import numpy as np

Vjp = Callable[[np.ndarray], tuple]


class _Factors:
    """A weight gradient ``a.T @ g`` left unformed as its two factors."""

    __slots__ = ("a", "g")

    def __init__(self, a: np.ndarray, g: np.ndarray):
        self.a = a
        self.g = g


class Tensor:
    """Dense float64 array with an optional place on the backward tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._vjp: Optional[Vjp] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        """Accumulate dself/dparam into ``grad`` for every reachable tensor.

        Requires a scalar (shape ``()``) tensor on the tape. Gradients from
        repeated calls add up; zero them between steps.
        """
        if self.data.shape != ():
            raise ValueError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        if not self.requires_grad:
            raise ValueError("backward on a tensor that does not require grad")

        order = _topo_order(self)
        flows = {id(self): np.ones((), dtype=np.float64)}
        factors: dict = {}  # id(leaf) -> list of _Factors
        for node in reversed(order):
            flow = flows.pop(id(node), None)
            pending = factors.pop(id(node), None)
            if pending is not None:
                product = _stacked_product(pending)
                flow = product if flow is None else flow + product
            if flow is None:
                continue
            node.grad = flow if node.grad is None else node.grad + flow
            if node._vjp is None:
                continue
            for parent, pgrad in zip(node._parents, node._vjp(flow)):
                if pgrad is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if isinstance(pgrad, _Factors):
                    factors.setdefault(key, []).append(pgrad)
                elif key in flows:
                    flows[key] = flows[key] + pgrad
                else:
                    flows[key] = pgrad


def _topo_order(root: Tensor) -> list:
    """Iterative DFS topological order of the requires_grad subgraph."""
    order: list = []
    visited: set = set()
    stack: list = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    return order


def _stacked_product(parts: list) -> np.ndarray:
    """Sum of ``a_i.T @ g_i`` as one product of the stacked factors."""
    if len(parts) == 1:
        return parts[0].a.T @ parts[0].g
    a = np.concatenate([p.a for p in parts])
    g = np.concatenate([p.g for p in parts])
    return a.T @ g


_FLOAT64 = np.dtype(np.float64)


def _make(data: np.ndarray, parents: Sequence[Tensor], vjp: Vjp) -> Tensor:
    out = Tensor.__new__(Tensor)
    if type(data) is np.ndarray and data.dtype is _FLOAT64:
        out.data = data
    else:  # numpy scalars, 0-d results and other dtypes, as Tensor() takes them
        out.data = np.asarray(data, dtype=np.float64)
    out.grad = None
    for parent in parents:
        if parent.requires_grad:
            out.requires_grad, out._parents, out._vjp = True, tuple(parents), vjp
            return out
    out.requires_grad, out._parents, out._vjp = False, (), None
    return out


def _weight_grad(x: np.ndarray, g: np.ndarray, weight: Tensor):
    """The gradient ``x.T @ g`` of ``weight`` in ``x @ weight``.

    Left as factors for ``backward`` to stack when the weight is a leaf
    and the factors are smaller than the gradient they form,
    ``rows * (in + out) < in * out``.
    """
    (rows, k), n = x.shape, g.shape[1]
    if not weight._parents and rows * (k + n) < k * n:
        return _Factors(x, g)
    return x.T @ g


def _relu_in_place(x: np.ndarray) -> np.ndarray:
    """``relu``'s bits, written over ``x``."""
    return np.add(np.fmax(x, 0.0, out=x), 0.0, out=x)


@functools.lru_cache(maxsize=8)
def _eye(n: int) -> np.ndarray:
    out = np.eye(n)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=8)
def _off_diagonal(n: int) -> np.ndarray:
    out = 1.0 - np.eye(n)
    out.flags.writeable = False
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also supports adding a length-n bias row to (m, n)."""
    if a.data.shape == b.data.shape:
        return _make(a.data + b.data, (a, b), lambda g: (g, g))
    if a.data.ndim == 2 and b.data.shape == (a.data.shape[1],):
        return _make(a.data + b.data, (a, b), lambda g: (g, g.sum(axis=0)))
    raise ValueError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}")


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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}"
        )
    ad, bd = a.data, b.data

    def vjp(g: np.ndarray) -> tuple:
        return (
            g @ bd.T if a.requires_grad else None,
            _weight_grad(ad, g, b) if b.requires_grad else None,
        )

    return _make(ad @ bd, (a, b), vjp)


def transpose(a: Tensor) -> Tensor:
    return _make(a.data.T.copy(), (a,), lambda g: (g.T,))


def relu(a: Tensor) -> Tensor:
    """``where(x > 0, x, 0)`` bit for bit, without a data-dependent branch.

    ``fmax`` maps NaN to 0 as the comparison does but may return -0.0,
    which adding +0.0 turns into +0.0 and leaves every other value as is.
    """
    out = np.fmax(a.data, 0.0)
    out += 0.0
    mask = a.data > 0 if a.requires_grad else None
    return _make(out, (a,), lambda g: (g * mask,))


def logistic(x: np.ndarray) -> np.ndarray:
    """Elementwise 1/(1+exp(-x)), stable for large |x|, any shape."""
    e = np.exp(np.minimum(x, -x))  # exp(-|x|); minimum keeps a NaN's sign
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Join along the first axis: (m, ...) and (k, ...) -> (m + k, ...)."""
    if a.data.ndim == 0 or a.data.shape[1:] != b.data.shape[1:]:
        raise ValueError(
            f"concat: incompatible shapes {a.data.shape} and {b.data.shape}"
        )
    split = a.data.shape[0]
    return _make(
        np.concatenate([a.data, b.data]),
        (a, b),
        lambda g: (g[:split], g[split:]),
    )


def pair_logits(embed: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Pair MLP logits for every ordered row pair of ``embed``: (n, d) -> (n, n).

    Entry (i, j) is ``relu(concat(E[i], E[j]) @ w1 + b1) @ w2 + b2``, the
    first layer factored as ``E[i] @ w1[:d] + b1 + E[j] @ w1[d:]``. Only
    the inputs go on the tape; the VJP recomputes the (n*n, h) hidden
    layer from the live parameter arrays, which is sound because the
    optimizer steps only after ``backward`` returns (``matmul``'s VJP
    relies on that too).
    """
    ed, w1d, b1d, w2d, b2d = embed.data, w1.data, b1.data, w2.data, b2.data
    shapes, h = [x.shape for x in (ed, w1d, b1d, w2d, b2d)], b1d.size
    if ed.ndim != 2 or shapes[1:] != [(2 * shapes[0][1], h), (h,), (h, 1), (1,)]:
        raise ValueError(f"pair_logits: incompatible shapes {shapes}")
    n, d = ed.shape

    def pre_activation() -> np.ndarray:  # row i*n + j: pair (i, j)
        left, right = ed @ w1d[:d] + b1d, ed @ w1d[d:]
        return (left[:, None] + right[None]).reshape(n * n, h)

    def vjp(g: np.ndarray) -> tuple:
        g, pre = g.reshape(n * n, 1), pre_activation()
        mask = pre > 0
        gw2 = _relu_in_place(pre).T @ g
        g_pre = g @ w2d.T
        g_pre *= mask
        g3 = g_pre.reshape(n, n, h)
        g_left, g_right = g3.sum(axis=1), g3.sum(axis=0)
        ge = g_left @ w1d[:d].T + g_right @ w1d[d:].T
        gw1 = np.concatenate((ed.T @ g_left, ed.T @ g_right))
        return ge, gw1, g_left.sum(axis=0), gw2, g.sum(axis=0)

    out = (_relu_in_place(pre_activation()) @ w2d + b2d).reshape(n, n)
    return _make(out, (embed, w1, b1, w2, b2), vjp)


def adjacency_norm(adjacency: Tensor) -> Tensor:
    """``D^-1/2 (A + I) D^-1/2`` with D the row sums of ``A + I``: (n, n) -> (n, n).

    Entry (i, j) is ``(A + I)[i, j] * d_i^-1/2 * d_j^-1/2``; the scaling
    is the outer product of the column ``d^-1/2`` with its transpose.
    The VJP keeps ``A + I``, the scaling and the degree vectors.
    """
    a = adjacency.data
    n = a.shape[0] if a.ndim else 0
    if a.shape != (n, n):
        raise ValueError(f"adjacency must be square, got {a.shape}")
    with_loops = a + _eye(n)
    degree = with_loops.sum(axis=1, keepdims=True)
    inv_sqrt = degree**-0.5
    inv_sqrt_t = inv_sqrt.T.copy()
    scaling = inv_sqrt @ inv_sqrt_t

    def vjp(g: np.ndarray) -> tuple:
        g_scaling = g * with_loops
        g_inv_sqrt = g_scaling @ inv_sqrt_t.T + (inv_sqrt.T @ g_scaling).T
        g_degree = g_inv_sqrt * -0.5 * degree**-1.5
        return (g * scaling + np.repeat(g_degree, n, axis=1),)

    return _make(with_loops * scaling, (adjacency,), vjp)


def graph_conv(adjacency: Tensor, features: Tensor, weight: Tensor) -> Tensor:
    """One graph convolution layer, ``relu((A @ X) @ W)``: (n, n), (n, k), (k, m) -> (n, m).

    The VJP keeps ``A @ X`` for the weight gradient and reads the ReLU
    mask off the output, so no pre-activation stays on the tape.
    """
    ad, xd, wd = adjacency.data, features.data, weight.data
    n = ad.shape[0] if ad.ndim else 0
    if ad.shape != (n, n) or xd.ndim != 2 or xd.shape[0] != n or wd.shape[:1] != xd.shape[1:]:
        raise ValueError(f"graph_conv: incompatible shapes {ad.shape}, {xd.shape}, {wd.shape}")
    ax = ad @ xd
    out = _relu_in_place(ax @ wd)

    def vjp(g: np.ndarray) -> tuple:
        g = g * (out > 0)
        gw = _weight_grad(ax, g, weight) if weight.requires_grad else None
        if not (adjacency.requires_grad or features.requires_grad):
            return None, None, gw
        g_ax = g @ wd.T
        return (
            g_ax @ xd.T if adjacency.requires_grad else None,
            ad.T @ g_ax if features.requires_grad else None,
            gw,
        )

    return _make(out, (adjacency, features, weight), vjp)


def gumbel_relax(logits: Tensor, delta: np.ndarray, tau: float) -> Tensor:
    """``sigmoid((z + delta) / tau)`` with a zero diagonal: (n, n) -> (n, n).

    ``delta`` is a constant, the difference ``g1 - g2`` of two standard
    Gumbel draws. The VJP reads the sigmoid off the output: off the
    diagonal the two agree, and on it the mask zeroes the gradient
    either way.
    """
    z = logits.data
    n = z.shape[0] if z.ndim else 0
    if z.shape != (n, n) or np.shape(delta) != (n, n):
        raise ValueError(f"gumbel_relax: incompatible shapes {z.shape} and {np.shape(delta)}")
    inv_tau = 1.0 / tau
    off = _off_diagonal(n)
    out = logistic((z + delta) * inv_tau) * off
    return _make(out, (logits,), lambda g: (g * off * out * (1.0 - out) * inv_tau,))


def classifier_head(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two-layer classifier, ``relu(X @ w1 + b1) @ w2 + b2``, one logit per row.

    ``x`` flattens row-major into rows of ``D = w1.shape[0]`` features:
    its trailing axes that multiply to D make up one row and its leading
    axes index the rows, which is also the output's shape. A subject's
    stacked (2n, f) branch embeddings are one row and give a 0-d logit;
    a (B, D) matrix gives B logits. The VJP keeps the row matrix, a view
    of ``x``'s data, and the hidden layer after its ReLU.
    """
    xd, w1d, b1d, w2d, b2d = x.data, w1.data, b1.data, w2.data, b2.data
    d, h = w1d.shape if w1d.ndim == 2 else (0, 0)
    axes = next((k for k in range(1, xd.ndim + 1) if math.prod(xd.shape[-k:]) == d), None)
    if axes is None or [b1d.shape, w2d.shape, b2d.shape] != [(h,), (h, 1), (1,)]:
        shapes = [t.shape for t in (x, w1, b1, w2, b2)]
        raise ValueError(f"classifier_head: incompatible shapes {shapes}")
    out_shape = xd.shape[:-axes]
    rows = xd.reshape(-1, d)
    hidden = rows @ w1d
    hidden += b1d
    _relu_in_place(hidden)

    def vjp(g: np.ndarray) -> tuple:
        g = g.reshape(-1, 1)
        g_hidden = g @ w2d.T
        g_hidden *= hidden > 0
        return (
            (g_hidden @ w1d.T).reshape(xd.shape) if x.requires_grad else None,
            _weight_grad(rows, g_hidden, w1) if w1.requires_grad else None,
            g_hidden.sum(axis=0),
            _weight_grad(hidden, g, w2) if w2.requires_grad else None,
            g.sum(axis=0),
        )

    return _make((hidden @ w2d + b2d).reshape(out_shape), (x, w1, b1, w2, b2), vjp)


def bce_value(logit: float, label) -> float:
    """Binary cross-entropy -[y log s(z) + (1-y) log(1-s(z))], stable form.

    Computed as max(z, 0) - z*y + log1p(exp(-|z|)) so large-magnitude
    logits neither overflow nor lose the tiny-loss tail.
    """
    return max(logit, 0.0) - logit * label + float(np.log1p(np.exp(-abs(logit))))


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
