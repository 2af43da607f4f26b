"""Minimal reverse-mode autodiff over dense float64 arrays.

Covers exactly the operations the dual-graph classifier needs: matrix
products, elementwise add/mul/scale, ReLU/sigmoid/power, transpose,
reshape, concatenation, sum reductions, a numerically stable binary
cross-entropy on a single logit, and the edge scorer's pair MLP as one
op, ``pair_logits``, which keeps only its inputs on the tape and
recomputes its (n*n, h) hidden layer in backward.

Gradients accumulate into ``Tensor.grad``; each ``backward()`` call adds
one full pass worth of gradient, so calling it twice without zeroing
doubles every gradient. No operation mutates its inputs.

Backward does no work a gradient does not need. A product skips the side
whose operand does not require grad. When a matmul's right operand is a
leaf weight and the factors ``(a, g)`` of its gradient ``a.T @ g`` are
smaller than the gradient, ``rows * (in + out) < in * out``, the VJP
returns the factors; ``backward`` stacks every such contribution to the
weight over the whole tape (a mini-batch of subjects, say) and forms
the gradient with one product. That serves a wide weight fed one row
at a time, like the classifier head's first layer. Any other weight,
like a GCN's first layer, gets ``a.T @ g`` per use instead, since
stacking its factors would copy more than the gradient holds.

ReLU is ``fmax(x, 0) + 0.0``, equal to ``where(x > 0, x, 0)`` in every
bit but free of data-dependent branches. The logistic is
``where(x >= 0, 1/(1+e), e/(1+e))`` with ``e = exp(min(x, -x))``, not
``exp(-|x|)``, since ``-|NaN|`` flips a NaN's sign: neither branch
overflows, any shape (0-d included) goes in as is, and the result
matches the masked two-branch form in every bit, NaNs included.
"""

from __future__ import annotations

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


def _make(data: np.ndarray, parents: Sequence[Tensor], vjp: Vjp) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(parents)
        out._vjp = vjp
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
    (rows, k), n = ad.shape, bd.shape[1]
    # A leaf weight's gradient is left as factors for backward to stack
    # only when the factors are smaller than the gradient they form.
    defer = not b._parents and rows * (k + n) < k * n

    def vjp(g: np.ndarray) -> tuple:
        ga = g @ bd.T if a.requires_grad else None
        if not b.requires_grad:
            gb = None
        elif defer:
            gb = _Factors(ad, g)
        else:
            gb = ad.T @ g
        return ga, gb

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

    def relu_in_place(x: np.ndarray) -> np.ndarray:  # ``relu``'s bits
        return np.add(np.fmax(x, 0.0, out=x), 0.0, out=x)

    def vjp(g: np.ndarray) -> tuple:
        g, pre = g.reshape(n * n, 1), pre_activation()
        mask = pre > 0
        gw2 = relu_in_place(pre).T @ g
        g_pre = g @ w2d.T
        g_pre *= mask
        g3 = g_pre.reshape(n, n, h)
        g_left, g_right = g3.sum(axis=1), g3.sum(axis=0)
        ge = g_left @ w1d[:d].T + g_right @ w1d[d:].T
        gw1 = np.concatenate((ed.T @ g_left, ed.T @ g_right))
        return ge, gw1, g_left.sum(axis=0), gw2, g.sum(axis=0)

    out = (relu_in_place(pre_activation()) @ w2d + b2d).reshape(n, n)
    return _make(out, (embed, w1, b1, w2, b2), vjp)


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
