"""Minimal reverse-mode autodiff over dense float64 arrays.

Covers exactly the operations the dual-graph classifier needs: matrix
products, elementwise add/mul/scale, ReLU/sigmoid/power, transpose,
reshape, concatenation, row slices and ordered pair sums (for factored
pairwise edge features), sum reductions, and a numerically stable binary
cross-entropy on a single logit.

Gradients accumulate into ``Tensor.grad``; each ``backward()`` call adds
one full pass worth of gradient, so calling it twice without zeroing
doubles every gradient. No operation mutates its inputs.

Backward does no work a gradient does not need. A product skips the side
whose operand does not require grad. When a matmul's right operand is a
leaf weight, its VJP returns the factors ``(a, g)`` of ``a.T @ g``
instead of forming it; ``backward`` stacks every such contribution to
the weight over the whole tape (a mini-batch of subjects, say) and forms
the weight's gradient with one product.
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

    def zero_grad(self) -> None:
        self.grad = None

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

    def vjp(g: np.ndarray) -> tuple:
        ga = g @ bd.T if a.requires_grad else None
        if not b.requires_grad:
            gb = None
        elif not b._parents:  # a leaf weight: backward forms it once per tape
            gb = _Factors(ad, g)
        else:
            gb = ad.T @ g
        return ga, gb

    return _make(ad @ bd, (a, b), vjp)


def transpose(a: Tensor) -> Tensor:
    return _make(a.data.T.copy(), (a,), lambda g: (g.T,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _make(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def logistic(x: np.ndarray) -> np.ndarray:
    """Elementwise 1/(1+exp(-x)), stable for large |x|."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    s = logistic(np.atleast_1d(a.data)).reshape(a.data.shape)
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


def row_slice(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start`` to ``stop - 1`` of a matrix; zero gradient elsewhere."""
    shape = a.data.shape

    def vjp(g: np.ndarray) -> tuple:
        full = np.zeros(shape, dtype=np.float64)
        full[start:stop] = g
        return (full,)

    return _make(a.data[start:stop].copy(), (a,), vjp)


def pair_sum(left: Tensor, right: Tensor) -> Tensor:
    """Every ordered row pair summed: (m, d), (k, d) -> (m*k, d).

    Row ``i*k + j`` holds ``left[i] + right[j]``. With ``left = E @ W_top``
    and ``right = E @ W_bottom`` this equals the pair features
    ``concat(E[i], E[j]) @ W`` without forming the concatenated pairs.
    """
    if left.data.ndim != 2 or right.data.ndim != 2 or left.shape[1] != right.shape[1]:
        raise ValueError(
            f"pair_sum: incompatible shapes {left.data.shape} and {right.data.shape}"
        )
    (m, d), k = left.data.shape, right.data.shape[0]
    out = (left.data[:, None, :] + right.data[None, :, :]).reshape(m * k, d)

    def vjp(g: np.ndarray) -> tuple:
        g3 = g.reshape(m, k, d)
        return g3.sum(axis=1), g3.sum(axis=0)

    return _make(out, (left, right), vjp)


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
    residual = logistic(np.asarray([z]))[0] - y

    def vjp(g: np.ndarray) -> tuple:
        return (np.full(in_shape, g * residual, dtype=np.float64),)

    return _make(np.asarray(bce_value(z, y)), (logit,), vjp)
