"""Minimal reverse-mode autodiff over dense float64 arrays.

Covers exactly the operations the dual-graph classifier runs: the
matrix product behind the edge scorer's extractor, a numerically stable
mean binary cross-entropy over a mini-batch (``bce_mean``, one node for
the whole batch, taking the batch's logits as one (B,) tensor), and one
op per model layer, so that a layer costs one tape node:

- ``pair_logits``, the edge scorer from the extractor's product on (bias,
  ReLU, pair MLP), keeps the embedding and the pair MLP's two (n, h)
  halves; its forward builds the pairs' hidden layer a block of rows at
  a time, about 400 KB that stay in L2, never the whole (n*n, h) array,
  and its VJP rebuilds the pair ReLU mask as one (n*n, h) array of 0.0
  and 1.0 in the forward's pair layout and takes the upstream gradient's
  masked sums from it with batched GEMVs, never forming the gradient
  times the mask;
- ``stack``, a mini-batch's B (n, n) logit matrices as one (B, n, n)
  tensor, keeps nothing and hands each part its slice of the gradient
  as a view;
- ``adjacency_norm``, ``D^-1/2 (A + I) D^-1/2``, keeps ``A + I``, the
  scaling and the degrees;
- ``graph_conv``, ``relu((A @ X) @ W)``, keeps ``A @ X`` and reads the
  ReLU mask off its output, so no pre-activation stays alive;
- ``gumbel_relax``, ``sigmoid((z + delta) / tau)`` with a zero diagonal,
  keeps nothing but its output;
- ``classifier_head``, which joins the branch outputs on their node axis
  and runs affine, ReLU, affine to one logit per row, keeps its input
  rows (a view of a single part, the joined copy of several) and the
  hidden layer. The joined outputs' last two axes make one subject's
  row of the head's input width D: one subject's (n, f) branch outputs
  make one row and a 0-d logit; a mini-batch's (B, n, f) stacks make B
  rows and a (B,) vector, so training runs the head as one (B × D)
  product each way.

Each layer op and ``bce_mean`` runs the numpy expressions of the
primitive-op chain it replaced (the tests keep it as their reference), in
the same order and on operands of the same layout, so its outputs and
gradients match that chain in every bit, except ``pair_logits``'
gradients: summed in another order, they differ in the last bits.
``gumbel_relax``, ``adjacency_norm`` and ``graph_conv`` also take a
mini-batch's B graphs on a leading axis and run each graph's products
as its own 2-D call does, in one numpy call per product, so a stacked
call gives each graph the bits of a 2-D call; a weight's gradient over
the stack is the one product of its stacked factors described below.
A VJP that needs a weight reads the live parameter array, which is
sound because the optimizer steps only after ``backward`` returns.

Gradients accumulate into ``Tensor.grad`` on leaves only, the tensors
with no VJP such as parameters; each ``backward()`` call adds one full
pass worth of gradient, so calling it twice without zeroing doubles
every gradient. No operation mutates its inputs.

Backward does no work a gradient does not need. A product skips the side
whose operand does not require grad. Every weight gradient ``x.T @ g``,
in ``matmul`` and in the layer ops alike, follows one rule: the VJP
returns the factors ``(x, g)`` unformed, and ``backward`` stacks every
contribution to the weight over the whole tape (a mini-batch of
subjects, say) and forms its gradient with one product, or none when the
weight needs no gradient.

A leaf keeps the array of its last stacked gradient. When a pass's
gradient of a leaf is that one product and the leaf holds no gradient
(``grad`` is None, as after ``zero_grad``), ``backward`` writes the
product into that array, so steady-state training allocates no
parameter-sized gradient. A gradient you keep past the next
``zero_grad`` and ``backward`` may thus be overwritten: copy it. While
a leaf still holds a gradient, the pass adds to it in a new array.

The layer ops' ReLU is ``fmax(x, 0) + 0.0``, equal to
``where(x > 0, x, 0)`` in every bit but free of data-dependent
branches. Its zero is a read-only array of ``x``'s shape, cached per
shape: against a scalar, ``fmax`` misses numpy's SIMD loop. The
logistic is ``where(x >= 0, 1/(1+e), e/(1+e))`` with
``e = exp(min(x, -x))``, not ``exp(-|x|)``, since ``-|NaN|`` flips a
NaN's sign: neither branch overflows, any shape (0-d included) goes in
as is, and the result matches the masked two-branch form in every bit,
NaNs included.
"""

from __future__ import annotations

import functools
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
    """Dense float64 array with an optional place on the backward tape.

    A leaf's ``_stacked`` keeps its last stacked gradient's array for the
    next pass to write into. On a 2-core host, dropping that reuse cut the
    paper-scale benchmark's peak RSS by 3 MB (225 against 228 MB) but cost
    an acceptance-scale training step 0.15-0.22 ms of about 3.2 and over
    100 more page faults, in every interleaved run; so it stays.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_stacked")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._vjp: Optional[Vjp] = None
        self._stacked: Optional[np.ndarray] = None  # last stacked gradient's array

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        """Accumulate dself/dleaf into ``grad`` for every reachable leaf.

        A leaf is a tensor with no VJP, such as a parameter; an
        intermediate's gradient is dropped once its VJP has run. Requires
        a scalar (shape ``()``) tensor on the tape. Gradients from
        repeated calls add up; zero them between steps. A leaf holding no
        gradient whose gradient this pass is one stacked product gets it
        in the array its previous stacked gradient used.
        """
        if self.data.shape != ():
            raise ValueError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        if not self.requires_grad:
            raise ValueError("backward on a tensor that does not require grad")

        order = _topo_order(self)
        flows = {id(self): np.ones((), dtype=np.float64)}
        factors: dict = {}  # id(tensor) -> list of _Factors
        for node in reversed(order):
            flow = flows.pop(id(node), None)
            pending = factors.pop(id(node), None)
            if pending is not None:
                # on a leaf with no other gradient, the product is the gradient
                keep = node._vjp is None and flow is None and node.grad is None
                if keep and node._stacked is not None:
                    product = _stacked_product(pending, out=node._stacked)
                else:
                    product = _stacked_product(pending)
                if keep:
                    node._stacked = product
                flow = product if flow is None else flow + product
            if flow is None:
                continue
            if node._vjp is None:
                node.grad = flow if node.grad is None else node.grad + flow
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


def _stacked_product(parts: list, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Sum of ``a_i.T @ g_i`` as one product of the stacked factors.

    Written into ``out`` when given, the same leaf's previous product; the
    bits are the same either way.
    """
    if len(parts) == 1:
        a, g = parts[0].a, parts[0].g
    else:
        a = np.concatenate([p.a for p in parts])
        g = np.concatenate([p.g for p in parts])
    if out is None:
        return a.T @ g
    return np.matmul(a.T, g, out=out)


_FLOAT64 = np.dtype(np.float64)


def _make(data: np.ndarray, parents: Sequence[Tensor], vjp: Vjp) -> Tensor:
    out = Tensor.__new__(Tensor)
    if type(data) is np.ndarray and data.dtype is _FLOAT64:
        out.data = data
    else:  # numpy scalars, 0-d results and other dtypes, as Tensor() takes them
        out.data = np.asarray(data, dtype=np.float64)
    out.grad = out._stacked = None
    for parent in parents:
        if parent.requires_grad:
            out.requires_grad, out._parents, out._vjp = True, tuple(parents), vjp
            return out
    out.requires_grad, out._parents, out._vjp = False, (), None
    return out


def _relu_in_place(x: np.ndarray) -> np.ndarray:
    """``where(x > 0, x, 0)`` bit for bit, written over ``x``.

    ``fmax`` maps NaN to 0 as the comparison does but may return -0.0,
    which adding +0.0 turns into +0.0 and leaves every other value as is.
    The zero is a cached array of ``x``'s last two axes, broadcast over a
    batch axis; a scalar is 2-3 times slower, and one of a whole stack's
    shape costs a stack of memory.
    """
    return np.add(np.fmax(x, _zeros(x.shape[-2:]), out=x), 0.0, out=x)


@functools.lru_cache(maxsize=16)
def _zeros(shape: tuple) -> np.ndarray:
    out = np.zeros(shape)
    out.flags.writeable = False
    return out


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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}"
        )
    ad, bd = a.data, b.data

    def vjp(g: np.ndarray) -> tuple:
        return (
            g @ bd.T if a.requires_grad else None,
            _Factors(ad, g),
        )

    return _make(ad @ bd, (a, b), vjp)


def logistic(x: np.ndarray) -> np.ndarray:
    """Elementwise 1/(1+exp(-x)), stable for large |x|, any shape."""
    e = np.exp(np.minimum(x, -x))  # exp(-|x|); minimum keeps a NaN's sign
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# Floats in one block of ``pair_logits``' pre-activations: 400 KB, which
# stays in L2. That is 16 rows of pairs at n = 96 and h = 32 (faster than
# 2, 8 or 32 rows on a 2-core Haswell host) and all 16 rows at n = 16.
_PAIR_BLOCK_FLOATS = 50_000


def pair_logits(
    product: Tensor, b0: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor
) -> Tensor:
    """Pair MLP logits for every ordered row pair of ``E = relu(P + b0)``: (n, d) -> (n, n).

    ``P``, the ``product``, is the extractor's ``series @ extract_w`` and
    ``b0`` its bias row, so ``E`` is the node embedding. Entry (i, j) is
    ``relu(concat(E[i], E[j]) @ w1 + b1) @ w2 + b2``, the first layer
    factored as ``L[i] + R[j]`` with ``L = E @ w1[:d] + b1`` and
    ``R = E @ w1[d:]``. The tape keeps ``E``, ``L`` and ``R`` (2·n·h floats
    besides ``E``), and the VJP recomputes only the ReLU mask from them.
    It reads ``w1`` and ``w2`` from the live parameter arrays, which is
    sound because the optimizer steps only after ``backward`` returns.
    The upstream gradient's masked row and column sums ``s`` and ``t``,
    each n GEMVs of a row or column of ``g`` with the mask's (n, h) slice,
    give every gradient: ``s * w2`` and ``t * w2`` for ``L`` and ``R``,
    and ``sum(L * s) + sum(R * t)`` for ``w2``, which is
    ``sum(relu(L[i] + R[j]) * g[i, j])`` added in another order.
    ``E``'s gradient times ``E > 0`` is ``P``'s, and its column sums are
    ``b0``'s.
    """
    pd, b0d, w1d, b1d, w2d, b2d = (t.data for t in (product, b0, w1, b1, w2, b2))
    shapes, h = [x.shape for x in (pd, b0d, w1d, b1d, w2d, b2d)], b1d.size
    d = shapes[0][1] if pd.ndim == 2 else -1
    if shapes[1:] != [(d,), (2 * d, h), (h,), (h, 1), (1,)]:
        raise ValueError(f"pair_logits: incompatible shapes {shapes}")
    n = pd.shape[0]
    embed = _relu_in_place(pd + b0d)
    left, right = embed @ w1d[:d] + b1d, embed @ w1d[d:]
    flat_right = right.reshape(1, n * h)

    def vjp(g: np.ndarray) -> tuple:
        # The pair ReLU mask as 0.0/1.0 in the forward's layout (row i holds
        # L[i] + R[j] for every j), from the forward's own sums. Batched
        # (1, n) @ (n, h) GEMVs give s[i] = g[i] @ mask[i] and
        # t[j] = g[:, j] @ mask[:, j] with no (n, n, h) product. g's columns
        # go in contiguous: numpy hands a strided vector to its own loop,
        # which sums in another order than BLAS.
        m = np.repeat(left, n, axis=0).reshape(n, n * h)
        m += flat_right
        np.greater(m, 0.0, out=m)
        m3 = m.reshape(n, n, h)
        s = np.matmul(g[:, None, :], m3)[:, 0]
        t = np.matmul(np.ascontiguousarray(g.T)[:, None, :], m3.transpose(1, 0, 2))[:, 0]
        g_left, g_right = s * w2d[:, 0], t * w2d[:, 0]
        gw2 = ((left * s).sum(axis=0) + (right * t).sum(axis=0)).reshape(h, 1)
        gp = (g_left @ w1d[:d].T + g_right @ w1d[d:].T) * (embed > 0)
        gw1 = np.concatenate((embed.T @ g_left, embed.T @ g_right))
        gb2 = g.reshape(n * n, 1).sum(axis=0)
        return gp, gp.sum(axis=0), gw1, g_left.sum(axis=0), gw2, gb2

    # Row k*n + j of the block at row i is pair (i + k, j), L[i + k] + R[j]
    # added along contiguous rows. OpenBLAS's GEMV sums a row in an order set
    # by its place in a group of 4 rows, so every block but the last holds a
    # multiple of 16 rows of pairs: each logit keeps the bits of one (n*n, h)
    # GEMV on one thread. (OpenBLAS splits a GEMV of about 400K floats or
    # more across threads, which moves some bits, as at n = 150; a block
    # within the budget stays on one thread.)
    out = np.empty(n * n)
    rows = max(16, _PAIR_BLOCK_FLOATS // max(1, n * h) // 16 * 16)
    for i in range(0, n, rows):
        block = np.repeat(left[i : i + rows], n, axis=0)
        pairs = block.reshape(-1, n * h)
        np.add(pairs, flat_right, out=pairs)
        np.matmul(_relu_in_place(block), w2d, out=out[i * n : i * n + len(block)].reshape(-1, 1))
    out += b2d
    return _make(out.reshape(n, n), (product, b0, w1, b1, w2, b2), vjp)


def stack(parts: Sequence[Tensor]) -> Tensor:
    """B tensors of one shape as one tensor on a new leading axis: B x (n, n) -> (B, n, n).

    Each part's gradient is a view, its slice of the stack's.
    """
    shapes = [part.shape for part in parts]
    if not shapes or shapes.count(shapes[0]) != len(shapes):
        raise ValueError(f"stack: parts of incompatible shapes {shapes}")
    return _make(np.stack([part.data for part in parts]), parts, tuple)


def adjacency_norm(adjacency: Tensor) -> Tensor:
    """``D^-1/2 (A + I) D^-1/2`` with D the row sums of ``A + I``: (n, n) -> (n, n).

    Entry (i, j) is ``(A + I)[i, j] * d_i^-1/2 * d_j^-1/2``; the scaling
    is the outer product of the column ``d^-1/2`` with its transpose.
    The VJP keeps ``A + I``, the scaling and the degree vectors. ``A`` may
    carry a leading batch axis, a mini-batch's (B, n, n) sampled graphs;
    every product is then the per-graph product, so each graph keeps the
    bits of its 2-D call.
    """
    a = adjacency.data
    n = a.shape[-1] if a.ndim else 0
    if a.ndim not in (2, 3) or a.shape[-2:] != (n, n):
        raise ValueError(f"adjacency must be square, got {a.shape}")
    with_loops = a + _eye(n)
    degree = with_loops.sum(axis=-1, keepdims=True)
    inv_sqrt = degree**-0.5
    inv_sqrt_t = inv_sqrt.swapaxes(-1, -2).copy()  # .T of each (n, 1) column
    scaling = inv_sqrt @ inv_sqrt_t

    def vjp(g: np.ndarray) -> tuple:
        g_scaling = g * with_loops
        row = inv_sqrt.swapaxes(-1, -2)  # a view, not inv_sqrt_t: the layout keeps the bits
        g_inv_sqrt = g_scaling @ inv_sqrt_t.swapaxes(-1, -2) + (row @ g_scaling).swapaxes(-1, -2)
        g_degree = g_inv_sqrt * -0.5 * degree**-1.5
        return (g * scaling + np.repeat(g_degree, n, axis=-1),)

    return _make(with_loops * scaling, (adjacency,), vjp)


def graph_conv(adjacency: Tensor, features: Tensor, weight: Tensor) -> Tensor:
    """One graph convolution layer, ``relu((A @ X) @ W)``: (n, n), (n, k), (k, m) -> (n, m).

    ``A`` and ``X`` may carry a leading batch axis, (B, n, n) and
    (B, n, k), for a mini-batch's graphs. Each product by ``A``, ``X`` or
    ``W`` then runs B per-graph products in one call, the very ones B
    2-D calls run, so every graph keeps its bits (one (B·n, m) product by
    ``W.T`` would differ from B (n, m) ones in the last bits); the
    weight's gradient is one factor pair, the (B·n, k) rows of ``A @ X``
    and of the output's gradient. The VJP keeps ``A @ X`` for the weight
    gradient and reads the ReLU mask off the output, so no
    pre-activation stays on the tape.
    """
    ad, xd, wd = adjacency.data, features.data, weight.data
    n = ad.shape[-1] if ad.ndim else 0
    if (
        ad.ndim not in (2, 3)
        or ad.shape[-2:] != (n, n)
        or xd.shape[:-1] != ad.shape[:-1]
        or wd.ndim != 2
        or wd.shape[0] != xd.shape[-1]
    ):
        raise ValueError(f"graph_conv: incompatible shapes {ad.shape}, {xd.shape}, {wd.shape}")
    ax = ad @ xd
    out = _relu_in_place(ax @ wd)

    def vjp(g: np.ndarray) -> tuple:
        g = g * (out > 0)
        gw = _Factors(ax.reshape(-1, wd.shape[0]), g.reshape(-1, wd.shape[1]))
        if not (adjacency.requires_grad or features.requires_grad):
            return None, None, gw
        g_ax = g @ wd.T
        return (
            g_ax @ xd.swapaxes(-1, -2) if adjacency.requires_grad else None,
            ad.swapaxes(-1, -2) @ g_ax if features.requires_grad else None,
            gw,
        )

    return _make(out, (adjacency, features, weight), vjp)


def gumbel_relax(logits: Tensor, delta: np.ndarray, tau: float) -> Tensor:
    """``sigmoid((z + delta) / tau)`` with a zero diagonal: (n, n) -> (n, n).

    ``delta`` is a constant of the logits' shape, the difference
    ``g1 - g2`` of two standard Gumbel draws. Both may carry a leading
    batch axis, (B, n, n) for a mini-batch; the op is elementwise, so each
    graph keeps the bits of its 2-D call. The VJP reads the sigmoid off
    the output: off the diagonal the two agree, and on it the mask zeroes
    the gradient either way.
    """
    z = logits.data
    n = z.shape[-1] if z.ndim else 0
    if z.ndim not in (2, 3) or z.shape[-2:] != (n, n) or np.shape(delta) != z.shape:
        raise ValueError(f"gumbel_relax: incompatible shapes {z.shape} and {np.shape(delta)}")
    inv_tau = 1.0 / tau
    off = _off_diagonal(n)
    with np.errstate(over="ignore"):  # +-inf saturates: logistic maps it to exactly 1 or 0
        scaled = (z + delta) * inv_tau
    out = logistic(scaled) * off
    return _make(out, (logits,), lambda g: (g * off * out * (1.0 - out) * inv_tau,))


def classifier_head(
    parts: Sequence[Tensor], w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor
) -> Tensor:
    """Two-layer classifier, ``relu(X @ w1 + b1) @ w2 + b2``, one logit per subject.

    ``X`` is the ``parts`` joined along their node axis (-2). Its last
    two axes, which must multiply to ``D = w1.shape[0]``, make one
    subject's row; its leading axes index subjects and shape the output.
    So one subject's (n, f) branch outputs give a 0-d logit and a
    mini-batch's (B, n, f) stacks give its B logits in batch order, all
    rows from one product. Each part's gradient is a view, its slice of
    ``X``'s.
    """
    xs = [part.data for part in parts]
    w1d, b1d, w2d, b2d = w1.data, b1.data, w2.data, b2.data
    try:  # parts must agree on every axis but the node axis
        xd = xs[0] if len(xs) == 1 else np.concatenate(xs, axis=-2)
        row = xd.shape[-2] * xd.shape[-1]
    except (IndexError, ValueError):  # no parts, 0-d or 1-d ones, other shapes
        shapes = [x.shape for x in xs]
        raise ValueError(f"classifier_head: parts of incompatible shapes {shapes}") from None
    d, h = w1d.shape if w1d.ndim == 2 else (0, 0)
    if row != d or [b1d.shape, w2d.shape, b2d.shape] != [(h,), (h, 1), (1,)]:
        shapes = [[x.shape for x in xs]] + [t.shape for t in (w1, b1, w2, b2)]
        raise ValueError(f"classifier_head: incompatible shapes {shapes}")
    flat = xd.reshape(-1, d)
    hidden = flat @ w1d
    hidden += b1d
    _relu_in_place(hidden)

    def vjp(g: np.ndarray) -> tuple:
        g = g.reshape(-1, 1)
        g_hidden = g @ w2d.T
        g_hidden *= hidden > 0
        gx = (g_hidden @ w1d.T).reshape(xd.shape) if any([p.requires_grad for p in parts]) else None
        if len(xs) == 1:
            g_parts = [gx]
        else:  # plain slices on the node axis: np.split takes five times as long
            g_parts, stop = [], 0
            for part, x in zip(parts, xs):
                start, stop = stop, stop + x.shape[-2]
                g_parts.append(gx[..., start:stop, :] if part.requires_grad else None)
        weights = _Factors(flat, g_hidden), g_hidden.sum(axis=0), _Factors(hidden, g), g.sum(axis=0)
        return (*g_parts, *weights)

    return _make((hidden @ w2d + b2d).reshape(xd.shape[:-2]), (*parts, w1, b1, w2, b2), vjp)


def bce_value(logit, label):
    """Binary cross-entropy -[y log s(z) + (1-y) log(1-s(z))], stable form, elementwise.

    Computed as max(z, 0) - z*y + log1p(exp(-|z|)) so large-magnitude
    logits neither overflow nor lose the tiny-loss tail. Scalars give a
    numpy scalar, arrays the array of their losses.
    """
    return np.maximum(logit, 0.0) - logit * label + np.log1p(np.exp(-np.abs(logit)))


def bce_mean(logits: Tensor, labels: Sequence) -> Tensor:
    """Mean ``bce_value`` over a mini-batch's logits, as one tape node.

    ``logits`` holds one logit per label: a (B,) vector, such as
    ``classifier_head``'s over a mini-batch, or for one label any
    one-entry shape, such as a subject's 0-d logit. The B losses and
    residuals ``s(z_i) - y_i`` are one vectorized expression each,
    ``bce_value`` and ``logistic`` on the (B,) vectors; the losses
    add in batch order, then the sum is multiplied by ``1 / B``. Logit i's
    gradient is ``(g * (1 / B)) * (s(z_i) - y_i)``. Labels are 0 or 1.
    """
    zs, count = logits.data, len(labels)
    if not count or zs.shape != (count,) and not (count == 1 and zs.size == 1):
        raise ValueError(
            f"bce_mean needs one label per logit: a ({count},) vector, or a scalar for one "
            f"label; got {count} labels for logits of shape {zs.shape}"
        )
    ys = []
    for label in labels:
        y = float(label)
        if y not in (0.0, 1.0):
            raise ValueError(f"label must be 0 or 1, got {label!r}")
        ys.append(y)
    z, y = zs.reshape(-1), np.array(ys)
    residuals = logistic(z) - y
    total = 0.0  # 0.0 + loss is loss: no loss is -0.0
    for loss in bce_value(z, y).tolist():
        total += loss
    inv_b = 1.0 / count

    def vjp(g: np.ndarray) -> tuple:
        return ((g * inv_b * residuals).reshape(zs.shape),)

    return _make(np.asarray(total * inv_b), (logits,), vjp)
