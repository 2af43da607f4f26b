"""Unit and gradient checks for the reverse-mode engine."""

import inspect
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dualgraph import autodiff as ad
from dualgraph.autodiff import Tensor

from oracles import (
    LAYER_OP_COMPOSITES,
    add,
    bce_mean_loop,
    bce_with_logits,
    concat,
    finite_difference_gradient,
    logistic_masked,
    max_rel_error,
    mul,
    pair_logits_broadcast,
    pair_logits_chained,
    pair_logits_vjp_broadcast,
    power,
    relu,
    reshape,
    row_sum,
    scale,
    sigmoid,
    sum_all,
    transpose,
)

GRAD_TOL = 1e-6


def _product_spy(array):
    """View of ``array`` that records every matrix product it takes part in."""
    products = []

    class Spy(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                products.append([np.shape(x) for x in inputs])
            return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

    return array.view(Spy), products


_SPECIAL_FLOATS = [
    np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.0, -1.0
]


def _assert_relu_is_where(x):
    """ReLU forward equals ``where(x > 0, x, 0)`` in every bit, signed zeros included.

    Checked for the reference op and for the in-place form the layer ops run.
    """
    with np.errstate(invalid="ignore"):
        expected = np.where(x > 0, x, 0.0)
    outs = [relu(Tensor(x, requires_grad=r)).data for r in (False, True)]
    # The in-place form twice: the second call's zero operand is the cached one.
    outs += [ad._relu_in_place(np.array(x, dtype=np.float64)) for _ in range(2)]
    for out in outs:
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()


def _check_gradients(build, arrays, tol=GRAD_TOL):
    """Compare engine gradients of scalar build(tensors) against FD."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(tensors)
    out.backward()

    def value(arrs):
        return float(build([Tensor(a) for a in arrs]).data)

    for i, t in enumerate(tensors):
        numeric = finite_difference_gradient(value, [a.copy() for a in arrays], i)
        assert t.grad is not None
        err = max_rel_error(t.grad, numeric)
        assert err < tol, f"input {i}: rel error {err}"


class TestMatmul:
    def test_identity(self):
        m = np.array([[3.0, -1.0], [2.5, 7.0]])
        out = ad.matmul(Tensor(np.eye(2)), Tensor(m))
        np.testing.assert_array_equal(out.data, m)

    def test_hand_product(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Tensor(np.array([[5.0], [6.0]]))
        np.testing.assert_array_equal(ad.matmul(a, b).data, [[17.0], [39.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        _check_gradients(lambda ts: sum_all(ad.matmul(ts[0], ts[1])), [a, b])


class TestRelu:
    def test_sign_cases(self):
        out = relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((4, 4)))
        once = relu(x)
        np.testing.assert_array_equal(relu(once).data, once.data)

    def test_gradient_away_from_kink(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 5))
        x[np.abs(x) < 1e-3] = 0.5
        _check_gradients(lambda ts: sum_all(relu(ts[0])), [x])

    def test_zero_input_gets_zero_gradient(self):
        x = Tensor(np.array([0.0, 1.0]), requires_grad=True)
        sum_all(relu(x)).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])

    @given(
        st.lists(
            st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS)), max_size=70
        ),
        st.integers(1, 3),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_forward_is_the_where_formula_bit_for_bit(self, values, step, as_column):
        base = np.array(values, dtype=np.float64)
        x = base[::step]
        if as_column:  # a transposed, non-contiguous 2-D view
            x = np.stack([x, x[::-1]]).T
        _assert_relu_is_where(x)

    def test_every_length_to_70_with_special_values(self):
        rng = np.random.default_rng(19)
        for n in range(71):
            x = rng.standard_normal(2 * n) * 10.0 ** rng.integers(-320, 300, 2 * n)
            x[: 2 * n : 3] = np.resize(_SPECIAL_FLOATS, len(x[: 2 * n : 3]))
            _assert_relu_is_where(x[:n])
            _assert_relu_is_where(x[::2])


class TestZeroOperand:
    def test_cached_zero_operands_are_read_only_zeros_after_use(self):
        rng = np.random.default_rng(5)
        arrays = _pair_mlp(rng, 17, 3, 4)
        x = rng.standard_normal((5, 7))
        shapes = [(17, 3), (17 * 17, 4), (5, 7)]  # the embedding, the one pair block, x
        cached = {shape: ad._zeros(shape) for shape in shapes}
        ad.pair_logits(*map(Tensor, arrays))
        ad._relu_in_place(x)
        for shape, zeros in cached.items():
            assert ad._zeros(shape) is zeros
            assert not zeros.flags.writeable
            assert zeros.tobytes() == bytes(zeros.nbytes)  # +0.0 everywhere
        with pytest.raises(ValueError, match="read-only"):
            np.fmax(x, 1.0, out=cached[(5, 7)])


    def test_a_stack_takes_the_zero_of_its_last_two_axes(self, monkeypatch):
        # One (n, m) zero serves every graph of a (B, n, m) stack.
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 5, 7))
        flat = x.reshape(-1)
        flat[::4] = np.resize(_SPECIAL_FLOATS, flat[::4].size)
        shapes, zeros = [], ad._zeros
        monkeypatch.setattr(ad, "_zeros", lambda shape: shapes.append(shape) or zeros(shape))
        with np.errstate(invalid="ignore"):
            out = ad._relu_in_place(x.copy())
        assert shapes == [(5, 7)]
        expected = np.where(x > 0, x, 0.0)
        assert out.tobytes() == expected.tobytes()


_LOGISTIC_SPECIALS = _SPECIAL_FLOATS + [
    np.copysign(np.nan, -1.0), 1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
    36.0, -36.0, 709.0, -709.0, 745.0, -745.0, 1e-300, -1e-300,
]

# Identity, transposed, strided and reversed views of the generated array.
_VIEWS = [
    lambda x: x,
    lambda x: x.T,
    lambda x: np.atleast_1d(x)[::2],
    lambda x: np.atleast_1d(x)[..., ::-1],
    lambda x: np.stack([x, x]).T,
]


def _assert_same_bits(ours, expected):
    ours, expected = np.asarray(ours), np.asarray(expected)
    assert ours.shape == expected.shape
    assert ours.dtype == expected.dtype == np.float64
    np.testing.assert_array_equal(
        np.ascontiguousarray(ours).view(np.uint64),
        np.ascontiguousarray(expected).view(np.uint64),
    )


class TestLogistic:
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=0, max_dims=2, max_side=7),
            elements=st.one_of(
                st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                st.floats(-1e308, 1e308),
                st.sampled_from(_LOGISTIC_SPECIALS),
            ),
        ),
        st.sampled_from(_VIEWS),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_the_masked_form_bit_for_bit(self, base, view):
        x = view(base)
        with np.errstate(invalid="ignore"):
            _assert_same_bits(ad.logistic(x), logistic_masked(x))

    def test_special_values_one_at_a_time_and_together(self):
        values = np.array(_LOGISTIC_SPECIALS)
        _assert_same_bits(ad.logistic(values), logistic_masked(values))
        for v in values:
            _assert_same_bits(ad.logistic(np.asarray(v)), logistic_masked(np.asarray(v)))


class TestSigmoid:
    """The reference ``sigmoid`` the composites and probes chain."""

    def test_zero_dimensional_input(self):
        for v in _LOGISTIC_SPECIALS:
            if np.isnan(v):
                continue
            x = Tensor(np.asarray(v), requires_grad=True)
            out = sigmoid(x)
            _assert_same_bits(out.data, logistic_masked(np.asarray(v)))
            out.backward()
            s = float(out.data)
            assert x.grad.shape == () and float(x.grad) == s * (1.0 - s)

    def test_symmetry_point(self):
        assert sigmoid(Tensor(np.array(0.0))).data == 0.5

    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_identity(self, x):
        s1 = float(sigmoid(Tensor(np.array(x))).data)
        s2 = float(sigmoid(Tensor(np.array(-x))).data)
        assert abs(s1 + s2 - 1.0) <= 1e-12

    def test_extreme_inputs_are_finite(self):
        out = sigmoid(Tensor(np.array([-1000.0, 1000.0])))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(13)
        _check_gradients(
            lambda ts: sum_all(sigmoid(ts[0])), [rng.standard_normal((4, 3))]
        )


class TestConcat:
    """The oracle's join, which ``classifier_head_composite`` chains."""

    def test_vector_definition(self):
        out = concat(Tensor(np.array([1.0, 2.0])), Tensor(np.array([3.0])))
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_split_round_trip(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((4, 3))
        joined = concat(Tensor(a), Tensor(b)).data
        np.testing.assert_array_equal(joined[:2], a)
        np.testing.assert_array_equal(joined[2:], b)

    def test_gradient_is_ones_on_both_inputs(self):
        a = Tensor(np.zeros((2, 2)), requires_grad=True)
        b = Tensor(np.zeros((3, 2)), requires_grad=True)
        sum_all(concat(a, b)).backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 2)))
        np.testing.assert_array_equal(b.grad, np.ones((3, 2)))

    def test_incompatible_shapes(self):
        with pytest.raises(ValueError, match="concat"):
            concat(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


def _pair_mlp(rng, n, d, h, b1_shift=0.0, b0_shift=0.0):
    """Random (product, extract_b, w1, b1, w2, b2); ``relu(product + extract_b)`` has zeros."""
    product = rng.standard_normal((n, d))
    w1 = rng.standard_normal((2 * d, h)) * 0.5
    b1 = rng.standard_normal(h) * 0.5 + b1_shift
    w2, b2 = rng.standard_normal((h, 1)), rng.standard_normal(1)
    return [product, rng.standard_normal(d) * 0.5 + b0_shift, w1, b1, w2, b2]


def _pair_bounds(n, expected):
    """Allowed error of each ``pair_logits`` gradient against the chained oracle.

    Each is ``16 * n * eps`` times the largest oracle entry, except
    extract_b's: its gradient adds up the n rows of the product's, so its
    scale is the largest column sum of that gradient's magnitudes.
    """
    scales = [np.abs(e).max() for e in expected]
    scales[1] = np.abs(expected[0]).sum(axis=0).max()
    return [16 * n * np.finfo(float).eps * scale for scale in scales]


def _pair_magnitude_bounds(arrays, g):
    """Allowed error of each ``pair_logits`` gradient against the chained oracle, any draw.

    Each bound is a multiple of ``eps`` times the sum of the magnitudes of
    the terms the gradient adds up, so no cancellation between the terms
    can break it. The pair MLP's four take ``n + 2``: ``n`` for the n-term
    row and column sums on each side, ``2`` for the few roundings around
    them, which is all there is at n = 1. Each entry of the product's
    gradient also goes through an h-term product with ``w1``, so it takes
    ``n + h + 2``, and ``extract_b``'s, a sum of the product's n rows,
    ``2 * n + h + 2``.
    """
    product, b0, w1, b1, w2, _ = arrays
    n, d = product.shape
    h = b1.size
    embed = np.maximum(product + b0, 0.0)
    left, right = np.abs(embed @ w1[:d] + b1), np.abs(embed @ w1[d:])
    rows, cols, total = np.abs(g).sum(axis=1), np.abs(g).sum(axis=0), np.abs(g).sum()
    w2_abs = np.abs(w2[:, 0])
    product_scale = (
        np.outer(rows, w2_abs) @ np.abs(w1[:d]).T + np.outer(cols, w2_abs) @ np.abs(w1[d:]).T
    ) * (embed > 0)
    w1_scale = np.concatenate((np.outer(embed.T @ rows, w2_abs), np.outer(embed.T @ cols, w2_abs)))
    scaled = [
        (n + h + 2, product_scale),
        (2 * n + h + 2, product_scale.sum(axis=0)),
        (n + 2, w1_scale),
        (n + 2, w2_abs * total),
        (n + 2, (rows @ left + cols @ right).reshape(-1, 1)),
        (n + 2, np.array([total])),
    ]
    return [k * np.finfo(float).eps * scale for k, scale in scaled]


def _pair_run(arrays, g):
    """``pair_logits`` output and the input gradients of ``sum(g * logits)``."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = ad.pair_logits(*tensors)
    sum_all(mul(out, Tensor(g))).backward()
    return out.data, [t.grad for t in tensors]


class TestPairLogits:
    @pytest.mark.parametrize(
        "n,d,h,b1_shift",
        [(1, 3, 3, 0.0), (2, 2, 5, 0.0), (6, 4, 4, 0.0), (7, 3, 6, 0.0), (5, 4, 4, -100.0)],
    )
    def test_equals_the_unfused_composite_exactly(self, n, d, h, b1_shift):
        # The logits are the chain's bits: bias add, ReLU, then the unfused
        # MLP. The gradients come from masked row and column sums instead
        # of the (n*n, h) products, so each is within _pair_bounds.
        rng = np.random.default_rng(17 + n)
        arrays = _pair_mlp(rng, n, d, h, b1_shift)
        g = rng.standard_normal((n, n))
        out, grads = _pair_run(arrays, g)
        logits, expected = pair_logits_chained(*arrays, g)
        np.testing.assert_array_equal(out, logits)
        for grad, want, bound in zip(grads, expected, _pair_bounds(n, expected)):
            assert grad.shape == want.shape
            np.testing.assert_allclose(grad, want, rtol=0, atol=bound)
        if b1_shift < 0:  # every hidden unit dead: only pair_b2 learns
            np.testing.assert_array_equal(out, np.full((n, n), arrays[5][0]))
            for grad in grads[:5]:
                assert not grad.any()
            np.testing.assert_array_equal(grads[5], [g.sum()])

    @given(
        st.integers(1, 12),
        st.integers(1, 6),
        st.integers(1, 8),
        st.sampled_from([-100.0, 0.0, 100.0]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_folded_bias_and_relu_match_the_chain(self, n, d, h, b0_shift, seed):
        # extract_b shifted by -100, 0 or +100 leaves the embedding's ReLU
        # all dead, mixed or all alive.
        rng = np.random.default_rng(seed)
        arrays = _pair_mlp(rng, n, d, h, b0_shift=b0_shift)
        g = rng.standard_normal((n, n))
        out, grads = _pair_run(arrays, g)
        logits, expected = pair_logits_chained(*arrays, g)
        assert out.tobytes() == logits.tobytes()
        bounds = _pair_magnitude_bounds(arrays, g)
        for k in range(6):  # the product, extract_b, then the pair MLP's four
            assert np.all(np.abs(grads[k] - expected[k]) <= bounds[k]), k
        if b0_shift < 0:  # a dead embedding passes back exact zeros
            assert not grads[0].any() and not grads[1].any()

    @given(
        st.integers(1, 8),
        st.integers(1, 4),
        st.integers(1, 6),
        st.floats(-1e4, 1e4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_w2_gradient_survives_opposite_shifts_of_the_halves(self, n, d, h, shift, seed):
        # pair_w2's gradient sums L * s and R * t separately; shifting L by
        # +shift and R by -shift leaves every L[i] + R[j] about where it
        # was but makes both sums large and cancelling. The error stays
        # within the sum-of-magnitudes bound of _pair_magnitude_bounds.
        rng = np.random.default_rng(seed)
        arrays = _pair_mlp(rng, n, d, h)
        product, extract_b, w1 = arrays[:3]
        product[:, -1], extract_b[-1] = 1.0, 0.0  # a constant embedding column carries the shift
        w1[d - 1] += shift
        w1[-1] -= shift
        g = rng.standard_normal((n, n))
        w2 = Tensor(arrays[4], requires_grad=True)
        out = ad.pair_logits(*map(Tensor, arrays[:4]), w2, Tensor(arrays[5]))
        sum_all(mul(out, Tensor(g))).backward()
        expected = pair_logits_chained(*arrays, g)[1][4]
        assert np.all(np.abs(w2.grad - expected) <= _pair_magnitude_bounds(arrays, g)[4])

    @pytest.mark.parametrize("h", [4, 32])
    @pytest.mark.parametrize("n", [1, 2, 7, 96, 150])
    def test_vjp_is_the_broadcast_mask_form_bit_for_bit(self, n, h):
        # Small integers make some L[i] + R[j] exactly 0, where the mask is
        # off. Signed zeros fill a quarter of g; a few NaNs and infinities
        # go into g, into b1 (so into L) and into the product (so into E, L
        # and R), leaving most gradient entries finite. Every bit matches
        # but a NaN's sign and payload, which depend on the order a sum
        # meets two NaNs. The widths are multiples of 4, as the model's
        # extractor_dim is (32 by default, 8 in the tests): OpenBLAS's GEMV
        # sums a matrix's last (rows mod 4) rows in another order, and t
        # takes n matrices of h rows where the broadcast form takes one of
        # n*h rows. Other widths are held to the bounds of the tests above.
        rng = np.random.default_rng(1000 * n + h)
        d = 3
        product = rng.integers(-2, 3, (n, d)).astype(float)
        w1, b1 = rng.integers(-2, 3, (2 * d, h)).astype(float), rng.integers(-2, 3, h).astype(float)
        arrays = [product, rng.integers(-1, 2, d).astype(float), w1, b1]
        arrays += [rng.standard_normal((h, 1)), rng.standard_normal(1)]
        g = rng.standard_normal((n, n))
        zeros = rng.choice(g.size, size=g.size // 4, replace=False)
        g.reshape(-1)[zeros] = np.resize([0.0, -0.0], zeros.size)
        for array, values in [(g, [np.nan, np.inf]), (b1, [np.nan, np.inf, -np.inf]),
                              (product, [np.inf, -np.inf, -0.0])]:
            flat = array.reshape(-1)
            flat[rng.choice(flat.size, size=min(flat.size, len(values)), replace=False)] = values[: flat.size]
        with np.errstate(invalid="ignore", over="ignore"):
            out = ad.pair_logits(*[Tensor(a, requires_grad=True) for a in arrays])
            grads = out._vjp(g)
            expected = pair_logits_vjp_broadcast(*arrays, g)
        for grad, want in zip(grads, expected):
            assert grad.shape == want.shape
            assert np.array_equal(grad, want, equal_nan=True)
            assert np.array_equal(np.signbit(grad) | np.isnan(grad), np.signbit(want) | np.isnan(want))
        if n > 2:  # the specials reach the gradients without swamping them
            assert np.isnan(grads[0]).any() and np.isfinite(grads[0]).any()

    @pytest.mark.parametrize("rows", [5, 16, 32, None])
    @pytest.mark.parametrize("h", [1, 32])
    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 35])
    def test_blocked_forward_is_the_broadcast_formula_bit_for_bit(self, monkeypatch, n, h, rows):
        # A budget of rows * n * h floats makes blocks of that many rows of
        # pairs, 16 at the least: 16 + 1 at n = 17, 16 + 16 + 3 and 32 + 3
        # at n = 35. Blocks of 5 rows would start GEMVs off the 4-row
        # groups. None keeps the default budget, one block at every n here.
        if rows is not None:
            monkeypatch.setattr(ad, "_PAIR_BLOCK_FLOATS", rows * n * h)
        rng = np.random.default_rng(100 * n + h)
        arrays = _pair_mlp(rng, n, 3, h)
        finite = [v for v in _SPECIAL_FLOATS if np.isfinite(v)]
        # Every special value in the product gives some pairs non-finite
        # pre-activations; signed zeros and subnormals in b1 and w2 keep
        # the rest finite.
        for array, values in [(arrays[0], _SPECIAL_FLOATS), (arrays[3], finite), (arrays[4], finite)]:
            flat = array.reshape(-1)
            spots = rng.choice(flat.size, size=max(1, flat.size // 4), replace=False)
            flat[spots] = np.resize(values, spots.size)
        with np.errstate(invalid="ignore", over="ignore"):
            out = ad.pair_logits(*map(Tensor, arrays)).data
            expected = pair_logits_broadcast(*arrays)
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "n,h,budget,blocks",
        [
            (96, 32, None, [16] * 6),  # 16 rows of pairs, 384 KB
            (40, 32, None, [32, 8]),  # 39 rows fit the budget; a multiple of 16 is 32
            (16, 32, None, [16]),
            (35, 32, 1, [16, 16, 3]),  # at least 16 rows, however small the budget
            (17, 1, 1, [16, 1]),
        ],
    )
    def test_each_block_but_the_last_is_a_multiple_of_16_rows_of_pairs(
        self, monkeypatch, n, h, budget, blocks
    ):
        if budget is not None:
            monkeypatch.setattr(ad, "_PAIR_BLOCK_FLOATS", budget)
        arrays = _pair_mlp(np.random.default_rng(n), n, 2, h)
        w2 = Tensor(arrays[4])
        w2.data, products = _product_spy(w2.data)
        ad.pair_logits(*map(Tensor, arrays[:4]), w2, Tensor(arrays[5]))
        assert products == [[(rows * n, h), (h, 1)] for rows in blocks]

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(19)
        arrays = _pair_mlp(rng, 4, 3, 5)
        _check_gradients(lambda ts: sum_all(sigmoid(ad.pair_logits(*ts))), arrays)

    @pytest.mark.parametrize("b0_shift,alive", [(0.0, 0.4), (3.0, 1.0)])
    def test_product_and_bias_gradients_match_finite_differences(self, b0_shift, alive):
        rng = np.random.default_rng(23)
        arrays = _pair_mlp(rng, 5, 3, 4, b0_shift=b0_shift)
        product, extract_b = arrays[:2]
        pre = product + extract_b
        assert (pre > 0).mean() == alive  # a mixed and an all-alive embedding
        assert np.abs(pre).min() > 1e-3  # no difference straddles the ReLU's kink
        rest = [Tensor(a) for a in arrays[2:]]
        _check_gradients(
            lambda ts: sum_all(sigmoid(ad.pair_logits(ts[0], ts[1], *rest))), [product, extract_b]
        )

    @pytest.mark.parametrize(
        "shapes",
        [
            [(3,), (1,), (2, 2), (2,), (2, 1), (1,)],
            [(3, 2), (2,), (2, 2), (2,), (2, 1), (1,)],
            [(3, 1), (1,), (2, 2), (3,), (2, 1), (1,)],
            [(3, 1), (1,), (2, 2), (2,), (2, 2), (1,)],
            [(3, 1), (1,), (2, 2), (2,), (2, 1), (2,)],
            [(3, 1), (2,), (2, 2), (2,), (2, 1), (1,)],
        ],
    )
    def test_shape_mismatch_rejected(self, shapes):
        with pytest.raises(ValueError, match="pair_logits"):
            ad.pair_logits(*[Tensor(np.zeros(s)) for s in shapes])


def _assert_bits(ours, expected, what):
    assert np.shape(ours) == np.shape(expected), what
    assert np.asarray(ours).tobytes() == np.asarray(expected).tobytes(), what


class TestBatchedRelaxation:
    """A mini-batch's logit stack and relaxation against B single-subject calls, bit for bit."""

    @pytest.mark.parametrize("batch", [1, 2, 5, 16])
    def test_stack_holds_the_parts_and_hands_each_its_slice(self, batch):
        rng = np.random.default_rng(batch)
        parts = [Tensor(rng.standard_normal((3, 3)), requires_grad=True) for _ in range(batch)]
        out = ad.stack(parts)
        _assert_bits(out.data, np.stack([part.data for part in parts]), "stack")
        g = rng.standard_normal((batch, 3, 3))
        grads = out._vjp(g)
        assert len(grads) == batch
        for b, grad in enumerate(grads):
            _assert_bits(grad, g[b], f"part {b}")
            assert grad.base is g  # a view, no copy

    @pytest.mark.parametrize("shapes", [[], [(3, 3), (2, 2)], [(2, 3), (3, 2)]])
    def test_stack_rejects_parts_of_other_shapes(self, shapes):
        with pytest.raises(ValueError, match="stack"):
            ad.stack([Tensor(np.zeros(shape)) for shape in shapes])

    def test_stack_gradients_match_finite_differences(self):
        rng = np.random.default_rng(37)
        weights = rng.standard_normal((3, 4, 4))
        parts = [rng.standard_normal((4, 4)) for _ in range(3)]
        _check_gradients(lambda ts: _layer_loss(ad.stack(ts), weights), parts)

    @pytest.mark.parametrize("batch", [1, 2, 5, 16])
    @pytest.mark.parametrize("n", [1, 2, 7, 16, 96])
    @given(tau=st.sampled_from([1e-308, 0.5, 1.0, 3.0]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=4, deadline=None)
    def test_batched_gumbel_relax_is_b_single_subject_calls(self, n, batch, tau, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((batch, n, n)) * 10.0 ** rng.integers(-3, 4, (batch, n, n))
        delta = rng.gumbel(size=(batch, n, n)) - rng.gumbel(size=(batch, n, n))
        g = rng.standard_normal((batch, n, n))
        with np.errstate(over="ignore"):
            out = ad.gumbel_relax(Tensor(logits, requires_grad=True), delta, tau)
            singles = [ad.gumbel_relax(Tensor(logits[b], requires_grad=True), delta[b], tau) for b in range(batch)]
        _assert_bits(out.data, np.stack([single.data for single in singles]), "relaxed")
        _assert_bits(out._vjp(g)[0], np.stack([s._vjp(g[b])[0] for b, s in enumerate(singles)]), "grad")

    def test_batched_gumbel_relax_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        delta, weights = rng.standard_normal((3, 4, 4)), rng.standard_normal((3, 4, 4))
        _check_gradients(
            lambda ts: _layer_loss(ad.gumbel_relax(ts[0], delta, 0.7), weights),
            [rng.standard_normal((3, 4, 4))],
        )


def _layer_loss(out, weights):
    """``sum(weights * out)``: every output entry gets its own upstream gradient."""
    return sum_all(mul(out, Tensor(weights)))


def _layer_run(op, arrays, grad_flags, extra, weights):
    """Output and input gradients of ``_layer_loss(op(*tensors, *extra))``."""
    tensors = [Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, grad_flags)]
    out = op(*tensors, *extra)
    if out.requires_grad:
        _layer_loss(out, weights).backward()
    return out.data, [t.grad for t in tensors]


def _head(parts=1, op=None):
    """``classifier_head`` taking its first ``parts`` tensors as the parts: ``op(*tensors)``."""
    op = op or ad.classifier_head
    return lambda *ts: op(list(ts[:parts]), *ts[parts:])


def _assert_one_logit_per_row(x_shape, out_shape):
    """``classifier_head`` on one part, D = 18: ``out_shape`` holds one logit per row."""
    x, w1, b1, w2, b2 = _head_arrays(np.random.default_rng(3), x_shape, 18)
    out = ad.classifier_head([Tensor(x)], *[Tensor(a) for a in (w1, b1, w2, b2)]).data
    expected = np.maximum(x.reshape(-1, 18) @ w1 + b1, 0.0) @ w2 + b2
    assert out.shape == out_shape
    np.testing.assert_allclose(out.reshape(-1), expected.reshape(-1), rtol=1e-13)


def _assert_bce_mean_matches_composite(batch, shape, upstream):
    """``bce_mean`` on ``batch`` logits of ``shape`` equals its composite in every bit.

    The composite takes each entry's loss and residual in batch order.
    """
    rng = np.random.default_rng(batch + len(shape))
    zs = rng.standard_normal(batch) * 10.0
    zs[: batch // 3] = [0.0, -0.0, 745.0, -1e308, 36.0][: batch // 3]
    labels = rng.integers(0, 2, batch).tolist()

    def run(op):
        logits = Tensor(zs.reshape(shape), requires_grad=True)
        out = op(logits, labels)
        (out if upstream is None else _layer_loss(out, np.array(upstream))).backward()
        return out.data, logits.grad

    (out, grad), (ref_out, ref_grad) = run(ad.bce_mean), run(LAYER_OP_COMPOSITES["bce_mean"])
    _assert_same_bits(out, ref_out)
    assert grad.shape == shape
    _assert_same_bits(grad, ref_grad)


def _assert_layer_matches_composite(name, arrays, grad_flags, extra=(), seed=0, parts=1):
    """The fused op equals its primitive-op composite in every output and gradient bit.

    ``classifier_head`` takes its first ``parts`` arrays as its parts.
    """
    op, composite = getattr(ad, name), LAYER_OP_COMPOSITES[name]
    if name == "classifier_head":
        op, composite = _head(parts, op), _head(parts, composite)
    weights = np.random.default_rng(seed).standard_normal(
        _layer_run(op, arrays, [False] * len(arrays), extra, None)[0].shape
    )
    out, grads = _layer_run(op, arrays, grad_flags, extra, weights)
    ref_out, ref_grads = _layer_run(composite, arrays, grad_flags, extra, weights)
    assert out.shape == ref_out.shape
    np.testing.assert_array_equal(out, ref_out)
    for i, (grad, ref, wanted) in enumerate(zip(grads, ref_grads, grad_flags)):
        if not wanted:
            assert grad is None and ref is None, i
            continue
        assert grad.shape == arrays[i].shape and np.any(grad != 0), i
        np.testing.assert_array_equal(grad, ref, err_msg=f"input {i}")


_FLAGS_3 = [tuple(bool(i >> k & 1) for k in range(3)) for i in range(8)]


def _adjacency(rng, n, soft=False):
    adj = rng.uniform(0.1, 0.9, (n, n)) if soft else (rng.uniform(size=(n, n)) < 0.4) * 1.0
    np.fill_diagonal(adj, 0.0)
    return adj


def _head_arrays(rng, x_shape, d, h=5):
    # a negative shift leaves some hidden units dead and some alive
    return [
        rng.standard_normal(x_shape),
        rng.standard_normal((d, h)) * 0.5,
        rng.standard_normal(h) * 0.5 - 0.2,
        rng.standard_normal((h, 1)),
        rng.standard_normal(1),
    ]


class TestLayerOps:
    """Each fused layer op against its primitive-op composite and finite differences."""

    @pytest.mark.parametrize("soft", [False, True])
    @pytest.mark.parametrize("requires_grad", [False, True])
    @pytest.mark.parametrize("n", [2, 5])
    def test_adjacency_norm_equals_the_composite(self, n, soft, requires_grad):
        adj = _adjacency(np.random.default_rng(n), n, soft)
        _assert_layer_matches_composite("adjacency_norm", [adj], [requires_grad])

    @pytest.mark.parametrize("flags", _FLAGS_3)
    @pytest.mark.parametrize("n,k,m", [(4, 4, 3), (2, 6, 6), (5, 3, 7)])
    def test_graph_conv_equals_the_composite(self, n, k, m, flags):
        rng = np.random.default_rng(n * k * m)
        norm = ad.adjacency_norm(Tensor(_adjacency(rng, n))).data
        arrays = [norm, rng.standard_normal((n, k)), rng.standard_normal((k, m))]
        _assert_layer_matches_composite("graph_conv", arrays, flags, seed=n)

    @pytest.mark.parametrize("requires_grad", [False, True])
    @pytest.mark.parametrize("tau", [0.5, 1.0, 3.0])
    def test_gumbel_relax_equals_the_composite(self, tau, requires_grad):
        rng = np.random.default_rng(int(tau * 10))
        logits = rng.standard_normal((5, 5)) * 3.0
        delta = rng.gumbel(size=(5, 5)) - rng.gumbel(size=(5, 5))
        _assert_layer_matches_composite("gumbel_relax", [logits], [requires_grad], (delta, tau))

    @pytest.mark.parametrize("x_grad", [False, True])
    @pytest.mark.parametrize("x_shape", [(6, 3), (1, 18), (2, 6, 3), (3, 2, 9)])
    def test_classifier_head_equals_the_composite(self, x_shape, x_grad):
        arrays = _head_arrays(np.random.default_rng(len(x_shape) + x_shape[0]), x_shape, 18)
        _assert_layer_matches_composite("classifier_head", arrays, [x_grad] + [True] * 4)

    @pytest.mark.parametrize("part_grads", [(False, False), (True, False), (False, True), (True, True)])
    @pytest.mark.parametrize("x_shape,split", [((6, 3), 2), ((3, 2, 9), 1), ((2, 6, 3), 1)])
    def test_two_part_classifier_head_equals_the_composite(self, x_shape, split, part_grads):
        x, *head = _head_arrays(np.random.default_rng(x_shape[0] + split), x_shape, 18)
        arrays = np.split(x, [split], axis=-2) + head  # the parts join on the node axis
        _assert_layer_matches_composite(
            "classifier_head", arrays, list(part_grads) + [True] * 4, parts=2
        )

    @pytest.mark.parametrize("x_shape,split", [((6, 3), 2), ((3, 2, 9), 1), ((2, 6, 3), 1)])
    def test_two_parts_equal_one_part_of_their_join(self, x_shape, split):
        # A subject's branch outputs give the bits of their joined array.
        x, *head = _head_arrays(np.random.default_rng(11), x_shape, 18)
        weights = np.random.default_rng(12).standard_normal(x_shape[:-2])

        def run(parts):
            tensors = [Tensor(a.copy(), requires_grad=True) for a in parts + head]
            out = _head(len(parts))(*tensors)
            _layer_loss(out, weights).backward()
            return out.data, [t.grad for t in tensors]

        (out, grads), (ref_out, ref_grads) = run(np.split(x, [split], axis=-2)), run([x])
        _assert_same_bits(out, ref_out)
        _assert_same_bits(np.concatenate(grads[:2], axis=-2), ref_grads[0])
        for grad, ref in zip(grads[2:], ref_grads[1:]):
            _assert_same_bits(grad, ref)

    @pytest.mark.parametrize(
        "x_shape,out_shape", [((6, 3), ()), ((1, 18), ()), ((2, 6, 3), (2,)), ((2, 1, 6, 3), (2, 1))]
    )
    def test_classifier_head_gives_one_logit_per_row(self, x_shape, out_shape):
        _assert_one_logit_per_row(x_shape, out_shape)

    @pytest.mark.parametrize("part_grads", [True, False])
    @pytest.mark.parametrize("batch", [1, 2, 3])
    def test_mini_batch_classifier_head_equals_the_composite(self, batch, part_grads):
        # A mini-batch's branch outputs, two (B, 3, 3) stacks, give one row
        # of D = 18 per subject.
        x, *head = _head_arrays(np.random.default_rng(20 + batch), (batch, 6, 3), 18)
        flags = [True, part_grads] + [True] * 4
        _assert_layer_matches_composite(
            "classifier_head", np.split(x, 2, axis=-2) + head, flags, parts=2
        )

    @pytest.mark.parametrize("batch", [2, 3])
    def test_mini_batch_rows_are_the_subjects_in_batch_order(self, batch):
        # Logit b is subject b's, scored alone from its own two parts; the
        # batch's (B x D) product may differ from a one-row one in the last bits.
        x, *head = _head_arrays(np.random.default_rng(30 + batch), (batch, 6, 3), 18)
        parts = np.split(x, 2, axis=-2)
        weights = [Tensor(a) for a in head]
        out = ad.classifier_head([Tensor(p) for p in parts], *weights).data
        alone = [ad.classifier_head([Tensor(p[b]) for p in parts], *weights).data for b in range(batch)]
        assert out.shape == (batch,) and all(a.shape == () for a in alone)
        np.testing.assert_allclose(out, alone, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("upstream", [None, 0.37])
    @pytest.mark.parametrize("batch", [1, 3, 16])
    def test_bce_mean_equals_the_composite(self, batch, upstream):
        _assert_bce_mean_matches_composite(batch, (batch,), upstream)

    @pytest.mark.parametrize("upstream", [None, 0.37])
    @pytest.mark.parametrize("shape", [(), (1, 1)])
    def test_one_label_takes_any_one_entry_logit(self, shape, upstream):
        _assert_bce_mean_matches_composite(1, shape, upstream)

    def test_adjacency_norm_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        weights = rng.standard_normal((4, 4))
        _check_gradients(
            lambda ts: _layer_loss(ad.adjacency_norm(ts[0]), weights), [_adjacency(rng, 4, soft=True)]
        )

    def test_graph_conv_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        arrays = [_adjacency(rng, 4, soft=True), rng.standard_normal((4, 3)), rng.standard_normal((3, 5))]
        weights = rng.standard_normal((4, 5))
        _check_gradients(lambda ts: _layer_loss(ad.graph_conv(*ts), weights), arrays)

    def test_gumbel_relax_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        delta, weights = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
        _check_gradients(
            lambda ts: _layer_loss(ad.gumbel_relax(ts[0], delta, 0.7), weights),
            [rng.standard_normal((4, 4))],
        )

    @pytest.mark.parametrize("x_shape", [(6, 3), (3, 2, 9)])
    def test_classifier_head_gradients_match_finite_differences(self, x_shape):
        rng = np.random.default_rng(8)
        arrays = _head_arrays(rng, x_shape, 18)
        weights = rng.standard_normal(x_shape[:-2])
        _check_gradients(lambda ts: _layer_loss(_head()(*ts), weights), arrays)

    @pytest.mark.parametrize("x_shape", [(6, 3), (3, 2, 9)])
    def test_two_part_classifier_head_gradients_match_finite_differences(self, x_shape):
        rng = np.random.default_rng(8)
        x, *head = _head_arrays(rng, x_shape, 18)
        weights = rng.standard_normal(x_shape[:-2])
        parts = np.split(x, [1], axis=-2)
        _check_gradients(lambda ts: _layer_loss(_head(2)(*ts), weights), parts + head)

    def test_layer_weights_share_one_stacked_product(self, monkeypatch):
        # Three uses of each weight; backward stacks each weight's factors
        # and forms its gradient with one product.
        stacked = []
        product = ad._stacked_product
        monkeypatch.setattr(
            ad, "_stacked_product", lambda parts: stacked.append(len(parts)) or product(parts)
        )
        rng = np.random.default_rng(9)
        w = Tensor(rng.standard_normal((6, 6)), requires_grad=True)
        head = [Tensor(a, requires_grad=True) for a in _head_arrays(rng, (2, 6), 12)[1:]]
        loss = None
        for _ in range(3):
            norm = ad.adjacency_norm(Tensor(_adjacency(rng, 2)))
            hidden = ad.graph_conv(norm, Tensor(rng.standard_normal((2, 6))), w)
            term = ad.classifier_head([hidden], *head)
            loss = term if loss is None else add(loss, term)
        loss.backward()
        assert stacked == [3, 3, 3]  # the graph_conv weight, then the head's w1 and w2

    @pytest.mark.parametrize(
        "name,shapes",
        [
            ("adjacency_norm", [(2, 3)]),
            ("adjacency_norm", [(3,)]),
            ("graph_conv", [(3, 3), (2, 4), (4, 2)]),
            ("graph_conv", [(3, 3), (3, 4), (3, 2)]),
            ("graph_conv", [(3, 2), (3, 4), (4, 2)]),
            ("classifier_head", [[(6, 3)], (17, 5), (5,), (5, 1), (1,)]),
            ("classifier_head", [[(6, 3)], (18, 5), (4,), (5, 1), (1,)]),
            ("classifier_head", [[(6, 3)], (18, 5), (5,), (5, 2), (1,)]),
            ("classifier_head", [[(6, 3)], (18, 5), (5,), (5, 1), (2,)]),
            ("classifier_head", [[()], (1, 5), (5,), (5, 1), (1,)]),
            ("classifier_head", [[], (18, 5), (5,), (5, 1), (1,)]),
            ("classifier_head", [[(2, 3), (4, 4)], (18, 5), (5,), (5, 1), (1,)]),
            ("classifier_head", [[(2, 3), (4, 3)], (17, 5), (5,), (5, 1), (1,)]),
            ("classifier_head", [[(), (18,)], (18, 5), (5,), (5, 1), (1,)]),
            ("classifier_head", [[(3, 3), (2, 3)], (6, 5), (5,), (5, 1), (1,)]),
            ("classifier_head", [[(4, 3)], (2, 5), (5,), (5, 1), (1,)]),
            ("classifier_head", [[(4, 3)], (6, 5), (5,), (5, 1), (1,)]),
            ("classifier_head", [[(4, 3)], (0, 5), (5,), (5, 1), (1,)]),
            ("adjacency_norm", [(2, 3, 2)]),
            ("adjacency_norm", [(2, 2, 3, 3)]),
            ("graph_conv", [(2, 3, 3), (3, 3, 4), (4, 2)]),
            ("graph_conv", [(2, 3, 3), (3, 4), (4, 2)]),
            ("graph_conv", [(3, 3), (2, 3, 4), (4, 2)]),
            ("graph_conv", [(2, 2, 3, 3), (2, 2, 3, 4), (4, 2)]),
            ("classifier_head", [[(2, 3, 3), (2, 3, 4)], (18, 5), (5,), (5, 1), (1,)]),
            ("classifier_head", [[(2, 3, 3), (3, 3, 3)], (18, 5), (5,), (5, 1), (1,)]),
        ],
    )
    def test_shape_mismatch_rejected(self, name, shapes):
        args = [
            [Tensor(np.zeros(p)) for p in s] if isinstance(s, list) else Tensor(np.zeros(s))
            for s in shapes
        ]
        with pytest.raises(ValueError, match=r"incompatible shapes|must be square"):
            getattr(ad, name)(*args)

    @pytest.mark.parametrize(
        "parts,d",
        [
            ([(4, 3)], 6),  # too many entries for one row
            ([(4, 18)], 18),  # a flat (B, D) part: its last two axes are not one row
            ([(3, 3), (2, 3)], 6),  # half a subject short
            ([(2, 6, 3)], 36),  # a row would span two subjects
            ([(18,)], 18),
            ([(4, 3)], 0),
        ],
    )
    def test_the_last_two_axes_must_make_one_row(self, parts, d):
        head = [Tensor(np.zeros(s)) for s in [(d, 5), (5,), (5, 1), (1,)]]
        with pytest.raises(ValueError, match="incompatible shapes"):
            ad.classifier_head([Tensor(np.zeros(p)) for p in parts], *head)

    @pytest.mark.parametrize(
        "logits,delta",
        [((3, 3), (3, 2)), ((2, 3, 3), (3, 3)), ((3, 3), (2, 3, 3)), ((2, 3, 3), (3, 3, 3)),
         ((2, 3, 2), (2, 3, 2)), ((2, 2, 3, 3), (2, 2, 3, 3)), ((3,), (3,))],
    )
    def test_gumbel_relax_rejects_mismatched_noise(self, logits, delta):
        with pytest.raises(ValueError, match="gumbel_relax"):
            ad.gumbel_relax(Tensor(np.zeros(logits)), np.zeros(delta), 1.0)


def _assert_close(ours, ref, what=""):
    """Equal to 1e-12 of the reference's largest magnitude."""
    scale = float(np.abs(ref).max()) if np.size(ref) else 0.0
    np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-12 * scale, err_msg=what)


def _single_subject_calls(composite, per_subject, shared, flags, weights):
    """``composite`` once per subject on its slice of each per-subject array, one loss for all.

    The loss is ``sum_b _layer_loss(out_b, weights[b])``. Returns the
    outputs stacked over subjects and the gradients: each per-subject
    input's stacked, each shared input's summed over the B calls.
    """
    count = len(per_subject)
    shared_ts = [Tensor(a.copy(), requires_grad=f) for a, f in zip(shared, flags[count:])]
    subjects, outs, loss = [], [], None
    for b, weight in enumerate(weights):
        ts = [Tensor(a[b].copy(), requires_grad=f) for a, f in zip(per_subject, flags)]
        out = composite(*ts, *shared_ts)
        term = _layer_loss(out, weight)
        loss = term if loss is None else add(loss, term)
        subjects.append(ts)
        outs.append(out.data)
    if loss.requires_grad:
        loss.backward()
    grads = [np.stack([ts[i].grad for ts in subjects]) if f else None for i, f in enumerate(flags[:count])]
    return np.stack(outs), grads + [t.grad for t in shared_ts]


def _assert_matches_single_calls(ours, ref, flags):
    (out, grads), (ref_out, ref_grads) = ours, ref
    assert out.shape == ref_out.shape
    _assert_close(out, ref_out)
    for i, (grad, ref_grad, wanted) in enumerate(zip(grads, ref_grads, flags)):
        if not wanted:
            assert grad is None and ref_grad is None, i
            continue
        assert np.any(grad != 0), i
        _assert_close(grad, ref_grad, f"input {i}")


class TestStackedLayerOps:
    """A mini-batch's layer ops on (B, n, ·) stacks against B single-subject calls of their composites."""

    @pytest.mark.parametrize("requires_grad", [False, True])
    @pytest.mark.parametrize("batch,n", [(1, 5), (3, 2), (4, 7)])
    def test_stacked_adjacency_norm_equals_single_subject_composites(self, batch, n, requires_grad):
        rng = np.random.default_rng(batch * 10 + n)
        graphs = np.stack([_adjacency(rng, n, soft=b % 2 == 0) for b in range(batch)])
        weights = rng.standard_normal((batch, n, n))
        ours = _layer_run(ad.adjacency_norm, [graphs], [requires_grad], (), weights)
        composite = LAYER_OP_COMPOSITES["adjacency_norm"]
        ref = _single_subject_calls(composite, [graphs], [], [requires_grad], weights)
        _assert_matches_single_calls(ours, ref, [requires_grad])

    @pytest.mark.parametrize("flags", _FLAGS_3[1:])
    @pytest.mark.parametrize("batch,n,k,m", [(1, 4, 4, 8), (3, 5, 3, 8), (4, 6, 9, 12)])
    def test_stacked_graph_conv_equals_single_subject_composites(self, batch, n, k, m, flags):
        rng = np.random.default_rng(batch * n * k * m)
        norm = ad.adjacency_norm(Tensor(np.stack([_adjacency(rng, n, soft=True) for _ in range(batch)]))).data
        features, weight = rng.standard_normal((batch, n, k)), rng.standard_normal((k, m))
        weights = rng.standard_normal((batch, n, m))
        ours = _layer_run(ad.graph_conv, [norm, features, weight], flags, (), weights)
        composite = LAYER_OP_COMPOSITES["graph_conv"]
        ref = _single_subject_calls(composite, [norm, features], [weight], flags, weights)
        _assert_matches_single_calls(ours, ref, flags)

    @pytest.mark.parametrize("part_grads", [(True, True), (False, True), (False, False)])
    @pytest.mark.parametrize("batch,n,f", [(1, 3, 8), (3, 4, 8), (5, 2, 9)])
    def test_stacked_classifier_head_equals_single_subject_composites(self, batch, n, f, part_grads):
        # The two branches' (B, n, f) outputs join on the node axis: row b
        # is subject b's two (n, f) outputs, thresholded first.
        rng = np.random.default_rng(batch * n * f)
        thresholded, sampled = rng.standard_normal((2, batch, n, f))
        head = _head_arrays(rng, (1,), 2 * n * f)[1:]
        weights = rng.standard_normal(batch)
        flags = list(part_grads) + [True] * 4
        ours = _layer_run(_head(2), [thresholded, sampled] + head, flags, (), weights)
        composite = _head(2, LAYER_OP_COMPOSITES["classifier_head"])
        ref = _single_subject_calls(composite, [thresholded, sampled], head, flags, weights)
        _assert_matches_single_calls(ours, ref, flags)

    def test_stacked_adjacency_norm_gradients_match_finite_differences(self):
        rng = np.random.default_rng(16)
        weights = rng.standard_normal((3, 4, 4))
        graphs = np.stack([_adjacency(rng, 4, soft=True) for _ in range(3)])
        _check_gradients(lambda ts: _layer_loss(ad.adjacency_norm(ts[0]), weights), [graphs])

    def test_stacked_graph_conv_gradients_match_finite_differences(self):
        rng = np.random.default_rng(17)
        norm = np.stack([_adjacency(rng, 4, soft=True) for _ in range(2)])
        arrays = [norm, rng.standard_normal((2, 4, 3)), rng.standard_normal((3, 8))]
        weights = rng.standard_normal((2, 4, 8))
        _check_gradients(lambda ts: _layer_loss(ad.graph_conv(*ts), weights), arrays)

    def test_stacked_classifier_head_gradients_match_finite_differences(self):
        rng = np.random.default_rng(18)
        parts = list(rng.standard_normal((2, 3, 2, 8)))  # two branches, B = 3, n = 2, f = 8
        head = _head_arrays(rng, (1,), 2 * 2 * 8)[1:]
        weights = rng.standard_normal(3)
        _check_gradients(lambda ts: _layer_loss(_head(2)(*ts), weights), parts + head)


class TestBceWithLogits:
    """The per-subject reference loss; ``TestBceMean`` reruns each check on ``ad.bce_mean``."""

    @staticmethod
    def loss(logit, label):
        return bce_with_logits(logit, label)

    def test_logit_zero(self):
        for label in (0, 1):
            loss = self.loss(Tensor(np.array(0.0)), label)
            assert abs(float(loss.data) - np.log(2.0)) < 1e-15

    def test_confident_correct_is_tiny(self):
        loss = self.loss(Tensor(np.array(100.0)), 1)
        assert 0.0 <= float(loss.data) < 1e-20

    def test_no_overflow_at_extreme_logits(self):
        for z, y in ((1000.0, 0), (-1000.0, 1), (1000.0, 1), (-1000.0, 0)):
            loss = float(self.loss(Tensor(np.array(z)), y).data)
            assert np.isfinite(loss)

    def test_matches_naive_form_at_moderate_logits(self):
        # Beyond |z| ~ 15 the naive form itself loses precision in 1 - sigmoid.
        rng = np.random.default_rng(29)
        for _ in range(50):
            z = float(rng.uniform(-15.0, 15.0))
            y = int(rng.integers(0, 2))
            stable = float(self.loss(Tensor(np.array(z)), y).data)
            s = 1.0 / (1.0 + np.exp(-z))
            naive = -(y * np.log(s) + (1 - y) * np.log1p(-s))
            assert abs(stable - naive) <= 1e-9 * max(1.0, abs(naive))

    def test_backward_is_sigmoid_minus_label(self):
        z = Tensor(np.array(0.3), requires_grad=True)
        self.loss(z, 1).backward()
        expected = 1.0 / (1.0 + np.exp(-0.3)) - 1.0
        assert abs(float(z.grad) - expected) < 1e-15

    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
    def test_gradient_is_the_masked_logistic_minus_label(self, shape):
        for z in (0.0, -0.0, 5e-324, -1e-300, 0.3, -36.0, 745.0, -1e308, 1e308):
            for y in (0, 1):
                logit = Tensor(np.full(shape, z), requires_grad=True)
                self.loss(logit, y).backward()
                assert logit.grad.shape == shape
                expected = np.full(shape, logistic_masked(np.asarray(z)) - y)
                _assert_same_bits(logit.grad, expected)

    def test_rejects_non_binary_label(self):
        with pytest.raises(ValueError, match="label"):
            self.loss(Tensor(np.array(0.0)), 2)

    def test_rejects_a_logit_that_is_not_scalar(self):
        with pytest.raises(ValueError, match="scalar"):
            self.loss(Tensor(np.zeros(2)), 1)

    def test_gradient(self):
        _check_gradients(lambda ts: self.loss(reshape(ts[0], ()), 1), [np.array([0.7])])


class TestBceMean(TestBceWithLogits):
    """``ad.bce_mean`` on one subject passes every check above; a batch gets its mean."""

    @staticmethod
    def loss(logit, label):
        return ad.bce_mean(logit, [label])

    @pytest.mark.parametrize(
        "logits,labels",
        [([], []), ([0.1, 0.2], [1]), ([0.1], [1, 0]), (0.1, [1, 0]), ([[0.1], [0.2]], [1, 0])],
    )
    def test_rejects_an_empty_batch_and_mismatched_lengths(self, logits, labels):
        # One logit per label: a (B,) vector, or any one-entry shape for B = 1.
        with pytest.raises(ValueError, match="one label per logit"):
            ad.bce_mean(Tensor(np.array(logits)), labels)

    def test_batch_value_is_the_mean_and_gradients_are_residuals_over_b(self):
        zs, ys = [0.3, -2.0, 5.0, 0.0], [1, 0, 0, 1]
        logits = Tensor(np.array(zs), requires_grad=True)
        loss = ad.bce_mean(logits, ys)
        loss.backward()
        expected = [ad.bce_value(z, y) for z, y in zip(zs, ys)]
        assert abs(float(loss.data) - sum(expected) / 4) < 1e-15
        assert logits.grad.shape == (4,)
        for grad, z, y in zip(logits.grad, zs, ys):
            assert abs(grad - (1.0 / (1.0 + np.exp(-z)) - y) / 4) < 1e-15

    def test_batch_gradient(self):
        _check_gradients(lambda ts: ad.bce_mean(ts[0], [0, 1, 1]), [np.array([0.7, -1.2, 2.5])])

    @given(st.integers(1, 39), st.integers(0, 2**32 - 1), st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_logit_loop_bit_for_bit(self, batch, seed, specials, data):
        # The vectorized losses and residuals are the loop's, infinities
        # and signed zeros included, and a label that is not 0 or 1 fails
        # alike. A NaN stays a NaN; its sign is the C compiler's choice of
        # operand order when two NaNs meet, so it is not compared.
        rng = np.random.default_rng(seed)
        zs = rng.standard_normal(batch) * 10.0 ** rng.uniform(-3.0, 2.9, batch)
        if specials:
            spots = rng.choice(batch, size=max(1, batch // 4), replace=False)
            zs[spots] = np.resize([np.nan, np.inf, -np.inf, 1e308, 0.0, -0.0, 745.0], spots.size)
        good = st.sampled_from([0, 1, 0.0, 1.0, True, False, np.int64(1)])
        bad = st.sampled_from([2, -1, 0.5, np.nan, np.inf, "1.5"])
        labels = data.draw(st.lists(good | bad if data.draw(st.booleans()) else good,
                                    min_size=len(zs), max_size=len(zs)))
        upstream = data.draw(st.sampled_from([1.0, -0.37, 0.0]))

        def run(op):
            logits = Tensor(np.array(zs), requires_grad=True)
            try:
                with np.errstate(all="ignore"):
                    out = op(logits, labels)
            except ValueError as exc:
                return str(exc)
            values = np.concatenate([out.data.reshape(1), out._vjp(np.asarray(upstream))[0]])
            return np.where(np.isnan(values), np.nan, values).tobytes()

        assert run(ad.bce_mean) == run(bce_mean_loop)

    def test_makes_one_tape_node_for_the_batch(self):
        logits = relu(Tensor(np.array([0.5, 1.5, 2.5]), requires_grad=True))
        loss = ad.bce_mean(logits, [0, 1, 0])
        assert loss._parents == (logits,)
        assert sum(node._vjp is not None for node in ad._topo_order(loss)) == 2


class TestBackwardContract:
    def test_sum_gives_all_ones(self):
        w = Tensor(np.zeros((3, 4)), requires_grad=True)
        sum_all(w).backward()
        np.testing.assert_array_equal(w.grad, np.ones((3, 4)))

    def test_two_calls_double_the_gradient(self):
        w = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        loss = sum_all(relu(w))
        loss.backward()
        first = w.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(w.grad, 2.0 * first)

    def test_non_scalar_rejected(self):
        w = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            relu(w).backward()

    def test_constant_never_accumulates(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        c = Tensor(np.full((2, 2), 3.0))
        sum_all(mul(w, c)).backward()
        assert c.grad is None
        np.testing.assert_array_equal(w.grad, c.data)

    def test_diamond_graph_accumulates_once_per_path(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        y = add(x, x)  # dy/dx = 2
        y.backward()
        assert float(x.grad) == 2.0

    def test_only_leaves_hold_grad(self):
        """After a backward through every layer op, only the leaves hold ``grad``."""
        rng = np.random.default_rng(8)
        n, t, d, h, f, hc = 4, 6, 3, 5, 2, 3

        def param(*shape):
            return Tensor(rng.standard_normal(shape) * 0.5, requires_grad=True)

        scorer = [param(t, d), param(d), param(2 * d, d), param(d), param(d, 1), param(1)]
        gcn = [param(n, h), param(h, f), param(n, h), param(h, f)]
        head = [param(2 * n * f, hc), param(hc), param(hc, 1), param(1)]
        features = Tensor(rng.standard_normal((n, n)))
        product = ad.matmul(Tensor(rng.standard_normal((n, t))), scorer[0])
        sampled = ad.gumbel_relax(ad.pair_logits(product, *scorer[1:]), np.zeros((n, n)), 1.0)
        branches = []
        for adjacency, (w0, w1) in [(sampled, gcn[:2]), (Tensor(np.ones((n, n))), gcn[2:])]:
            norm = ad.adjacency_norm(adjacency)
            branches.append(ad.graph_conv(norm, ad.graph_conv(norm, features, w0), w1))
        loss = bce_with_logits(ad.classifier_head(branches, *head), 1)
        loss.backward()
        tape = ad._topo_order(loss)
        leaves = [node for node in tape if node._vjp is None]
        assert len(tape) - len(leaves) == 10  # every op above but the constant branch's norm
        assert [id(p) for p in leaves] == [id(p) for p in tape if p.grad is not None]
        assert {id(p) for p in leaves} == {id(p) for p in scorer + gcn + head}


def _shared_weight_loss(inputs, weight):
    """sum_i sum(sigmoid(x_i @ w)) with one weight in every product."""
    loss = None
    for x in inputs:
        term = sum_all(sigmoid(ad.matmul(x, weight)))
        loss = term if loss is None else add(loss, term)
    return loss


class TestFactoredWeightGradients:
    """Every use's weight gradient is stacked and formed in one product."""

    def test_shared_weight_matches_per_product_sum(self):
        rng = np.random.default_rng(53)
        xs = [rng.standard_normal((k, 4)) for k in (1, 3, 2)]
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        _shared_weight_loss([Tensor(x) for x in xs], w).backward()
        expected = np.zeros((4, 5))
        for x in xs:
            s = 1.0 / (1.0 + np.exp(-(x @ w.data)))
            expected += x.T @ (s * (1.0 - s))
        np.testing.assert_allclose(w.grad, expected, rtol=1e-12, atol=1e-15)

    def test_shared_weight_matches_finite_differences(self):
        rng = np.random.default_rng(59)
        arrays = [rng.standard_normal((k, 3)) for k in (2, 1, 4)] + [
            rng.standard_normal((3, 2))
        ]
        _check_gradients(lambda ts: _shared_weight_loss(ts[:3], ts[3]), arrays)

    def test_weight_in_matmul_and_elementwise_op(self):
        rng = np.random.default_rng(61)
        # w takes stacked factors from the product and a flow from mul
        x, w = rng.standard_normal((1, 3)), rng.standard_normal((3, 3))

        def build(ts):
            through_product = sum_all(sigmoid(ad.matmul(ts[0], ts[1])))
            return add(through_product, sum_all(mul(ts[1], ts[1])))

        _check_gradients(build, [x, w])

    def test_two_calls_double_a_factored_gradient(self):
        rng = np.random.default_rng(67)
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        xs = [Tensor(rng.standard_normal((1, 4))) for _ in range(3)]
        loss = _shared_weight_loss(xs, w)
        loss.backward()
        first = w.grad.copy()
        loss.backward()
        np.testing.assert_allclose(w.grad, 2.0 * first, rtol=1e-15)

    def test_zeroed_leaf_takes_the_next_stacked_gradient_in_the_same_array(self):
        rng = np.random.default_rng(79)
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        first_inputs, second_inputs = (
            [Tensor(rng.standard_normal((1, 4))) for _ in range(3)] for _ in range(2)
        )
        _shared_weight_loss(first_inputs, w).backward()
        kept = w.grad
        w.grad = None
        _shared_weight_loss(second_inputs, w).backward()
        fresh = Tensor(w.data, requires_grad=True)
        _shared_weight_loss(second_inputs, fresh).backward()
        assert w.grad is kept
        assert w.grad.tobytes() == fresh.grad.tobytes()

    def test_leaf_with_a_kept_array_and_a_per_use_flow_matches_finite_differences(self):
        # The first pass leaves w with a kept stacked-gradient array; the
        # second feeds w a per-use flow besides its stacked factors, so
        # the product must be added, not written into that array.
        rng = np.random.default_rng(83)
        x, w0 = rng.standard_normal((1, 3)), rng.standard_normal((3, 3))

        def build(ts):
            through_product = sum_all(sigmoid(ad.matmul(ts[0], ts[1])))
            return add(through_product, sum_all(mul(ts[1], ts[1])))

        w = Tensor(w0, requires_grad=True)
        sum_all(sigmoid(ad.matmul(Tensor(x), w))).backward()
        kept = w.grad
        w.grad = None
        build([Tensor(x), w]).backward()
        numeric = finite_difference_gradient(
            lambda arrs: float(build([Tensor(a) for a in arrs]).data), [x.copy(), w0.copy()], 1
        )
        assert w.grad is not kept
        assert max_rel_error(w.grad, numeric) < GRAD_TOL

    def test_intermediate_weight_passes_its_product_on_and_keeps_none(self):
        # relu(v) is a weight with a VJP: its stacked product is a flow
        # into that VJP, not a gradient to keep for the next pass.
        rng = np.random.default_rng(97)
        xs = [rng.standard_normal((k, 3)) for k in (2, 1)]
        v = np.abs(rng.standard_normal((3, 4))) + 0.5  # away from the ReLU's kink
        tensors = [Tensor(a, requires_grad=True) for a in xs + [v]]
        weight = relu(tensors[2])
        _shared_weight_loss(tensors[:2], weight).backward()
        assert weight._stacked is None and weight.grad is None
        _check_gradients(lambda ts: _shared_weight_loss(ts[:2], relu(ts[2])), xs + [v])

    def test_constant_left_operand_product_never_formed(self):
        rng = np.random.default_rng(71)
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w.data, products = _product_spy(w.data)
        sum_all(ad.matmul(Tensor(rng.standard_normal((2, 4))), w)).backward()
        # Only the forward product uses w; g @ w.T would be the constant's gradient.
        assert products == [[(2, 4), (4, 3)]]
        assert w.grad.shape == (4, 3)

    def test_constant_right_operand_product_never_formed(self):
        rng = np.random.default_rng(73)
        hidden = relu(Tensor(rng.standard_normal((2, 4)), requires_grad=True))
        hidden.data, products = _product_spy(hidden.data)
        constant = Tensor(rng.standard_normal((4, 3)))
        sum_all(ad.matmul(hidden, constant)).backward()
        # hidden.T @ g would be the constant's gradient.
        assert products == [[(2, 4), (4, 3)]]
        assert constant.grad is None

    @pytest.mark.parametrize(
        "name,shapes,constant",
        [
            ("matmul", [(3, 4), (4, 2)], [1]),
            ("graph_conv", [(3, 3), (3, 4), (4, 2)], [2]),
            ("classifier_head", [(3, 2, 2), (4, 5), (5,), (5, 1), (1,)], [1, 3]),
        ],
    )
    def test_constant_weight_gradient_never_formed(self, monkeypatch, name, shapes, constant):
        # Every VJP hands back a weight's factors whether or not the weight
        # needs a gradient; backward must drop a constant's before any
        # product. Each input is a view that records the shape of every
        # product formed from it or from what was computed from it; no
        # product here other than a weight's gradient has a weight's shape.
        formed, stacked = [], []

        class Spy(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if "out" in kwargs:
                    kwargs["out"] = tuple(np.asarray(x) for x in kwargs["out"])
                result = np.asarray(getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs))
                if ufunc is np.matmul:
                    formed.append(result.shape)
                return result.view(Spy)

        product = ad._stacked_product
        monkeypatch.setattr(
            ad, "_stacked_product", lambda parts, out=None: stacked.append(parts) or product(parts)
        )
        rng = np.random.default_rng(89)
        tensors = [Tensor(0, requires_grad=i not in constant) for i in range(len(shapes))]
        for t, shape in zip(tensors, shapes):
            t.data = rng.uniform(0.5, 1.5, shape).view(Spy)  # every ReLU alive
        op = _head() if name == "classifier_head" else getattr(ad, name)
        sum_all(op(*tensors)).backward()
        assert stacked == []
        assert not {shapes[i] for i in constant} & set(formed)
        assert [t.grad is None for t in tensors] == [i in constant for i in range(len(shapes))]


class TestRemainingOps:
    """The reference primitives the composites and probes chain."""

    def test_bias_add_gradient_row_sums(self):
        rng = np.random.default_rng(31)
        m, b = rng.standard_normal((4, 3)), rng.standard_normal(3)
        _check_gradients(lambda ts: sum_all(add(ts[0], ts[1])), [m, b])

    @pytest.mark.parametrize(
        "build",
        [
            lambda ts: sum_all(add(ts[0], ts[1])),
            lambda ts: sum_all(mul(ts[0], ts[1])),
        ],
    )
    def test_binary_elementwise_gradients(self, build):
        rng = np.random.default_rng(37)
        _check_gradients(build, [rng.standard_normal((3, 3)) for _ in range(2)])

    @pytest.mark.parametrize(
        "build,positive",
        [
            (lambda ts: sum_all(transpose(ts[0])), False),
            (lambda ts: sum_all(reshape(ts[0], (6, 2))), False),
            (lambda ts: sum_all(row_sum(ts[0])), False),
            (lambda ts: sum_all(sigmoid(ts[0])), False),
            (lambda ts: sum_all(scale(ts[0], -2.5)), False),
            (lambda ts: sum_all(power(ts[0], -0.5)), True),
            (lambda ts: sum_all(power(ts[0], 1.5)), True),
        ],
    )
    def test_unary_op_gradients(self, build, positive):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((3, 4))
        if positive:
            x = np.abs(x) + 0.5
        _check_gradients(build, [x])

    def test_row_sum_shape(self):
        out = row_sum(Tensor(np.ones((3, 5))))
        assert out.shape == (3, 1)
        np.testing.assert_array_equal(out.data, np.full((3, 1), 5.0))


class TestEngineInvariants:
    def test_ops_do_not_mutate_inputs(self):
        rng = np.random.default_rng(43)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        ta, tb = Tensor(a.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)
        pos = Tensor(np.abs(a.copy()) + 1.0, requires_grad=True)
        pos_backup = pos.data.copy()
        mlp = [Tensor(x, requires_grad=True) for x in _pair_mlp(rng, 3, 3, 3)[1:]]
        head = [Tensor(x, requires_grad=True) for x in _head_arrays(rng, (3, 3), 9)[1:]]
        joined_head = [Tensor(x, requires_grad=True) for x in _head_arrays(rng, (6, 3), 18)[1:]]
        params = mlp + head + joined_head
        backups = [t.data.copy() for t in params]
        for out in [
            ad.matmul(ta, tb),
            ad.pair_logits(ta, *mlp),
            ad.adjacency_norm(pos),
            ad.graph_conv(pos, ta, tb),
            ad.gumbel_relax(ta, b, 1.0),
            ad.classifier_head([ta], *head),
            ad.classifier_head([ta, tb], *joined_head),
            ad.bce_mean(ad.classifier_head([tb], *head), [1]),
        ]:
            out.data[...] = -999.0  # mutating outputs must not leak into inputs
        sum_all(ad.pair_logits(ta, *mlp)).backward()  # its VJP works in place
        hidden = ad.graph_conv(ad.adjacency_norm(pos), ta, tb)  # so do these
        ad.bce_mean(ad.classifier_head([hidden, tb], *joined_head), [0]).backward()
        np.testing.assert_array_equal(ta.data, a)
        np.testing.assert_array_equal(tb.data, b)
        np.testing.assert_array_equal(pos.data, pos_backup)
        for t, backup in zip(params, backups):
            np.testing.assert_array_equal(t.data, backup)

    def test_tensor_returning_functions_are_exactly_the_ops(self):
        # The benchmark's tracer counts, times and tags as an op every
        # public function of the module annotated to return a Tensor.
        ops = {
            name
            for name, fn in vars(ad).items()
            if inspect.isfunction(fn)
            and not name.startswith("_")
            and fn.__module__ == ad.__name__
            and inspect.signature(fn).return_annotation in ("Tensor", Tensor)
        }
        assert ops == {
            "matmul", "pair_logits", "stack", "adjacency_norm", "graph_conv", "gumbel_relax",
            "classifier_head", "bce_mean",
        }
        # ... and the engine ships only what the model runs: each op has a caller.
        callers = "".join(
            path.read_text()
            for path in pathlib.Path(ad.__file__).parent.glob("*.py")
            if path.name != "autodiff.py"
        )
        assert {name for name in ops if not re.search(rf"\bad\.{name}\(", callers)} == set()

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(47)
        a = rng.standard_normal((4, 4))

        def run():
            t = Tensor(a, requires_grad=True)
            return sum_all(sigmoid(ad.matmul(relu(t), transpose(t)))).data

        assert float(run()) == float(run())

    def test_requires_grad_false_builds_no_tape(self):
        out = ad.matmul(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))
        assert not out.requires_grad and out._vjp is None
