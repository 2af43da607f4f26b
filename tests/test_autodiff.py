"""Unit and gradient checks for the reverse-mode engine."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dualgraph import autodiff as ad
from dualgraph.autodiff import Tensor

from oracles import (
    LAYER_OP_COMPOSITES,
    finite_difference_gradient,
    logistic_masked,
    max_rel_error,
    pair_logits_unfused,
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
    """ReLU forward equals ``where(x > 0, x, 0)`` in every bit, signed zeros included."""
    with np.errstate(invalid="ignore"):
        expected = np.where(x > 0, x, 0.0)
    for requires_grad in (False, True):
        out = ad.relu(Tensor(x, requires_grad=requires_grad)).data
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
        _check_gradients(lambda ts: ad.sum_all(ad.matmul(ts[0], ts[1])), [a, b])


class TestRelu:
    def test_sign_cases(self):
        out = ad.relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((4, 4)))
        once = ad.relu(x)
        np.testing.assert_array_equal(ad.relu(once).data, once.data)

    def test_gradient_away_from_kink(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 5))
        x[np.abs(x) < 1e-3] = 0.5
        _check_gradients(lambda ts: ad.sum_all(ad.relu(ts[0])), [x])

    def test_zero_input_gets_zero_gradient(self):
        x = Tensor(np.array([0.0, 1.0]), requires_grad=True)
        ad.sum_all(ad.relu(x)).backward()
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
    def test_zero_dimensional_input(self):
        for v in _LOGISTIC_SPECIALS:
            if np.isnan(v):
                continue
            x = Tensor(np.asarray(v), requires_grad=True)
            out = ad.sigmoid(x)
            _assert_same_bits(out.data, logistic_masked(np.asarray(v)))
            out.backward()
            s = float(out.data)
            assert x.grad.shape == () and float(x.grad) == s * (1.0 - s)

    def test_symmetry_point(self):
        assert ad.sigmoid(Tensor(np.array(0.0))).data == 0.5

    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_identity(self, x):
        s1 = float(ad.sigmoid(Tensor(np.array(x))).data)
        s2 = float(ad.sigmoid(Tensor(np.array(-x))).data)
        assert abs(s1 + s2 - 1.0) <= 1e-12

    def test_extreme_inputs_are_finite(self):
        out = ad.sigmoid(Tensor(np.array([-1000.0, 1000.0])))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(13)
        _check_gradients(
            lambda ts: ad.sum_all(ad.sigmoid(ts[0])), [rng.standard_normal((4, 3))]
        )


class TestConcat:
    def test_vector_definition(self):
        out = ad.concat(Tensor(np.array([1.0, 2.0])), Tensor(np.array([3.0])))
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_split_round_trip(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((4, 3))
        joined = ad.concat(Tensor(a), Tensor(b)).data
        np.testing.assert_array_equal(joined[:2], a)
        np.testing.assert_array_equal(joined[2:], b)

    def test_gradient_is_ones_on_both_inputs(self):
        a = Tensor(np.zeros((2, 2)), requires_grad=True)
        b = Tensor(np.zeros((3, 2)), requires_grad=True)
        ad.sum_all(ad.concat(a, b)).backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 2)))
        np.testing.assert_array_equal(b.grad, np.ones((3, 2)))

    def test_incompatible_shapes(self):
        with pytest.raises(ValueError, match="concat"):
            ad.concat(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


def _pair_mlp(rng, n, d, h, b1_shift=0.0):
    """Random (embed, w1, b1, w2, b2); embed is a ReLU output, zeros included."""
    embed = np.maximum(rng.standard_normal((n, d)), 0.0)
    w1 = rng.standard_normal((2 * d, h)) * 0.5
    b1 = rng.standard_normal(h) * 0.5 + b1_shift
    return [embed, w1, b1, rng.standard_normal((h, 1)), rng.standard_normal(1)]


class TestPairLogits:
    @pytest.mark.parametrize(
        "n,d,h,b1_shift",
        [(1, 3, 3, 0.0), (2, 2, 5, 0.0), (6, 4, 4, 0.0), (7, 3, 6, 0.0), (5, 4, 4, -100.0)],
    )
    def test_equals_the_unfused_composite_exactly(self, n, d, h, b1_shift):
        rng = np.random.default_rng(17 + n)
        arrays = _pair_mlp(rng, n, d, h, b1_shift)
        g = rng.standard_normal((n, n))
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        out = ad.pair_logits(*tensors)
        ad.sum_all(ad.mul(out, Tensor(g))).backward()
        logits, grads = pair_logits_unfused(*arrays, g)
        np.testing.assert_array_equal(out.data, logits)
        for t, expected in zip(tensors, grads):
            assert t.grad.shape == t.data.shape
            np.testing.assert_array_equal(t.grad, expected)
        if b1_shift < 0:  # every hidden unit dead: only pair_b2 learns
            np.testing.assert_array_equal(out.data, np.full((n, n), arrays[4][0]))
            for t in tensors[:4]:
                assert not t.grad.any()
            np.testing.assert_array_equal(tensors[4].grad, [g.sum()])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(19)
        arrays = _pair_mlp(rng, 4, 3, 5)
        arrays[0] = rng.standard_normal((4, 3))  # no ReLU zeros: every entry moves
        _check_gradients(lambda ts: ad.sum_all(ad.sigmoid(ad.pair_logits(*ts))), arrays)

    @pytest.mark.parametrize(
        "shapes",
        [
            [(3,), (2, 2), (2,), (2, 1), (1,)],
            [(3, 2), (3, 2), (2,), (2, 1), (1,)],
            [(3, 1), (2, 2), (3,), (2, 1), (1,)],
            [(3, 1), (2, 2), (2,), (2, 2), (1,)],
            [(3, 1), (2, 2), (2,), (2, 1), (2,)],
        ],
    )
    def test_shape_mismatch_rejected(self, shapes):
        with pytest.raises(ValueError, match="pair_logits"):
            ad.pair_logits(*[Tensor(np.zeros(s)) for s in shapes])


def _layer_loss(out, weights):
    """``sum(weights * out)``: every output entry gets its own upstream gradient."""
    return ad.sum_all(ad.mul(out, Tensor(weights)))


def _layer_run(op, arrays, grad_flags, extra, weights):
    """Output and input gradients of ``_layer_loss(op(*tensors, *extra))``."""
    tensors = [Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, grad_flags)]
    out = op(*tensors, *extra)
    if out.requires_grad:
        _layer_loss(out, weights).backward()
    return out.data, [t.grad for t in tensors]


def _assert_layer_matches_composite(name, arrays, grad_flags, extra=(), seed=0):
    """The fused op equals its primitive-op composite in every output and gradient bit."""
    weights = np.random.default_rng(seed).standard_normal(
        _layer_run(getattr(ad, name), arrays, [False] * len(arrays), extra, None)[0].shape
    )
    out, grads = _layer_run(getattr(ad, name), arrays, grad_flags, extra, weights)
    ref_out, ref_grads = _layer_run(LAYER_OP_COMPOSITES[name], arrays, grad_flags, extra, weights)
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
        # (2, 6, 6): 2 * (6 + 6) < 6 * 6, so the weight's gradient is left as factors.
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
    @pytest.mark.parametrize("x_shape", [(6, 3), (1, 18), (4, 18), (2, 6, 3)])
    def test_classifier_head_equals_the_composite(self, x_shape, x_grad):
        arrays = _head_arrays(np.random.default_rng(len(x_shape) + x_shape[0]), x_shape, 18)
        _assert_layer_matches_composite("classifier_head", arrays, [x_grad] + [True] * 4)

    @pytest.mark.parametrize(
        "x_shape,out_shape", [((6, 3), ()), ((1, 18), (1,)), ((4, 18), (4,)), ((2, 6, 3), (2,))]
    )
    def test_classifier_head_gives_one_logit_per_row(self, x_shape, out_shape):
        rng = np.random.default_rng(3)
        x, w1, b1, w2, b2 = _head_arrays(rng, x_shape, 18)
        out = ad.classifier_head(*[Tensor(a) for a in (x, w1, b1, w2, b2)]).data
        rows = x.reshape(-1, 18)
        expected = np.maximum(rows @ w1 + b1, 0.0) @ w2 + b2
        assert out.shape == out_shape
        np.testing.assert_allclose(out.reshape(-1), expected.reshape(-1), rtol=1e-13)

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

    @pytest.mark.parametrize("x_shape", [(6, 3), (3, 18)])
    def test_classifier_head_gradients_match_finite_differences(self, x_shape):
        rng = np.random.default_rng(8)
        arrays = _head_arrays(rng, x_shape, 18)
        weights = rng.standard_normal(x_shape[:-2] if x_shape == (6, 3) else x_shape[:1])
        _check_gradients(lambda ts: _layer_loss(ad.classifier_head(*ts), weights), arrays)

    def test_layer_weights_share_one_stacked_product(self, monkeypatch):
        # Three uses of each weight; each use's factors are smaller than
        # the weight's gradient, so backward forms it with one product.
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
            term = ad.classifier_head(hidden, *head)
            loss = term if loss is None else ad.add(loss, term)
        loss.backward()
        assert stacked == [3, 3]  # the head's w1 and the graph_conv weight

    @pytest.mark.parametrize(
        "name,shapes",
        [
            ("adjacency_norm", [(2, 3)]),
            ("adjacency_norm", [(3,)]),
            ("graph_conv", [(3, 3), (2, 4), (4, 2)]),
            ("graph_conv", [(3, 3), (3, 4), (3, 2)]),
            ("graph_conv", [(3, 2), (3, 4), (4, 2)]),
            ("classifier_head", [(6, 3), (17, 5), (5,), (5, 1), (1,)]),
            ("classifier_head", [(6, 3), (18, 5), (4,), (5, 1), (1,)]),
            ("classifier_head", [(6, 3), (18, 5), (5,), (5, 2), (1,)]),
            ("classifier_head", [(6, 3), (18, 5), (5,), (5, 1), (2,)]),
        ],
    )
    def test_shape_mismatch_rejected(self, name, shapes):
        with pytest.raises(ValueError, match=r"incompatible shapes|must be square"):
            getattr(ad, name)(*[Tensor(np.zeros(s)) for s in shapes])

    def test_gumbel_relax_rejects_mismatched_noise(self):
        with pytest.raises(ValueError, match="gumbel_relax"):
            ad.gumbel_relax(Tensor(np.zeros((3, 3))), np.zeros((3, 2)), 1.0)


class TestBceWithLogits:
    def test_logit_zero(self):
        for label in (0, 1):
            loss = ad.bce_with_logits(Tensor(np.array(0.0)), label)
            assert abs(float(loss.data) - np.log(2.0)) < 1e-15

    def test_confident_correct_is_tiny(self):
        loss = ad.bce_with_logits(Tensor(np.array(100.0)), 1)
        assert 0.0 <= float(loss.data) < 1e-20

    def test_no_overflow_at_extreme_logits(self):
        for z, y in ((1000.0, 0), (-1000.0, 1), (1000.0, 1), (-1000.0, 0)):
            loss = float(ad.bce_with_logits(Tensor(np.array(z)), y).data)
            assert np.isfinite(loss)

    def test_matches_naive_form_at_moderate_logits(self):
        # Beyond |z| ~ 15 the naive form itself loses precision in 1 - sigmoid.
        rng = np.random.default_rng(29)
        for _ in range(50):
            z = float(rng.uniform(-15.0, 15.0))
            y = int(rng.integers(0, 2))
            stable = float(ad.bce_with_logits(Tensor(np.array(z)), y).data)
            s = 1.0 / (1.0 + np.exp(-z))
            naive = -(y * np.log(s) + (1 - y) * np.log1p(-s))
            assert abs(stable - naive) <= 1e-9 * max(1.0, abs(naive))

    def test_backward_is_sigmoid_minus_label(self):
        z = Tensor(np.array(0.3), requires_grad=True)
        ad.bce_with_logits(z, 1).backward()
        expected = 1.0 / (1.0 + np.exp(-0.3)) - 1.0
        assert abs(float(z.grad) - expected) < 1e-15

    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
    def test_gradient_is_the_masked_logistic_minus_label(self, shape):
        for z in (0.0, -0.0, 5e-324, -1e-300, 0.3, -36.0, 745.0, -1e308, 1e308):
            for y in (0, 1):
                logit = Tensor(np.full(shape, z), requires_grad=True)
                ad.bce_with_logits(logit, y).backward()
                assert logit.grad.shape == shape
                expected = np.full(shape, logistic_masked(np.asarray(z)) - y)
                _assert_same_bits(logit.grad, expected)

    def test_rejects_non_binary_label(self):
        with pytest.raises(ValueError, match="label"):
            ad.bce_with_logits(Tensor(np.array(0.0)), 2)

    def test_gradient(self):
        _check_gradients(
            lambda ts: ad.bce_with_logits(ad.reshape(ts[0], ()), 1), [np.array([0.7])]
        )


class TestBackwardContract:
    def test_sum_gives_all_ones(self):
        w = Tensor(np.zeros((3, 4)), requires_grad=True)
        ad.sum_all(w).backward()
        np.testing.assert_array_equal(w.grad, np.ones((3, 4)))

    def test_two_calls_double_the_gradient(self):
        w = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        loss = ad.sum_all(ad.relu(w))
        loss.backward()
        first = w.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(w.grad, 2.0 * first)

    def test_non_scalar_rejected(self):
        w = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            ad.relu(w).backward()

    def test_constant_never_accumulates(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        c = Tensor(np.full((2, 2), 3.0))
        ad.sum_all(ad.mul(w, c)).backward()
        assert c.grad is None
        np.testing.assert_array_equal(w.grad, c.data)

    def test_diamond_graph_accumulates_once_per_path(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        y = ad.add(x, x)  # dy/dx = 2
        y.backward()
        assert float(x.grad) == 2.0

    def test_intermediates_receive_grad(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        mid = ad.scale(x, 3.0)
        ad.sum_all(mid).backward()
        np.testing.assert_array_equal(mid.grad, [1.0, 1.0])


def _shared_weight_loss(inputs, weight):
    """sum_i sum(sigmoid(x_i @ w)) with one weight in every product."""
    loss = None
    for x in inputs:
        term = ad.sum_all(ad.sigmoid(ad.matmul(x, weight)))
        loss = term if loss is None else ad.add(loss, term)
    return loss


class TestFactoredWeightGradients:
    """A leaf weight's matmul gradients are stacked and formed in one product."""

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
        # one row: factors of 1 * (3 + 3) values beat a 3 x 3 gradient
        x, w = rng.standard_normal((1, 3)), rng.standard_normal((3, 3))

        def build(ts):
            through_product = ad.sum_all(ad.sigmoid(ad.matmul(ts[0], ts[1])))
            return ad.add(through_product, ad.sum_all(ad.mul(ts[1], ts[1])))

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

    def test_constant_left_operand_product_never_formed(self):
        rng = np.random.default_rng(71)
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w.data, products = _product_spy(w.data)
        ad.sum_all(ad.matmul(Tensor(rng.standard_normal((2, 4))), w)).backward()
        # Only the forward product uses w; g @ w.T would be the constant's gradient.
        assert products == [[(2, 4), (4, 3)]]
        assert w.grad.shape == (4, 3)

    def test_constant_right_operand_product_never_formed(self):
        rng = np.random.default_rng(73)
        hidden = ad.relu(Tensor(rng.standard_normal((2, 4)), requires_grad=True))
        hidden.data, products = _product_spy(hidden.data)
        constant = Tensor(rng.standard_normal((4, 3)))
        ad.sum_all(ad.matmul(hidden, constant)).backward()
        # hidden.T @ g would be the constant's gradient.
        assert products == [[(2, 4), (4, 3)]]
        assert constant.grad is None


class TestRemainingOps:
    def test_bias_add_gradient_row_sums(self):
        rng = np.random.default_rng(31)
        m, b = rng.standard_normal((4, 3)), rng.standard_normal(3)
        _check_gradients(lambda ts: ad.sum_all(ad.add(ts[0], ts[1])), [m, b])

    @pytest.mark.parametrize(
        "build",
        [
            lambda ts: ad.sum_all(ad.add(ts[0], ts[1])),
            lambda ts: ad.sum_all(ad.mul(ts[0], ts[1])),
        ],
    )
    def test_binary_elementwise_gradients(self, build):
        rng = np.random.default_rng(37)
        _check_gradients(build, [rng.standard_normal((3, 3)) for _ in range(2)])

    @pytest.mark.parametrize(
        "build,positive",
        [
            (lambda ts: ad.sum_all(ad.transpose(ts[0])), False),
            (lambda ts: ad.sum_all(ad.reshape(ts[0], (6, 2))), False),
            (lambda ts: ad.sum_all(ad.row_sum(ts[0])), False),
            (lambda ts: ad.sum_all(ad.sigmoid(ts[0])), False),
            (lambda ts: ad.sum_all(ad.scale(ts[0], -2.5)), False),
            (lambda ts: ad.sum_all(ad.power(ts[0], -0.5)), True),
            (lambda ts: ad.sum_all(ad.power(ts[0], 1.5)), True),
        ],
    )
    def test_unary_op_gradients(self, build, positive):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((3, 4))
        if positive:
            x = np.abs(x) + 0.5
        _check_gradients(build, [x])

    def test_row_sum_shape(self):
        out = ad.row_sum(Tensor(np.ones((3, 5))))
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
        mlp_backup = [t.data.copy() for t in mlp]
        for out in [
            ad.add(ta, tb),
            ad.mul(ta, tb),
            ad.matmul(ta, tb),
            ad.relu(ta),
            ad.sigmoid(ta),
            ad.transpose(ta),
            ad.reshape(ta, (9,)),
            ad.concat(ta, tb),
            ad.pair_logits(ta, *mlp),
            ad.power(pos, -0.5),
        ]:
            out.data[...] = -999.0  # mutating outputs must not leak into inputs
        ad.sum_all(ad.pair_logits(ta, *mlp)).backward()  # its VJP works in place
        np.testing.assert_array_equal(ta.data, a)
        np.testing.assert_array_equal(tb.data, b)
        np.testing.assert_array_equal(pos.data, pos_backup)
        for t, backup in zip(mlp, mlp_backup):
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
            "add", "mul", "scale", "matmul", "transpose", "relu", "sigmoid", "power",
            "sum_all", "row_sum", "reshape", "concat", "pair_logits", "bce_with_logits",
            "adjacency_norm", "graph_conv", "gumbel_relax", "classifier_head",
        }

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(47)
        a = rng.standard_normal((4, 4))

        def run():
            t = Tensor(a, requires_grad=True)
            return ad.sum_all(ad.sigmoid(ad.matmul(ad.relu(t), ad.transpose(t)))).data

        assert float(run()) == float(run())

    def test_requires_grad_false_builds_no_tape(self):
        out = ad.matmul(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))
        assert not out.requires_grad and out._vjp is None
