"""Unit and gradient checks for the reverse-mode engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualgraph import autodiff as ad
from dualgraph.autodiff import Tensor

from oracles import finite_difference_gradient, max_rel_error

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


class TestSigmoid:
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


class TestPairSum:
    def test_layout_matches_repeat_plus_tile(self):
        rng = np.random.default_rng(17)
        left, right = rng.standard_normal((3, 4)), rng.standard_normal((5, 4))
        out = ad.pair_sum(Tensor(left), Tensor(right)).data
        expected = np.repeat(left, 5, axis=0) + np.tile(right, (3, 1))
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(out[1 * 5 + 2], left[1] + right[2])

    def test_gradient(self):
        rng = np.random.default_rng(19)
        left, right = rng.standard_normal((3, 2)), rng.standard_normal((4, 2))
        _check_gradients(
            lambda ts: ad.sum_all(ad.sigmoid(ad.pair_sum(ts[0], ts[1]))), [left, right]
        )

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="pair_sum"):
            ad.pair_sum(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


class TestRowSlice:
    def test_values(self):
        m = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(ad.row_slice(Tensor(m), 1, 3).data, m[1:3])

    def test_gradient_is_zero_outside_the_slice(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((5, 2))
        _check_gradients(lambda ts: ad.sum_all(ad.sigmoid(ad.row_slice(ts[0], 1, 3))), [x])
        w = Tensor(x, requires_grad=True)
        ad.sum_all(ad.row_slice(w, 1, 3)).backward()
        np.testing.assert_array_equal(w.grad, [[0, 0], [1, 1], [1, 1], [0, 0], [0, 0]])


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
        x, w = rng.standard_normal((3, 2)), rng.standard_normal((2, 2))

        def build(ts):
            through_product = ad.sum_all(ad.sigmoid(ad.matmul(ts[0], ts[1])))
            return ad.add(through_product, ad.sum_all(ad.mul(ts[1], ts[1])))

        _check_gradients(build, [x, w])

    def test_two_calls_double_a_factored_gradient(self):
        rng = np.random.default_rng(67)
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        xs = [Tensor(rng.standard_normal((2, 3))) for _ in range(3)]
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
        for out in [
            ad.add(ta, tb),
            ad.mul(ta, tb),
            ad.matmul(ta, tb),
            ad.relu(ta),
            ad.sigmoid(ta),
            ad.transpose(ta),
            ad.reshape(ta, (9,)),
            ad.concat(ta, tb),
            ad.pair_sum(ta, tb),
            ad.row_slice(ta, 1, 3),
            ad.power(pos, -0.5),
        ]:
            out.data[...] = -999.0  # mutating outputs must not leak into inputs
        np.testing.assert_array_equal(ta.data, a)
        np.testing.assert_array_equal(tb.data, b)
        np.testing.assert_array_equal(pos.data, pos_backup)

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
