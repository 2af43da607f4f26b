"""Thresholded graph, edge scorer, and Gumbel relaxation tests."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dualgraph.autodiff import Tensor, logistic
from dualgraph.graphgen import (
    build_filtered,
    edge_probabilities,
    gumbel_sample,
    harden,
)
from dualgraph.model import ModelConfig, ParamGroup, init_model
from dualgraph.preprocess import generate_synthetic

from oracles import (
    edge_probabilities_double_loop,
    finite_difference_gradient,
    gumbel_elementwise_oracle,
    harden_double_loop,
    max_rel_error,
    sample_gumbel_noise,
    sigmoid,
    sum_all,
    threshold_double_loop,
)


def _random_symmetric_corr(rng, n):
    m = rng.uniform(-1.0, 1.0, size=(n, n))
    corr = (m + m.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    return corr


def _toy_scorer(rng, t_steps=10, dim=4):
    def w(shape):
        return Tensor(rng.standard_normal(shape) * 0.3, requires_grad=True)

    return ParamGroup(
        extract_w=w((t_steps, dim)),
        extract_b=w((dim,)),
        pair_w1=w((2 * dim, dim)),
        pair_b1=w((dim,)),
        pair_w2=w((dim, 1)),
        pair_b2=w((1,)),
    )


class TestBuildFiltered:
    def test_paper_threshold_cases(self):
        corr = np.array([[1.0, 0.7, 0.5], [0.7, 1.0, 0.61], [0.5, 0.61, 1.0]])
        adj = build_filtered(corr, 0.6)
        assert adj[0, 1] == 1.0 and adj[0, 2] == 0.0 and adj[1, 2] == 1.0
        np.testing.assert_array_equal(adj, adj.T)
        assert np.all(np.diag(adj) == 0.0)

    def test_identity_correlation_gives_empty_graph(self):
        adj = build_filtered(np.eye(5), 0.6)
        np.testing.assert_array_equal(adj, np.zeros((5, 5)))

    def test_strict_inequality_at_threshold(self):
        corr = np.array([[1.0, 0.6], [0.6, 1.0]])
        assert build_filtered(corr, 0.6)[0, 1] == 0.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            corr = _random_symmetric_corr(rng, n)
            cutoff = float(rng.uniform(0.05, 0.95))
            np.testing.assert_array_equal(
                build_filtered(corr, cutoff), threshold_double_loop(corr, cutoff)
            )

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        corr = _random_symmetric_corr(rng, 6)
        perm = rng.permutation(6)
        direct = build_filtered(corr[np.ix_(perm, perm)], 0.4)
        relabeled = build_filtered(corr, 0.4)[np.ix_(perm, perm)]
        np.testing.assert_array_equal(direct, relabeled)

    @pytest.mark.parametrize("cutoff", [0.0, 1.0, -0.3, 2.0])
    def test_threshold_out_of_range(self, cutoff):
        with pytest.raises(ValueError, match="threshold"):
            build_filtered(np.eye(3), cutoff)


class TestEdgeProbabilities:
    def test_identical_subjects_identical_theta(self):
        rng = np.random.default_rng(11)
        scorer = _toy_scorer(rng)
        series = rng.standard_normal((5, 10))
        first = edge_probabilities(series, scorer).data
        second = edge_probabilities(series.copy(), scorer).data
        np.testing.assert_array_equal(first, second)

    def test_zero_weights_give_half_everywhere(self):
        dim = 4
        zeros = lambda shape: Tensor(np.zeros(shape), requires_grad=True)
        scorer = ParamGroup(
            extract_w=zeros((10, dim)),
            extract_b=zeros((dim,)),
            pair_w1=zeros((2 * dim, dim)),
            pair_b1=zeros((dim,)),
            pair_w2=zeros((dim, 1)),
            pair_b2=zeros((1,)),
        )
        logits = edge_probabilities(np.random.default_rng(0).standard_normal((5, 10)), scorer)
        np.testing.assert_array_equal(logits.data, np.zeros((5, 5)))
        np.testing.assert_array_equal(logistic(logits.data), np.full((5, 5), 0.5))

    def test_pair_ordering_is_directed(self):
        # logit (i, j) pairs node i's embedding first, so the matrix is asymmetric
        rng = np.random.default_rng(12)
        scorer = _toy_scorer(rng)
        theta = edge_probabilities(rng.standard_normal((4, 10)), scorer).data
        assert not np.allclose(theta, theta.T)

    def test_gradient_wrt_extractor_matches_fd(self):
        rng = np.random.default_rng(13)
        scorer = _toy_scorer(rng)
        series = rng.standard_normal((4, 10))
        out = sum_all(sigmoid(edge_probabilities(series, scorer)))
        out.backward()

        w = scorer.extract_w

        def value(arrays):
            trial = ParamGroup(
                extract_w=Tensor(arrays[0]),
                extract_b=scorer.extract_b,
                pair_w1=scorer.pair_w1,
                pair_b1=scorer.pair_b1,
                pair_w2=scorer.pair_w2,
                pair_b2=scorer.pair_b2,
            )
            return float(sum_all(sigmoid(edge_probabilities(series, trial))).data)

        numeric = finite_difference_gradient(value, [w.data.copy()], 0)
        assert max_rel_error(w.grad, numeric) < 1e-5

    def test_matches_pair_by_pair_oracle(self):
        rng = np.random.default_rng(16)
        for n, t_steps, dim in ((2, 10, 4), (5, 10, 4), (7, 6, 3)):
            scorer = _toy_scorer(rng, t_steps=t_steps, dim=dim)
            series = rng.standard_normal((n, t_steps))
            logits = edge_probabilities(series, scorer).data
            oracle = edge_probabilities_double_loop(
                series, *[p.data for p in scorer.parameters()]
            )
            assert np.max(np.abs(logits - oracle)) <= 1e-12

    def test_gradient_wrt_pair_mlp_matches_fd(self):
        rng = np.random.default_rng(17)
        scorer = _toy_scorer(rng)
        series = rng.standard_normal((4, 10))
        sum_all(sigmoid(edge_probabilities(series, scorer))).backward()
        params = scorer.parameters()
        names = list(vars(scorer))
        for index in (2, 3, 4, 5):  # pair_w1, pair_b1, pair_w2, pair_b2

            def value(arrays):
                trial = {name: Tensor(p.data) for name, p in zip(names, params)}
                trial[names[index]] = Tensor(arrays[0])
                probs = sigmoid(edge_probabilities(series, ParamGroup(**trial)))
                return float(sum_all(probs).data)

            numeric = finite_difference_gradient(value, [params[index].data.copy()], 0)
            assert max_rel_error(params[index].grad, numeric) < 1e-5

    def test_wrong_series_length_rejected(self):
        rng = np.random.default_rng(14)
        scorer = _toy_scorer(rng, t_steps=10)
        with pytest.raises(ValueError, match="incompatible shapes"):
            edge_probabilities(rng.standard_normal((4, 11)), scorer)


LOGIT_05 = math.log(0.05 / 0.95)  # the logit of an edge probability of 0.05


class TestGumbelSample:
    def test_zero_noise_unit_temperature_returns_theta(self):
        rng = np.random.default_rng(15)
        logits = rng.uniform(-4.5, 4.5, size=(6, 6))
        zero = np.zeros((6, 6))
        soft = gumbel_sample(Tensor(logits), 1.0, (zero, zero)).data
        off = ~np.eye(6, dtype=bool)
        # sigmoid of the logits themselves, with no round trip to round
        np.testing.assert_array_equal(soft[off], logistic(logits)[off])
        assert np.all(np.diag(soft) == 0.0)

    def test_monte_carlo_mean_at_half(self):
        rng = np.random.default_rng(16)
        logits = Tensor(np.zeros((2, 2)))
        total, draws = 0.0, 10_000
        for _ in range(draws):
            g1, g2 = sample_gumbel_noise(rng, 2)
            total += float(gumbel_sample(logits, 1.0, (g1, g2)).data[0, 1])
        assert abs(total / draws - 0.5) <= 0.02

    def test_small_temperature_saturates(self):
        rng = np.random.default_rng(17)
        logits = Tensor(np.full((5, 5), math.log(9.0)))  # probability 0.9
        g1, g2 = sample_gumbel_noise(rng, 5)
        soft = gumbel_sample(logits, 0.01, (g1, g2)).data
        off = ~np.eye(5, dtype=bool)
        distance = np.minimum(np.abs(soft[off]), np.abs(soft[off] - 1.0))
        assert np.all(distance <= 1e-3)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            logits = rng.uniform(LOGIT_05, -LOGIT_05, size=(n, n))
            tau = float(rng.uniform(0.5, 2.0))
            g1, g2 = sample_gumbel_noise(rng, n)
            soft = gumbel_sample(Tensor(logits), tau, (g1, g2)).data
            oracle = gumbel_elementwise_oracle(logits, tau, g1, g2)
            np.testing.assert_allclose(soft, oracle, atol=1e-12)

    def test_monotone_in_theta_with_frozen_noise(self):
        rng = np.random.default_rng(19)
        g1, g2 = sample_gumbel_noise(rng, 4)
        logits_lo = np.full((4, 4), -0.85)
        logits_hi = logits_lo + 0.8
        lo = gumbel_sample(Tensor(logits_lo), 1.0, (g1, g2)).data
        hi = gumbel_sample(Tensor(logits_hi), 1.0, (g1, g2)).data
        off = ~np.eye(4, dtype=bool)
        assert np.all(hi[off] > lo[off])

    def test_gradient_wrt_theta_matches_fd(self):
        rng = np.random.default_rng(20)
        logit_values = rng.uniform(-1.4, 1.4, size=(4, 4))
        g1, g2 = sample_gumbel_noise(rng, 4)
        logits = Tensor(logit_values, requires_grad=True)
        sum_all(gumbel_sample(logits, 0.7, (g1, g2))).backward()

        def value(arrays):
            return float(sum_all(gumbel_sample(Tensor(arrays[0]), 0.7, (g1, g2))).data)

        numeric = finite_difference_gradient(value, [logit_values.copy()], 0)
        assert max_rel_error(logits.grad, numeric) < 1e-6

    def test_saturated_logits_have_finite_gradients(self):
        # sigmoid(40) is exactly 1.0, where a log-odds round trip gives -inf
        rng = np.random.default_rng(23)
        values = np.array([[0.0, 40.0, -40.0], [800.0, 0.0, -800.0], [37.0, 1e300, 0.0]])
        logits = Tensor(values, requires_grad=True)
        g1, g2 = sample_gumbel_noise(rng, 3)
        soft = gumbel_sample(logits, 0.5, (g1, g2))
        sum_all(soft).backward()
        assert np.isfinite(soft.data).all() and np.isfinite(logits.grad).all()
        assert np.all(np.diag(logits.grad) == 0.0)

    def test_rejects_bad_temperature(self):
        logits = Tensor(np.zeros((2, 2)))
        zero = np.zeros((2, 2))
        # 5e-324 is positive and finite, but its reciprocal overflows, as check_config rejects
        for tau in (0.0, -1.0, float("nan"), float("inf"), 5e-324, np.float64(5e-324)):
            with pytest.raises(ValueError, match="temperature"):
                gumbel_sample(logits, tau, (zero, zero))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="noise"):
            gumbel_sample(Tensor(np.zeros((3, 3))), 1.0, (np.zeros((3, 3)), np.zeros((2, 2))))

    @pytest.mark.parametrize(
        "logits,shapes",
        [((6, 6), [(6, 6), (6, 5)]), ((6, 6), [(5, 5), (5, 5)]), ((6, 6), [(1, 6, 6), (1, 6, 6)]),
         ((2, 6, 6), [(6, 6), (6, 6)]), ((2, 6, 6), [(2, 6, 6), (3, 6, 6)])],
    )
    def test_rejects_a_noise_pair_of_another_shape_than_the_logits(self, logits, shapes):
        # One subject's (n, n) logits or a mini-batch's (B, n, n) stack
        with pytest.raises(ValueError, match="noise shapes"):
            gumbel_sample(Tensor(np.zeros(logits)), 1.0, tuple(np.zeros(s) for s in shapes))


def _relaxed_probability_rule(z: float, tau: float) -> float:
    """Edge iff the zero-noise relaxation of theta = sigmoid(z) is >= 1/2.

    Evaluated in float64 through the log-odds of theta, which is -inf or
    +inf once theta rounds to 0 or 1.
    """
    theta = logistic(np.array([z]))
    with np.errstate(divide="ignore"):
        log_odds = np.log(theta) - np.log(1.0 - theta)
    return float(logistic(log_odds / tau)[0] >= 0.5)


class TestHarden:
    def test_threshold_cases(self):
        logits = np.array([[0.0, -0.1], [0.1, 0.0]])
        np.testing.assert_array_equal(harden(logits), [[0.0, 0.0], [1.0, 0.0]])

    def test_half_is_an_edge(self):
        # a zero logit is an edge probability of exactly one half
        np.testing.assert_array_equal(harden(np.zeros((2, 2))), [[0.0, 1.0], [1.0, 0.0]])

    def test_positive_scaling_changes_nothing(self):
        # no temperature reaches the hardened graph
        rng = np.random.default_rng(21)
        logits = rng.standard_normal((6, 6))
        for scale in (0.01, 0.5, 3.0, 1e6):
            np.testing.assert_array_equal(harden(scale * logits), harden(logits))

    def test_matches_double_loop(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            logits = rng.standard_normal((5, 5))
            np.testing.assert_array_equal(harden(logits), harden_double_loop(logits))

    @pytest.mark.parametrize(
        "shape", [(3, 3, 3), (2, 3), (2, 3, 3), (3,), ()], ids=["cube", "2x3", "stack", "1-d", "0-d"]
    )
    def test_anything_but_a_square_matrix_is_rejected_naming_its_shape(self, shape):
        # fill_diagonal would zero only a cube's [i, i, i] entries, take a
        # non-square matrix and fail on a stack with numpy's own message
        with pytest.raises(ValueError, match=f"must be a square matrix, got {re.escape(str(shape))}"):
            harden(np.ones(shape))

    @given(
        z=st.floats(-1e300, 1e300).filter(lambda z: abs(z) >= 1e-15),
        tau=st.floats(0.1, 2.0),
    )
    @example(z=40.0, tau=1.0)
    @example(z=-800.0, tau=0.1)
    @example(z=1e-15, tau=2.0)
    @example(z=-1e-15, tau=2.0)
    @settings(max_examples=300, deadline=None)
    def test_matches_zero_noise_relaxation_of_the_probability(self, z, tau):
        logits = np.array([[0.0, z], [-z, 0.0]])
        expected = [[0.0, _relaxed_probability_rule(z, tau)], [_relaxed_probability_rule(-z, tau), 0.0]]
        np.testing.assert_array_equal(harden(logits), expected)


class TestScorerFromModel:
    def test_initialized_scorer_produces_open_interval_probs(self):
        config = ModelConfig(
            n_rois=8,
            t_steps=32,
            extractor_dim=8,
            gcn_hidden_dim=8,
            gcn_out_dim=4,
            classifier_hidden_dim=8,
            corr_threshold=0.6,
            temperature=1.0,
            mode="full",
            seed=5,
        )
        state = init_model(config)
        subject = generate_synthetic(4, 8, 32, seed=2).subjects[0]
        logits = edge_probabilities(subject.series, state.scorer).data
        theta = logistic(logits)
        assert np.all(np.isfinite(logits))
        assert np.all(theta > 0.0) and np.all(theta < 1.0)
