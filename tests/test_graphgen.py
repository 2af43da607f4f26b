"""Thresholded graph, edge scorer, and Gumbel relaxation tests."""

import numpy as np
import pytest

from dualgraph.autodiff import Tensor
from dualgraph import autodiff as ad
from dualgraph.graphgen import (
    EdgeScorer,
    build_filtered,
    edge_probabilities,
    gumbel_sample,
    harden,
    sample_gumbel_noise,
)
from dualgraph.model import ModelConfig, init_model
from dualgraph.preprocess import generate_synthetic

from oracles import (
    edge_probabilities_double_loop,
    finite_difference_gradient,
    gumbel_elementwise_oracle,
    harden_double_loop,
    max_rel_error,
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

    return EdgeScorer(
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
        scorer = EdgeScorer(
            extract_w=zeros((10, dim)),
            extract_b=zeros((dim,)),
            pair_w1=zeros((2 * dim, dim)),
            pair_b1=zeros((dim,)),
            pair_w2=zeros((dim, 1)),
            pair_b2=zeros((1,)),
        )
        theta = edge_probabilities(np.random.default_rng(0).standard_normal((5, 10)), scorer)
        np.testing.assert_array_equal(theta.data, np.full((5, 5), 0.5))

    def test_pair_ordering_is_directed(self):
        # theta[i, j] pairs node i's embedding first, so theta is asymmetric
        rng = np.random.default_rng(12)
        scorer = _toy_scorer(rng)
        theta = edge_probabilities(rng.standard_normal((4, 10)), scorer).data
        assert not np.allclose(theta, theta.T)

    def test_gradient_wrt_extractor_matches_fd(self):
        rng = np.random.default_rng(13)
        scorer = _toy_scorer(rng)
        series = rng.standard_normal((4, 10))
        out = ad.sum_all(edge_probabilities(series, scorer))
        out.backward()

        w = scorer.extract_w

        def value(arrays):
            trial = EdgeScorer(
                extract_w=Tensor(arrays[0]),
                extract_b=scorer.extract_b,
                pair_w1=scorer.pair_w1,
                pair_b1=scorer.pair_b1,
                pair_w2=scorer.pair_w2,
                pair_b2=scorer.pair_b2,
            )
            return float(ad.sum_all(edge_probabilities(series, trial)).data)

        numeric = finite_difference_gradient(value, [w.data.copy()], 0)
        assert max_rel_error(w.grad, numeric) < 1e-5

    def test_matches_pair_by_pair_oracle(self):
        rng = np.random.default_rng(16)
        for n, t_steps, dim in ((2, 10, 4), (5, 10, 4), (7, 6, 3)):
            scorer = _toy_scorer(rng, t_steps=t_steps, dim=dim)
            series = rng.standard_normal((n, t_steps))
            theta = edge_probabilities(series, scorer).data
            oracle = edge_probabilities_double_loop(
                series, *[p.data for p in scorer.parameters()]
            )
            assert np.max(np.abs(theta - oracle)) <= 1e-12

    def test_gradient_wrt_pair_mlp_matches_fd(self):
        rng = np.random.default_rng(17)
        scorer = _toy_scorer(rng)
        series = rng.standard_normal((4, 10))
        ad.sum_all(edge_probabilities(series, scorer)).backward()
        params = scorer.parameters()
        for index in (2, 3):  # pair_w1, pair_b1

            def value(arrays):
                trial = [Tensor(p.data) for p in params]
                trial[index] = Tensor(arrays[0])
                return float(ad.sum_all(edge_probabilities(series, EdgeScorer(*trial))).data)

            numeric = finite_difference_gradient(value, [params[index].data.copy()], 0)
            assert max_rel_error(params[index].grad, numeric) < 1e-5

    def test_wrong_series_length_rejected(self):
        rng = np.random.default_rng(14)
        scorer = _toy_scorer(rng, t_steps=10)
        with pytest.raises(ValueError, match="time steps"):
            edge_probabilities(rng.standard_normal((4, 11)), scorer)


class TestGumbelSample:
    def test_zero_noise_unit_temperature_returns_theta(self):
        rng = np.random.default_rng(15)
        theta_values = rng.uniform(0.01, 0.99, size=(6, 6))
        zero = np.zeros((6, 6))
        soft = gumbel_sample(Tensor(theta_values), 1.0, (zero, zero)).data
        off = ~np.eye(6, dtype=bool)
        # logit/sigmoid round trip is exact up to float64 rounding (~1e-16)
        assert np.max(np.abs(soft[off] - theta_values[off])) <= 1e-15
        assert np.all(np.diag(soft) == 0.0)

    def test_monte_carlo_mean_at_half(self):
        rng = np.random.default_rng(16)
        theta = Tensor(np.full((2, 2), 0.5))
        total, draws = 0.0, 10_000
        for _ in range(draws):
            g1, g2 = sample_gumbel_noise(rng, 2)
            total += float(gumbel_sample(theta, 1.0, (g1, g2)).data[0, 1])
        assert abs(total / draws - 0.5) <= 0.02

    def test_small_temperature_saturates(self):
        rng = np.random.default_rng(17)
        theta = Tensor(np.full((5, 5), 0.9))
        g1, g2 = sample_gumbel_noise(rng, 5)
        soft = gumbel_sample(theta, 0.01, (g1, g2)).data
        off = ~np.eye(5, dtype=bool)
        distance = np.minimum(np.abs(soft[off]), np.abs(soft[off] - 1.0))
        assert np.all(distance <= 1e-3)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            theta_values = rng.uniform(0.05, 0.95, size=(n, n))
            tau = float(rng.uniform(0.5, 2.0))
            g1, g2 = sample_gumbel_noise(rng, n)
            soft = gumbel_sample(Tensor(theta_values), tau, (g1, g2)).data
            oracle = gumbel_elementwise_oracle(theta_values, tau, g1, g2)
            np.testing.assert_allclose(soft, oracle, atol=1e-12)

    def test_monotone_in_theta_with_frozen_noise(self):
        rng = np.random.default_rng(19)
        g1, g2 = sample_gumbel_noise(rng, 4)
        theta_lo = np.full((4, 4), 0.3)
        theta_hi = theta_lo + 0.2
        lo = gumbel_sample(Tensor(theta_lo), 1.0, (g1, g2)).data
        hi = gumbel_sample(Tensor(theta_hi), 1.0, (g1, g2)).data
        off = ~np.eye(4, dtype=bool)
        assert np.all(hi[off] > lo[off])

    def test_gradient_wrt_theta_matches_fd(self):
        rng = np.random.default_rng(20)
        theta_values = rng.uniform(0.2, 0.8, size=(4, 4))
        g1, g2 = sample_gumbel_noise(rng, 4)
        theta = Tensor(theta_values, requires_grad=True)
        ad.sum_all(gumbel_sample(theta, 0.7, (g1, g2))).backward()

        def value(arrays):
            return float(ad.sum_all(gumbel_sample(Tensor(arrays[0]), 0.7, (g1, g2))).data)

        numeric = finite_difference_gradient(value, [theta_values.copy()], 0)
        assert max_rel_error(theta.grad, numeric) < 1e-6

    def test_rejects_bad_temperature(self):
        theta = Tensor(np.full((2, 2), 0.5))
        zero = np.zeros((2, 2))
        for tau in (0.0, -1.0):
            with pytest.raises(ValueError, match="temperature"):
                gumbel_sample(theta, tau, (zero, zero))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="noise"):
            gumbel_sample(Tensor(np.full((3, 3), 0.5)), 1.0, (np.zeros((3, 3)), np.zeros((2, 2))))


class TestHarden:
    def test_threshold_cases(self):
        soft = np.array([[0.0, 0.49], [0.51, 0.0]])
        np.testing.assert_array_equal(harden(soft), [[0.0, 0.0], [1.0, 0.0]])

    def test_half_is_an_edge(self):
        assert harden(np.array([[0.5]]))[0, 0] == 1.0

    def test_idempotent(self):
        rng = np.random.default_rng(21)
        soft = rng.uniform(0.0, 1.0, size=(6, 6))
        once = harden(soft)
        np.testing.assert_array_equal(harden(once), once)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            soft = rng.uniform(0.0, 1.0, size=(5, 5))
            np.testing.assert_array_equal(harden(soft), harden_double_loop(soft))


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
        theta = edge_probabilities(subject.series, state.scorer).data
        assert np.all(theta > 0.0) and np.all(theta < 1.0)
