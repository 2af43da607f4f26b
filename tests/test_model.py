"""Graph convolution, composed forward in every mode, and checkpoint tests."""

import dataclasses
import hashlib
import json
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dualgraph import autodiff as ad
from dualgraph import model as model_module
from dualgraph.autodiff import Tensor
from dualgraph.graphgen import build_filtered, edge_probabilities, gumbel_sample
from dualgraph.model import (
    MODES,
    ModelConfig,
    ParamGroup,
    batch_logits,
    classifier_input_dim,
    forward,
    gcn_forward,
    init_model,
    load_checkpoint,
    normalize_adjacency,
    parameter_shapes,
    save_checkpoint,
    subject_graphs,
    thresholded_graph,
)
from dualgraph.preprocess import generate_synthetic, pearson_correlation
from dualgraph.train import TrainConfig, train_model

from oracles import (
    LAYER_OP_COMPOSITES,
    finite_difference_gradient,
    max_rel_error,
    normalize_dense_oracle,
    parameter_count,
    sample_gumbel_noise,
    scoring_logit,
    sum_all,
    training_logit,
)


def _config(**overrides):
    base = dict(
        n_rois=6,
        t_steps=16,
        extractor_dim=4,
        gcn_hidden_dim=5,
        gcn_out_dim=3,
        classifier_hidden_dim=4,
        corr_threshold=0.6,
        temperature=1.0,
        mode="full",
        seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


# A format-1 checkpoint written by an earlier build: `dualgraph synth
# --subjects 12 --rois 8 --steps 32 --seed 3`, then `dualgraph train` for
# 2 epochs with every width 4 and seed 7. Today's code must read it and
# write it back unchanged.
PINNED_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint-v1-8x32-w4.ckpt"
PINNED_SHA256 = "7b1eff54194e18ce7c65658da11a5ce8027ada71e75ebfc9422605402f9e175e"


def _toy_subject(seed=2, n=6, t=16):
    rng = np.random.default_rng(seed)
    series = rng.standard_normal((n, t))
    return series, pearson_correlation(series)


class TestNormalizeAdjacency:
    def test_single_node(self):
        out = normalize_adjacency(np.array([[0.0]]))
        np.testing.assert_array_equal(out.data, [[1.0]])

    def test_isolated_nodes_give_identity(self):
        out = normalize_adjacency(np.zeros((3, 3)))
        np.testing.assert_array_equal(out.data, np.eye(3))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            adj = (rng.uniform(size=(n, n)) < 0.4).astype(float)
            np.fill_diagonal(adj, 0.0)
            out = normalize_adjacency(adj).data
            np.testing.assert_allclose(out, normalize_dense_oracle(adj), atol=1e-12)

    def test_preserves_symmetry_exactly(self):
        rng = np.random.default_rng(10)
        adj = (rng.uniform(size=(5, 5)) < 0.5).astype(float)
        adj = np.maximum(adj, adj.T)
        np.fill_diagonal(adj, 0.0)
        out = normalize_adjacency(adj).data
        np.testing.assert_array_equal(out, out.T)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="non-negative"):
            normalize_adjacency(np.array([[0.0, -0.1], [0.0, 0.0]]))

    def test_gradient_flows_through_soft_adjacency(self):
        rng = np.random.default_rng(11)
        soft = rng.uniform(0.1, 0.9, size=(4, 4))
        t = Tensor(soft, requires_grad=True)
        sum_all(normalize_adjacency(t)).backward()

        def value(arrays):
            return float(sum_all(normalize_adjacency(Tensor(arrays[0]))).data)

        numeric = finite_difference_gradient(value, [soft.copy()], 0)
        assert max_rel_error(t.grad, numeric) < 1e-6


class TestGcnForward:
    def _stack(self, rng, n_feat, h, f):
        return ParamGroup(
            w0=Tensor(rng.standard_normal((n_feat, h)) * 0.4, requires_grad=True),
            w1=Tensor(rng.standard_normal((h, f)) * 0.4, requires_grad=True),
        )

    def test_identity_propagation(self):
        rng = np.random.default_rng(12)
        v = rng.standard_normal((4, 4))
        stack = ParamGroup(w0=Tensor(np.eye(4)), w1=Tensor(np.eye(4)))
        out = gcn_forward(v, Tensor(np.eye(4)), stack)
        np.testing.assert_array_equal(out.data, np.maximum(v, 0.0))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        feats = rng.standard_normal((5, 5))
        adj = (rng.uniform(size=(5, 5)) < 0.5).astype(float)
        np.fill_diagonal(adj, 0.0)
        stack = self._stack(rng, 5, 4, 3)
        norm = normalize_adjacency(adj)
        base = gcn_forward(feats, norm, stack).data

        perm = rng.permutation(5)
        norm_p = normalize_adjacency(adj[np.ix_(perm, perm)])
        permuted = gcn_forward(feats[perm], norm_p, stack).data
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)

    def test_gradient_wrt_first_layer_matches_fd(self):
        rng = np.random.default_rng(14)
        _, corr = _toy_subject(seed=3, n=4, t=12)
        adj = (np.abs(corr) > 0.2).astype(float)
        np.fill_diagonal(adj, 0.0)
        norm = normalize_adjacency(adj)
        stack = self._stack(rng, 4, 3, 2)
        sum_all(gcn_forward(corr, norm, stack)).backward()

        def value(arrays):
            trial = ParamGroup(w0=Tensor(arrays[0]), w1=stack.w1)
            return float(sum_all(gcn_forward(corr, norm, trial)).data)

        numeric = finite_difference_gradient(value, [stack.w0.data.copy()], 0)
        assert max_rel_error(stack.w0.grad, numeric) < 1e-5

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(15)
        stack = self._stack(rng, 4, 3, 2)
        with pytest.raises(ValueError, match="incompatible shapes"):
            gcn_forward(np.ones((5, 4)), Tensor(np.eye(4)), stack)
        with pytest.raises(ValueError, match="incompatible shapes"):
            gcn_forward(np.ones((4, 5)), Tensor(np.eye(4)), stack)

    def test_one_dimensional_features_rejected(self):
        stack = self._stack(np.random.default_rng(16), 4, 3, 2)
        with pytest.raises(ValueError, match="incompatible shapes"):
            gcn_forward(np.ones(4), Tensor(np.eye(4)), stack)


def _forward_oracle(series, corr, state, noise):
    """Straight-line numpy re-implementation of the composition in every mode.

    ``noise=None`` builds the evaluation graph: the edges whose scorer
    logit is at least zero. Each branch's n x f embedding is flattened
    on its own, node 0 first, and the vectors are joined thresholded
    branch first; ``no_gconv`` puts the flattened correlations in both
    slots.
    """
    p = {name: t.data for (name, _), t in zip(parameter_shapes(state.config), state.parameters())}
    cfg = state.config
    n = cfg.n_rois

    def norm(a):
        ahat = a + np.eye(n)
        d = ahat.sum(axis=1)
        out = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                out[i, j] = ahat[i, j] / math.sqrt(d[i] * d[j])
        return out

    def gcn(a_norm, w0, w1):
        h = np.maximum(a_norm @ np.maximum(a_norm @ corr @ w0, 0.0) @ w1, 0.0)
        return h

    a_filt = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and corr[i, j] > cfg.corr_threshold:
                a_filt[i, j] = 1.0

    emb = np.maximum(series @ p["scorer.extract_w"] + p["scorer.extract_b"], 0.0)
    logits = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            pair = np.concatenate([emb[i], emb[j]])
            hid = np.maximum(pair @ p["scorer.pair_w1"] + p["scorer.pair_b1"], 0.0)
            logits[i, j] = float((hid @ p["scorer.pair_w2"])[0] + p["scorer.pair_b2"][0])

    soft = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if noise is None:
                soft[i, j] = 1.0 if logits[i, j] >= 0.0 else 0.0
                continue
            z = (logits[i, j] + noise[0][i, j] - noise[1][i, j]) / cfg.temperature
            soft[i, j] = 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))

    if cfg.mode == "no_gconv":
        parts = [corr.reshape(-1), corr.reshape(-1)]
    else:
        parts = []
        if cfg.mode in ("full", "no_optim"):
            parts.append(gcn(norm(a_filt), p["filtered_gcn.w0"], p["filtered_gcn.w1"]).reshape(-1))
        if cfg.mode in ("full", "no_corr"):
            parts.append(gcn(norm(soft), p["optimal_gcn.w0"], p["optimal_gcn.w1"]).reshape(-1))
    vec = np.concatenate(parts)
    hidden = np.maximum(vec @ p["classifier.w1"] + p["classifier.b1"], 0.0)
    return float((hidden @ p["classifier.w2"])[0] + p["classifier.b2"][0])


class TestForward:
    def test_deterministic_with_frozen_noise(self):
        series, corr = _toy_subject()
        state = init_model(_config())
        noise = sample_gumbel_noise(np.random.default_rng(5), 6)
        a = training_logit(series, corr, state, noise).data
        b = training_logit(series, corr, state, noise).data
        assert float(a) == float(b)

    def test_eval_path_deterministic(self):
        series, corr = _toy_subject()
        state = init_model(_config())
        assert float(scoring_logit(series, corr, state).data) == float(
            scoring_logit(series, corr, state).data
        )

    def test_matches_straight_line_oracle(self):
        series, corr = _toy_subject(seed=8)
        state = init_model(_config(seed=21))
        noise = sample_gumbel_noise(np.random.default_rng(9), 6)
        ours = float(training_logit(series, corr, state, noise).data)
        oracle = _forward_oracle(series, corr, state, noise)
        assert abs(ours - oracle) < 1e-10

    def test_eval_path_matches_straight_line_oracle(self):
        series, corr = _toy_subject(seed=8)
        state = init_model(_config(seed=21))
        # shift the scorer so the hardened graph has both edges and gaps
        logits = edge_probabilities(series, state.scorer).data
        state.scorer.pair_b2.data = state.scorer.pair_b2.data - np.median(logits)
        hard = subject_graphs(series, corr, state)[2]
        assert 0 < hard.sum() < 6 * 5
        ours = float(scoring_logit(series, corr, state).data)
        assert abs(ours - _forward_oracle(series, corr, state, None)) < 1e-10

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("mode", MODES)
    def test_every_mode_matches_straight_line_oracle(self, mode, training):
        series, corr = _toy_subject(seed=8)
        state = init_model(_config(mode=mode, seed=21))
        logits = edge_probabilities(series, state.scorer).data
        state.scorer.pair_b2.data = state.scorer.pair_b2.data - np.median(logits)
        noise = sample_gumbel_noise(np.random.default_rng(9), 6) if training else None
        logit = training_logit(series, corr, state, noise) if training else scoring_logit(series, corr, state)
        assert abs(float(logit.data) - _forward_oracle(series, corr, state, noise)) < 1e-10

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("mode", ["full", "no_optim"])
    def test_a_mode_with_the_thresholded_branch_needs_its_graph(self, mode, training):
        # forward builds no graph: its caller builds each subject's once.
        series, corr = _toy_subject(seed=8)
        state = init_model(_config(mode=mode))
        noise = sample_gumbel_noise(np.random.default_rng(9), 6) if training else None
        with pytest.raises(ValueError, match="thresholded graph"):
            forward(series, corr, state, noise)  # noise stays 4th

    @pytest.mark.parametrize("mode", MODES)
    def test_with_noise_it_returns_the_inputs_batch_logits_scores(self, monkeypatch, mode):
        # forward(..., noise=pair) runs the edge scorer and nothing after
        # it, and batch_logits on its result and the noise gives the
        # subject's training logit.
        series, corr = _toy_subject(seed=8)
        state = init_model(_config(mode=mode, seed=21, corr_threshold=0.1))
        logits = edge_probabilities(series, state.scorer).data
        state.scorer.pair_b2.data = state.scorer.pair_b2.data - np.median(logits)
        noise = np.stack(sample_gumbel_noise(np.random.default_rng(9), 6))
        expected = thresholded_graph(corr, state.config)
        assert expected is None or 0 < build_filtered(corr, 0.1).sum() < 6 * 5  # edges and gaps
        calls = []
        for name in ("matmul", "pair_logits", "gumbel_relax", "adjacency_norm", "graph_conv",
                     "classifier_head"):
            op = getattr(ad, name)
            monkeypatch.setattr(ad, name, lambda *a, name=name, op=op, **k: calls.append(name) or op(*a, **k))
        given, graph, logits = forward(series.tolist(), corr, state, noise=tuple(noise), graph=expected)
        scored = mode in ("full", "no_corr")
        assert calls == (["matmul", "pair_logits"] if scored else [])
        assert given.dtype == np.float64 and given.tobytes() == corr.tobytes() and graph is expected
        if scored:
            reference = edge_probabilities(series, state.scorer)
            assert logits.data.tobytes() == reference.data.tobytes() and logits.requires_grad
        else:
            assert logits is None
        out = batch_logits([(given, graph, logits)], state, noise[None])
        assert out.shape == (1,)
        assert abs(float(out.data[0]) - _forward_oracle(series, corr, state, noise)) < 1e-10

    @pytest.mark.parametrize("mode", MODES)
    def test_without_noise_it_returns_the_hardened_graph_batch_logits_scores(self, monkeypatch, mode):
        # forward(noise=None) runs the edge scorer and hardens its logits;
        # batch_logits without noise runs each GCN layer once on the
        # stacks and the head once per subject, and returns constants.
        series, corr = _toy_subject(seed=8)
        state = init_model(_config(mode=mode, seed=21, corr_threshold=0.1))
        logits = edge_probabilities(series, state.scorer).data
        state.scorer.pair_b2.data = state.scorer.pair_b2.data - np.median(logits)
        expected = thresholded_graph(corr, state.config)
        calls = []
        for name in ("matmul", "pair_logits", "gumbel_relax", "adjacency_norm", "graph_conv",
                     "classifier_head"):
            op = getattr(ad, name)
            monkeypatch.setattr(ad, name, lambda *a, name=name, op=op, **k: calls.append(name) or op(*a, **k))
        given, graph, edges = forward(series.tolist(), corr, state, graph=expected)
        scored = mode in ("full", "no_corr")
        assert calls == (["matmul", "pair_logits"] if scored else [])
        assert given.dtype == np.float64 and given.tobytes() == corr.tobytes() and graph is expected
        if scored:
            hard = subject_graphs(series, corr, state)[2]
            assert 0 < hard.sum() < 6 * 5  # edges and gaps
            assert edges.data.tobytes() == hard.tobytes() and not edges.requires_grad
        else:
            assert edges is None
        calls.clear()
        out = batch_logits([(given, graph, edges)] * 3, state)
        branches = {"full": 2, "no_corr": 1, "no_optim": 1, "no_gconv": 0}[mode]
        assert calls.count("graph_conv") == 2 * branches and calls.count("classifier_head") == 3
        assert "gumbel_relax" not in calls
        assert out.shape == (3,) and not out.requires_grad
        oracle = _forward_oracle(series, corr, state, None)
        assert all(abs(value - oracle) < 1e-10 for value in out.data)

    @pytest.mark.parametrize("shape", [(1, 2, 6, 5), (1, 2, 5, 5), (2, 2, 6, 6)])
    @pytest.mark.parametrize("mode", ["full", "no_corr"])
    def test_a_noise_stack_of_another_shape_is_rejected(self, mode, shape):
        # forward(..., noise=pair) only marks the training path; the
        # batch's noise stack is checked where it is used, against the
        # subjects' stacked (B, n, n) scorer logits.
        series, corr = _toy_subject(seed=8)
        state = init_model(_config(mode=mode))
        graph = thresholded_graph(corr, state.config)
        pair = sample_gumbel_noise(np.random.default_rng(9), 6)
        subject = forward(series, corr, state, noise=pair, graph=graph)
        with pytest.raises(ValueError, match="noise shapes"):
            batch_logits([subject], state, np.zeros(shape))

    @pytest.mark.parametrize("mode", MODES)
    def test_a_stack_of_correlations_gives_each_subjects_2d_graph(self, monkeypatch, mode):
        # build_filtered stays 2-D, one call per subject; the stack is normalized in one call
        corrs = np.stack([_toy_subject(seed=s)[1] for s in (3, 4, 5)])
        config = _config(mode=mode, corr_threshold=0.1)  # 10-12 edges a subject
        calls, norm = [], model_module.normalize_adjacency
        monkeypatch.setattr(
            model_module, "normalize_adjacency", lambda a: calls.append(a.shape) or norm(a)
        )
        graphs = thresholded_graph(corrs, config)
        if mode in ("no_corr", "no_gconv"):
            assert graphs is None and calls == []
            return
        assert calls == [(3, 6, 6)] and not graphs.requires_grad
        for corr, graph in zip(corrs, graphs.data, strict=True):
            assert graph.tobytes() == thresholded_graph(corr, config).data.tobytes()

    def test_single_branch_modes_use_disjoint_parameters(self):
        series, corr = _toy_subject(seed=4)
        state = init_model(_config(mode="no_corr", seed=3))
        noise = sample_gumbel_noise(np.random.default_rng(6), 6)

        before = float(training_logit(series, corr, state, noise).data)
        for p in state.filtered_gcn.parameters():
            p.data = np.zeros_like(p.data)
        assert float(training_logit(series, corr, state, noise).data) == before

        state.config = dataclasses.replace(state.config, mode="no_optim")
        before = float(training_logit(series, corr, state, noise).data)
        for p in state.optimal_gcn.parameters() + state.scorer.parameters():
            p.data = np.zeros_like(p.data)
        assert float(training_logit(series, corr, state, noise).data) == before

    def test_no_gconv_ignores_graph_parameters(self):
        series, corr = _toy_subject(seed=5)
        state = init_model(_config(mode="no_gconv", seed=3))
        before = float(scoring_logit(series, corr, state).data)
        for p in (
            state.scorer.parameters()
            + state.filtered_gcn.parameters()
            + state.optimal_gcn.parameters()
        ):
            p.data = np.zeros_like(p.data)
        assert float(scoring_logit(series, corr, state).data) == before

    def test_classifier_widths_by_mode(self):
        for mode, width in [
            ("full", 2 * 6 * 3),
            ("no_corr", 6 * 3),
            ("no_optim", 6 * 3),
            ("no_gconv", 2 * 6 * 6),
        ]:
            assert classifier_input_dim(_config(mode=mode)) == width

    def test_rejects_mismatched_inputs(self):
        series, corr = _toy_subject()
        state = init_model(_config())
        with pytest.raises(ValueError, match="series"):
            forward(series[:, :-1], corr, state)
        with pytest.raises(ValueError, match="corr"):
            forward(series, corr[:-1, :-1], state)

    @pytest.mark.parametrize("mode", MODES)
    def test_parameters_follow_parameter_shapes_by_name(self, mode):
        state = init_model(_config(mode=mode))
        params = state.parameters()
        shapes = parameter_shapes(state.config)
        assert len(params) == len(shapes)
        by_group = {}
        for tensor, (name, shape) in zip(params, shapes):
            group, field = name.split(".")
            assert tensor is getattr(getattr(state, group), field)
            assert tensor.shape == shape
            by_group.setdefault(group, []).append(tensor)
        # each group lists its own tensors, in parameter_shapes order
        for group, tensors in by_group.items():
            listed = getattr(state, group).parameters()
            assert len(listed) == len(tensors)
            assert all(a is b for a, b in zip(listed, tensors))

    def test_parameter_count_hand_check(self):
        config = _config(
            n_rois=8,
            t_steps=32,
            extractor_dim=8,
            gcn_hidden_dim=8,
            gcn_out_dim=4,
            classifier_hidden_dim=8,
        )
        # scorer: 32*8 + 8 + 16*8 + 8 + 8*1 + 1 = 409
        # two GCN stacks: 2 * (8*8 + 8*4) = 192
        # classifier on 2*8*4 = 64 inputs: 64*8 + 8 + 8*1 + 1 = 529
        assert parameter_count(config) == 409 + 192 + 529
        assert sum(p.size for p in init_model(config).parameters()) == 409 + 192 + 529


def _spy_on_outputs(monkeypatch, names, gradients_of=()):
    """Record the products and concatenations that outputs of ``ad.<name>`` enter.

    Each output's array becomes an ``np.ndarray`` subclass view; a
    concatenation of such views is one too, so the product formed from
    it is recorded as well. For the ops in ``gradients_of``, the gradient
    each output's VJP receives is such a view, so the products that VJP
    forms from it are recorded too.
    """
    events = []

    class Spy(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                events.append(("matmul", [np.shape(x) for x in inputs]))
            return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

        def __array_function__(self, func, types, args, kwargs):
            if func is not np.concatenate:
                return super().__array_function__(func, types, args, kwargs)
            events.append(("concatenate", [np.shape(x) for x in args[0]]))
            return np.concatenate([np.asarray(x) for x in args[0]], **kwargs).view(Spy)

    def spied(op, spy_gradient):
        def wrapped(*args, **kwargs):
            out = op(*args, **kwargs)
            out.data = out.data.view(Spy)
            vjp = out._vjp
            if spy_gradient and vjp is not None:
                out._vjp = lambda g: vjp(g.view(Spy))
            return out

        return wrapped

    for name in names:
        monkeypatch.setattr(ad, name, spied(getattr(ad, name), name in gradients_of))
    return events


class TestWeightGradientStacking:
    def test_the_head_weight_is_one_stacked_product(self, monkeypatch):
        n, d, f, hc, batch = 6, 4, 8, 4, 3
        state = init_model(_config(gcn_out_dim=f, classifier_hidden_dim=hc, seed=5))
        # Any product pair_logits' VJP forms from the gradient it receives
        # is recorded; classifier_head joins the branch outputs, graph_conv's,
        # into its input row, classifier.w1's left operand.
        events = _spy_on_outputs(
            monkeypatch, ["pair_logits", "graph_conv"], gradients_of=["pair_logits"]
        )
        noise = np.random.default_rng(7).gumbel(size=(batch, 2, n, n))
        subjects = []  # as a training step forms them: one head call for the batch
        for seed, pair in enumerate(noise):
            series, corr = _toy_subject(seed=seed)
            graph = thresholded_graph(corr, state.config)
            subjects.append(forward(series, corr, state, noise=tuple(pair), graph=graph))
        logits = batch_logits(subjects, state, noise)
        ad.bce_mean(logits, [seed % 2 for seed in range(batch)]).backward()

        width = 2 * n * f  # classifier.w1 is width x hc, fed one row per subject
        concats = [shapes for kind, shapes in events if kind == "concatenate"]
        products = [shapes for kind, shapes in events if kind == "matmul"]
        assert not any(n * n in shape for shapes in concats + products for shape in shapes)
        # the subjects' logits, stacked once, and the batch's rows, joined once
        assert concats == [[(1, n, n)] * batch, [(batch, n, f)] * 2]
        assert products.count([(batch, width), (width, hc)]) == 1  # the head's forward
        assert products.count([(width, batch), (batch, hc)]) == 1  # classifier.w1
        assert products.count([(width, 1), (1, hc)]) == 0
        assert state.scorer.pair_w2.grad.shape == (d, 1)
        assert state.classifier.w1.grad.shape == (width, hc)


def _reachable(root):
    """Every tensor the backward pass from ``root`` can reach, ``root`` included."""
    found, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in found:
            found[id(node)] = node
            stack.extend(node._parents)
    return list(found.values())


def _kept_arrays(root):
    """The arrays a tape keeps alive: each tensor's data and what its VJP captured."""
    kept = []
    for node in _reachable(root):
        cells = getattr(node._vjp, "__closure__", None)  # ``stack``'s VJP is ``tuple``
        kept += [node.data] + [c.cell_contents for c in cells or ()]
    return [x for x in kept if isinstance(x, np.ndarray)]


class TestTapeMemory:
    def test_a_training_subject_keeps_no_pair_sized_activation(self):
        n, d = 12, 8
        config = _config(n_rois=n, extractor_dim=d, gcn_hidden_dim=8, gcn_out_dim=8)
        state = init_model(config)
        series, corr = _toy_subject(seed=3, n=n)
        noise = sample_gumbel_noise(np.random.default_rng(0), n)
        loss = ad.bce_mean(training_logit(series, corr, state, noise), [1])
        sizes = [x.size for x in _kept_arrays(loss)]
        assert n * n in sizes  # the tape does reach the (n, n) edge logits
        assert n * n * d not in sizes
        scorer = _reachable(edge_probabilities(series, state.scorer))
        assert sum(node._vjp is not None for node in scorer) == 2  # matmul, pair_logits

    def test_a_training_subject_keeps_no_gcn_pre_activation_and_one_branch_row(self):
        n = 12
        state = init_model(_config(n_rois=n, gcn_hidden_dim=8, gcn_out_dim=8))
        series, corr = _toy_subject(seed=3, n=n)
        noise = sample_gumbel_noise(np.random.default_rng(0), n)
        kept = _kept_arrays(ad.bce_mean(training_logit(series, corr, state, noise), [1]))

        relaxed = gumbel_sample(edge_probabilities(series, state.scorer), 1.0, noise).data
        graphs = [build_filtered(corr, 0.6), relaxed]
        branches = []
        for adjacency, stack in zip(graphs, (state.filtered_gcn, state.optimal_gcn)):
            norm = normalize_adjacency(adjacency).data
            features = corr
            for weight in (stack.w0.data, stack.w1.data):
                pre = (norm @ features) @ weight
                assert (pre < 0).any()  # so the ReLU output differs from it
                assert not any(x.shape == pre.shape and np.array_equal(x, pre) for x in kept)
                features = np.maximum(pre, 0.0)
            branches.append(features)
        row = np.concatenate(branches).reshape(-1)
        copies = {
            x.__array_interface__["data"][0]
            for x in kept
            if x.size == row.size and np.array_equal(x.reshape(-1), row)
        }
        assert len(copies) == 1


def _batch_gradients(state, subjects, noise):
    """One ``batch_logits`` call's logits on the subjects, and with ``noise`` every parameter's gradient.

    With ``noise``, the batch's (B, 2, n, n) draw, the subjects are a
    training mini-batch and the gradients are those of its mean BCE.
    Without it they are scored, whose logits are constants: the
    gradients are None.
    """
    graphs = [thresholded_graph(corr, state.config) for _, corr in subjects]
    if noise is None:
        stages = [forward(*s, state, graph=graph) for s, graph in zip(subjects, graphs)]
        return batch_logits(stages, state).data, None
    inputs = [
        forward(*s, state, noise=tuple(pair), graph=graph)
        for s, graph, pair in zip(subjects, graphs, noise)
    ]
    logits = batch_logits(inputs, state, noise)
    ad.bce_mean(logits, [(i + 1) % 2 for i in range(len(subjects))]).backward()
    names = [name for name, _ in parameter_shapes(state.config)]
    return logits.data, dict(zip(names, (p.grad for p in state.parameters())))


class TestLayerOpsEqualTheirComposites:
    """The fused layer ops and ``bce_mean`` change no bit of the model's logits, gradients or training.

    The graph layers' composites run a training mini-batch's stacks one
    graph at a time (``oracles.per_graph``).
    """

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("mode", MODES)
    def test_forward_and_gradients(self, monkeypatch, mode, training):
        subjects = [_toy_subject(seed=s) for s in range(3)]
        noise = np.random.default_rng(4).gumbel(size=(len(subjects), 2, 6, 6)) if training else None

        def run():
            state = init_model(_config(mode=mode, seed=21))
            # shift the scorer so the hardened graphs have both edges and gaps
            logits = edge_probabilities(subjects[0][0], state.scorer).data
            state.scorer.pair_b2.data = state.scorer.pair_b2.data - np.median(logits)
            return _batch_gradients(state, subjects, noise)

        logits, grads = run()
        for name, composite in LAYER_OP_COMPOSITES.items():
            monkeypatch.setattr(ad, name, composite)
        ref_logits, ref_grads = run()

        assert logits.shape == ref_logits.shape == (len(subjects),)
        np.testing.assert_array_equal(logits, ref_logits)
        if not training:
            assert grads is None and ref_grads is None
            return
        for name, grad in grads.items():
            if ref_grads[name] is None:
                assert grad is None, name
            else:
                np.testing.assert_array_equal(grad, ref_grads[name], err_msg=name)
        sampled = mode in ("full", "no_corr")
        live = {"optimal_gcn": sampled, "scorer": sampled, "classifier": True}
        for prefix, flows in live.items():
            group = [g for name, g in grads.items() if name.startswith(prefix)]
            if flows:  # a dead branch would make the comparison vacuous
                assert all(g is not None and g.any() for g in group), prefix
            else:
                assert all(g is None for g in group), prefix

    def test_training_writes_the_same_checkpoint(self, monkeypatch, tmp_path):
        dataset = generate_synthetic(20, 8, 32, seed=2)
        config = TrainConfig(
            learning_rate=1e-2, extractor_dim=4, gcn_hidden_dim=5, gcn_out_dim=3,
            classifier_hidden_dim=4, epochs=3, patience=3, batch_size=4,
        )

        def run(path):
            state, metrics, log = train_model(dataset, config)
            save_checkpoint(state, str(path))
            return path.read_bytes(), repr(metrics), repr(log)

        fused = run(tmp_path / "fused.ckpt")
        for name, composite in LAYER_OP_COMPOSITES.items():
            monkeypatch.setattr(ad, name, composite)
        assert run(tmp_path / "composite.ckpt") == fused


class TestSubjectGraphs:
    def test_shapes_and_ranges(self):
        series, corr = _toy_subject(seed=6)
        state = init_model(_config(seed=2))
        filtered, theta, hard = subject_graphs(series, corr, state)
        assert np.all((filtered == 0) | (filtered == 1))
        assert np.all((hard == 0) | (hard == 1))
        assert np.all((theta > 0) & (theta < 1))
        assert np.all(np.diag(filtered) == 0) and np.all(np.diag(hard) == 0)

    def test_rejects_inputs_the_model_was_not_built_for(self):
        series, corr = _toy_subject(seed=6, n=8)
        state = init_model(_config(seed=2))  # 6 ROIs
        with pytest.raises(ValueError, match=r"series shape \(8, 16\).*\(6, 16\)"):
            subject_graphs(series, corr, state)
        series, corr = _toy_subject(seed=6)
        with pytest.raises(ValueError, match=r"corr shape \(5, 5\)"):
            subject_graphs(series, corr[:5, :5], state)

    def test_hard_graph_is_theta_threshold_off_diagonal(self):
        series, corr = _toy_subject(seed=7)
        state = init_model(_config(seed=2, temperature=0.5))
        _, theta, hard = subject_graphs(series, corr, state)
        off = ~np.eye(6, dtype=bool)
        np.testing.assert_array_equal(hard[off], (theta[off] >= 0.5).astype(float))


def rewrite_checkpoint_header(path, edit):
    """Rewrite a checkpoint's JSON header through ``edit(header) -> header``."""
    raw = path.read_bytes()
    version, header_len = struct.unpack_from("<IQ", raw, 4)
    header = edit(json.loads(raw[16 : 16 + header_len]))
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:4] + struct.pack("<IQ", version, len(blob)) + blob + raw[16 + header_len :])


def checkpoint_with_header(blob: bytes) -> bytes:
    return b"DGBC" + struct.pack("<IQ", 1, len(blob)) + blob


def _valid_checkpoint_bytes(directory) -> bytes:
    path = directory / "valid.ckpt"
    if not path.exists():
        save_checkpoint(init_model(_config(n_rois=3, t_steps=4, gcn_hidden_dim=2)), str(path))
    return path.read_bytes()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def checkpoint_bytes(valid: bytes):
    """Byte strings from noise to near-valid checkpoints.

    Random bytes; the right magic and version before random bytes; a
    random JSON header; a valid header with one config field or the
    parameter table replaced by a random JSON value; and a valid file
    with a stretch of bytes overwritten or cut off.
    """
    header_len = struct.unpack_from("<IQ", valid, 4)[1]
    header = json.loads(valid[16 : 16 + header_len])
    payload = valid[16 + header_len :]

    def with_header(h):
        return checkpoint_with_header(json.dumps(h).encode()) + payload

    def overwrite(args):
        start, junk, cut = args
        start = min(start, len(valid))
        damaged = valid[:start] + junk + valid[start + len(junk) :]
        return damaged[: len(damaged) - cut]

    return st.one_of(
        st.binary(max_size=64),
        st.binary(max_size=64).map(lambda b: b"DGBC\x01\x00\x00\x00" + b),
        _JSON.map(lambda h: checkpoint_with_header(json.dumps(h).encode())),
        st.tuples(st.sampled_from(sorted(header["config"])), _JSON).map(
            lambda kv: with_header(dict(header, config=dict(header["config"], **{kv[0]: kv[1]})))
        ),
        _JSON.map(lambda table: with_header(dict(header, params=table))),
        st.tuples(st.integers(0, len(valid)), st.binary(min_size=1, max_size=8), st.integers(0, 9)).map(
            overwrite
        ),
    )


class TestCheckpoint:
    def test_reads_and_rewrites_a_pinned_checkpoint_byte_for_byte(self, tmp_path):
        blob = PINNED_CHECKPOINT.read_bytes()
        assert hashlib.sha256(blob).hexdigest() == PINNED_SHA256
        state = load_checkpoint(str(PINNED_CHECKPOINT))
        widths = dict.fromkeys(
            ("extractor_dim", "gcn_hidden_dim", "gcn_out_dim", "classifier_hidden_dim"), 4
        )
        assert state.config == _config(n_rois=8, t_steps=32, seed=7, **widths)
        # the values follow the header in parameter_shapes order, each one
        # reachable on the state under its name
        offset = 16 + struct.unpack_from("<Q", blob, 8)[0]
        for name, shape in parameter_shapes(state.config):
            group, field = name.split(".")
            tensor = getattr(getattr(state, group), field)
            size = math.prod(shape)
            stored = np.frombuffer(blob, "<f8", size, offset)
            assert tensor.shape == shape and tensor.data.tobytes() == stored.tobytes()
            offset += 8 * size
        assert offset == len(blob)
        out = tmp_path / "model.ckpt"
        save_checkpoint(state, str(out))
        assert out.read_bytes() == blob

    def test_round_trip_bitwise(self, tmp_path):
        state = init_model(_config(seed=33))
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.config == state.config
        for a, b in zip(state.parameters(), loaded.parameters()):
            assert np.array_equal(a.data, b.data)
            assert b.requires_grad

    def test_save_is_byte_deterministic(self, tmp_path):
        state = init_model(_config(seed=34))
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(state, p1)
        save_checkpoint(state, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(str(path))

    def test_rejects_wrong_version(self, tmp_path):
        state = init_model(_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, str(path))
        raw = bytearray(path.read_bytes())
        raw[4] = 99  # container version field
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(str(path))

    def test_rejects_truncated_parameters(self, tmp_path):
        state = init_model(_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(str(path))

    def test_rejects_trailing_bytes(self, tmp_path):
        state = init_model(_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, str(path))
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "payload",
        [
            b"",
            b"DG",
            b"DGBC",
            b"DGBC" + b"\x01\x00\x00\x00" + b"\xff" * 8,
            b"DGBC" + b"\x01\x00\x00\x00" + (5).to_bytes(8, "little") + b"{{{{{",
        ],
    )
    def test_rejects_malformed_files(self, tmp_path, payload):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(payload)
        with pytest.raises(ValueError):
            load_checkpoint(str(path))


    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: {k: v for k, v in h.items() if k != "params"},
            lambda h: dict(h, params=[1, 2]),
            lambda h: dict(h, params=[{"name": "scorer.extract_w"}]),
            lambda h: dict(h, params=7),
            lambda h: [h],
        ],
        ids=["no-params", "params-not-objects", "param-without-shape", "params-not-a-list", "header-not-an-object"],
    )
    def test_rejects_malformed_header(self, tmp_path, edit):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(_config()), str(path))
        rewrite_checkpoint_header(path, edit)
        with pytest.raises(ValueError, match="malformed checkpoint header"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_parameters(self, tmp_path, bad):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(_config()), str(path))
        path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", bad))
        with pytest.raises(ValueError, match="classifier.b2 has non-finite"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "field,value",
        [("n_rois", 6.0), ("temperature", float("nan")), ("seed", "0"), ("mode", "sideways")],
    )
    def test_rejects_bad_config_values(self, tmp_path, field, value):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(_config()), str(path))
        rewrite_checkpoint_header(path, lambda h: dict(h, config=dict(h["config"], **{field: value})))
        with pytest.raises(ValueError, match=rf"model\.ckpt: malformed checkpoint header: {field}"):
            load_checkpoint(str(path))

    def test_header_that_is_not_json_is_malformed_naming_the_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(checkpoint_with_header(b"{not json}"))
        with pytest.raises(ValueError, match=r"model\.ckpt: malformed checkpoint header: Expecting"):
            load_checkpoint(str(path))

    def test_header_version_mismatch_is_reported_once(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(_config()), str(path))
        rewrite_checkpoint_header(path, lambda h: dict(h, format_version=2))
        with pytest.raises(ValueError) as excinfo:
            load_checkpoint(str(path))
        assert str(excinfo.value) == f"{path}: header/container version mismatch"

    def test_load_holds_each_parameter_once(self, tmp_path):
        # One copy of the parameters plus a one-byte-per-value finiteness mask.
        state = init_model(_config(n_rois=64, gcn_out_dim=32, classifier_hidden_dim=128))
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(state, path)
        parameter_bytes = 8 * parameter_count(state.config)
        assert parameter_bytes > 4_000_000
        tracemalloc.start()
        try:
            load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * parameter_bytes

    def test_huge_dimension_is_a_truncation_naming_the_file(self, tmp_path):
        # 2**62 * 4 is 0 in int64 arithmetic; the size must be exact so
        # the loader reports a truncation naming the file.
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(_config(gcn_hidden_dim=4)), str(path))

        def enlarge(header):
            config = dict(header["config"], n_rois=2**62)
            shapes = parameter_shapes(ModelConfig(**config))
            params = [{"name": name, "shape": list(shape)} for name, shape in shapes]
            return dict(header, config=config, params=params)

        rewrite_checkpoint_header(path, enlarge)
        with pytest.raises(ValueError, match=r"model\.ckpt: truncated while reading filtered_gcn\.w0"):
            load_checkpoint(str(path))
        assert parameter_count(_config(n_rois=2**62, gcn_hidden_dim=4)) > 2**64

    def test_deeply_nested_header_is_malformed(self, tmp_path):
        path = tmp_path / "deep.ckpt"
        path.write_bytes(checkpoint_with_header(b"[" * 100_000))
        with pytest.raises(ValueError, match="malformed checkpoint header"):
            load_checkpoint(str(path))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_bytes_load_or_raise_value_error(self, tmp_path, data):
        path = tmp_path / "fuzz.ckpt"
        path.write_bytes(data.draw(checkpoint_bytes(_valid_checkpoint_bytes(tmp_path))))
        try:
            state = load_checkpoint(str(path))
        except ValueError:
            return
        assert all(np.isfinite(p.data).all() for p in state.parameters())

    def test_failed_save_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(_config(seed=1)), str(path))
        earlier = path.read_bytes()
        drifted = init_model(_config(seed=2))
        drifted.classifier.b2.data = np.zeros(2)
        with pytest.raises(ValueError, match="classifier.b2 has drifted"):
            save_checkpoint(drifted, str(path))
        assert path.read_bytes() == earlier
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


class TestModelConfigValidation:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            _config(mode="bogus")

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError, match="corr_threshold"):
            _config(corr_threshold=1.0)

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError, match="temperature"):
            _config(temperature=0.0)

    def test_accepts_the_smallest_temperatures_with_a_finite_reciprocal(self):
        for tau in (1e-308, 5.56268464626801e-309):
            assert _config(temperature=tau).temperature == tau

    @pytest.mark.parametrize(
        "field,value",
        [
            ("temperature", float("nan")),
            ("temperature", float("inf")),
            # 1 / temperature overflows to inf below about 5.5626846462680e-309
            ("temperature", 5e-324),
            ("temperature", np.float64(5e-324)),
            ("temperature", 5.562684646268e-309),
            ("corr_threshold", float("nan")),
            ("corr_threshold", "0.5"),
            ("n_rois", 6.0),
            ("gcn_hidden_dim", True),
            ("extractor_dim", 0),
            ("seed", -1),
            ("seed", 1.0),
        ],
    )
    def test_rejects_non_finite_and_non_integer_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            _config(**{field: value})

    def test_accepts_numpy_scalars(self):
        config = _config(n_rois=np.int64(6), temperature=np.float64(0.5))
        assert sum(p.size for p in init_model(config).parameters()) == parameter_count(config)
