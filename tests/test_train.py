"""Split, optimizer, metric, and training-protocol tests."""

import copy
import dataclasses
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualgraph import autodiff as ad
from dualgraph import model as model_module
from dualgraph import train as train_module
from dualgraph.autodiff import Tensor
from dualgraph.graphgen import build_filtered, sample_gumbel_noise
from dualgraph.model import MODES, forward, init_model, normalize_adjacency
from dualgraph.preprocess import BoldMatrix, Dataset, generate_synthetic, pearson_correlation
from dualgraph.train import (
    Adam,
    Metrics,
    TrainConfig,
    TrainingDiverged,
    binary_metrics,
    evaluate,
    load_train_config,
    roc_auc,
    run_ablation,
    split,
    train_model,
)

from oracles import adam_out_of_place, auc_pair_counting, fit, mul


def poison_gumbel_vjp(monkeypatch):
    """Make every Gumbel relaxation's VJP return NaN while its forward stays exact."""
    gumbel_relax = ad.gumbel_relax

    def poisoned(logits, delta, tau):
        out = gumbel_relax(logits, delta, tau)
        out._vjp = lambda g: (np.full(logits.shape, np.nan),)
        return out

    monkeypatch.setattr(ad, "gumbel_relax", poisoned)


def one_sided_cohort():
    """19 controls and 1 patient: the stratified test split holds controls only."""
    rng = np.random.default_rng(17)
    subjects = [
        BoldMatrix(f"s{i:02d}", rng.standard_normal((8, 32)), int(i == 19)) for i in range(20)
    ]
    return Dataset(name="one-sided", subjects=subjects)


_TAPED_OPS = ["matmul", "pair_logits", "adjacency_norm", "graph_conv", "gumbel_relax",
              "classifier_head", "bce_mean"]


def _small_config(**overrides):
    base = dict(
        learning_rate=1e-2,
        extractor_dim=8,
        gcn_hidden_dim=8,
        gcn_out_dim=4,
        classifier_hidden_dim=8,
        epochs=5,
        patience=5,
        batch_size=4,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestSplit:
    def test_ten_subjects_split_sizes(self):
        ds = generate_synthetic(10, 8, 32, seed=0)
        idx = split(ds, seed=1)
        assert (len(idx.train), len(idx.val), len(idx.test)) == (7, 1, 2)

    def test_same_seed_identical(self):
        ds = generate_synthetic(12, 8, 32, seed=0)
        a, b = split(ds, seed=5), split(ds, seed=5)
        assert a.train == b.train and a.val == b.val and a.test == b.test

    def test_stratified_test_counts(self):
        ds = generate_synthetic(100, 8, 32, seed=0)
        idx = split(ds, seed=2)
        labels = ds.labels[idx.test]
        assert len(idx.test) == 20
        assert abs(int((labels == 0).sum()) - 10) <= 1

    def test_requires_both_classes(self):
        subjects = [
            BoldMatrix(f"s{i}", np.random.default_rng(i).standard_normal((8, 32)), 0)
            for i in range(6)
        ]
        with pytest.raises(ValueError, match="classes"):
            split(Dataset(name="mono", subjects=subjects), seed=0)

    def test_requires_five_subjects(self):
        ds = generate_synthetic(4, 8, 32, seed=0)
        with pytest.raises(ValueError, match="at least 5"):
            split(ds, seed=0)

    @given(n=st.integers(5, 1000), frac=st.floats(0.2, 0.8), seed=st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_proportions_and_stratification(self, n, frac, seed):
        labels = np.zeros(n, dtype=int)
        labels[: max(1, int(n * frac))] = 1
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]

        class FakeDataset:
            pass

        ds = FakeDataset()
        ds.labels = labels
        ds.__len__ = lambda self: n
        FakeDataset.__len__ = lambda self: n
        idx = split(ds, seed=seed)

        n_test = round(0.20 * n)
        n_val = round(0.15 * (n - n_test))
        assert len(idx.test) == n_test
        assert len(idx.val) == n_val
        assert len(idx.train) == n - n_test - n_val
        everything = sorted(idx.train + idx.val + idx.test)
        assert everything == list(range(n))

        for cls in (0, 1):
            n_cls = int((labels == cls).sum())
            got = int((labels[idx.test] == cls).sum())
            assert abs(got - n_test * n_cls / n) < 1.0


class TestAdam:
    def test_one_step_on_quadratic_matches_hand_formulas(self):
        lr, eps = 0.05, 1e-8
        p = Tensor(np.array(1.0), requires_grad=True)
        opt = Adam([p], learning_rate=lr)
        p.grad = np.asarray(2.0)  # d(p^2)/dp at p=1
        opt.step()
        # By hand at t=1: m_hat = g, v_hat = g^2, step = lr*g/(|g|+eps)
        expected = 1.0 - lr * 2.0 / (np.sqrt(4.0) + eps)
        assert abs(float(p.data) - expected) < 1e-16

    def test_convergence_on_quadratic(self):
        from dualgraph import autodiff as ad

        p = Tensor(np.array(1.0), requires_grad=True)
        opt = Adam([p], learning_rate=0.1)
        for _ in range(200):
            opt.zero_grad()
            loss = mul(p, p)
            loss.backward()
            opt.step()
        assert abs(float(p.data)) < 1e-2

    def test_none_grad_is_a_null_update(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = Adam([p], learning_rate=0.1)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_in_place_steps_match_the_out_of_place_oracle_bit_for_bit(self):
        rng = np.random.default_rng(23)
        big = rng.standard_normal(2 * Adam.CHUNK + 123)  # spans three chunks
        base = rng.standard_normal((6, 10))
        view = base[1:5, ::3].T  # non-contiguous, transposed
        scalar = np.array(0.7)
        unused = rng.standard_normal((3, 2))  # never gets a gradient
        start = [a.copy() for a in (big, view, scalar, unused)]
        params = [Tensor(a, requires_grad=True) for a in (big, view, scalar, unused)]
        opt = Adam(params, learning_rate=0.01)
        grads_by_step = []
        for _ in range(4):
            grads = [rng.standard_normal(a.shape) * 10.0 ** rng.integers(-8, 3) for a in start]
            grads[1] = grads[1].T.copy().T  # an F-ordered gradient
            grads[3] = None
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            grads_by_step.append(grads)
        expected = adam_out_of_place(start, grads_by_step, learning_rate=0.01)
        for p, want in zip(params, expected):
            assert p.data.tobytes() == want.tobytes()
        # The updates land in the caller's arrays, the view's base included.
        assert params[0].data is big and params[1].data is view
        assert base[1:5, ::3].T.tobytes() == expected[1].tobytes()

    def test_a_parameter_without_a_gradient_keeps_its_moments_and_value(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam([p], learning_rate=0.1)
        p.grad = np.array([0.5, -0.25])
        opt.step()
        before = [p.data.copy(), opt.m[0].copy(), opt.v[0].copy()]
        p.grad = None  # skipped, not stepped with a zero gradient
        opt.step()
        assert [p.data.tobytes(), opt.m[0].tobytes(), opt.v[0].tobytes()] == [
            a.tobytes() for a in before
        ]

    def test_gradient_of_the_wrong_shape_is_rejected(self):
        p = Tensor(np.zeros((2, 3)), requires_grad=True)
        opt = Adam([p], learning_rate=0.1)
        p.grad = np.ones((3, 2))
        with pytest.raises(ValueError, match=r"\(3, 2\).*\(2, 3\)"):
            opt.step()


class TestMetrics:
    def test_perfect_separation(self):
        m = binary_metrics(np.array([0.9, 0.9, 0.1, 0.1]), np.array([1, 1, 0, 0]))
        assert (m.f1, m.sensitivity, m.specificity, m.auc) == (1.0, 1.0, 1.0, 1.0)

    def test_all_half_probabilities(self):
        m = binary_metrics(np.full(4, 0.5), np.array([1, 1, 0, 0]))
        assert m.sensitivity == 1.0 and m.specificity == 0.0

    def test_six_sample_mixed_case(self):
        probs = np.array([0.8, 0.7, 0.55, 0.45, 0.3, 0.2])
        labels = np.array([1, 1, 0, 1, 0, 0])
        m = binary_metrics(probs, labels)
        assert (m.tp, m.fp, m.tn, m.fn) == (2, 1, 2, 1)
        assert abs(m.auc - 8.0 / 9.0) < 1e-15
        assert abs(m.f1 - 2.0 / 3.0) < 1e-15
        assert abs(m.sensitivity - 2.0 / 3.0) < 1e-15
        assert abs(m.specificity - 2.0 / 3.0) < 1e-15

    def test_auc_matches_pair_counting_with_ties(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(4, 20))
            probs = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert abs(roc_auc(probs, labels) - auc_pair_counting(probs, labels)) < 1e-12

    def test_degenerate_denominators_are_zero(self):
        m = binary_metrics(np.array([0.1, 0.2, 0.3, 0.4]), np.array([1, 1, 0, 0]))
        assert m.tp == 0 and m.f1 == 0.0 and m.sensitivity == 0.0
        assert m.specificity == 1.0

    def test_single_class_auc_raises(self):
        with pytest.raises(ValueError, match="AUC"):
            roc_auc(np.array([0.1, 0.9]), np.array([1, 1]))

    def test_metrics_dict_key_order(self):
        m = Metrics(1.0, 1.0, 1.0, 1.0, 1, 0, 1, 0)
        assert list(dataclasses.asdict(m)) == [
            "f1",
            "sensitivity",
            "specificity",
            "auc",
            "tp",
            "fp",
            "tn",
            "fn",
        ]


class TestTrainConfigFile:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"learning_rate": 0.001, "epochs": 3, "mode": "no-corr"}))
        config = load_train_config(str(path))
        assert config.learning_rate == 0.001
        assert config.epochs == 3
        assert config.mode == "no_corr"

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"learning_rat": 0.001}))
        with pytest.raises(ValueError, match="learning_rat"):
            load_train_config(str(path))

    def test_wrong_types_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"epochs": 2.5}))
        with pytest.raises(ValueError, match="integer"):
            load_train_config(str(path))

    @pytest.mark.parametrize(
        "text,field",
        [
            ('{"learning_rate": NaN}', "learning_rate"),
            ('{"learning_rate": true}', "learning_rate"),
            ('{"temperature": Infinity}', "temperature"),
            ('{"temperature": NaN}', "temperature"),
            ('{"temperature": 5e-324}', "temperature"),
            ('{"temperature": "1"}', "temperature"),
            ('{"batch_size": true}', "batch_size"),
            ('{"mode": 3}', "mode"),
            ('{"seed": 1.0}', "seed"),
            ('{"corr_threshold": 1' + "0" * 400 + "}", "int too large"),
        ],
    )
    def test_bad_values_name_the_file_and_field(self, tmp_path, text, field):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=field) as exc:
            load_train_config(str(path))
        assert str(path) in str(exc.value)

    def test_integer_floats_load_as_floats(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"temperature": 2, "learning_rate": 0}))
        config = load_train_config(str(path))
        assert type(config.temperature) is float and type(config.learning_rate) is float


class TestTrainingLoop:
    def test_zero_learning_rate_changes_nothing(self):
        ds = generate_synthetic(12, 8, 32, seed=4)
        config = _small_config(learning_rate=0.0, epochs=3)
        state, metrics, log = train_model(ds, config)
        fresh = init_model(state.config)
        for trained, init in zip(state.parameters(), fresh.parameters()):
            np.testing.assert_array_equal(trained.data, init.data)
        vals = {row["val_f1"] for row in log}
        assert len(vals) == 1  # constant validation metrics across epochs

    def test_loss_decreases_on_repeated_subject(self):
        rng = np.random.default_rng(31)
        series = rng.standard_normal((8, 32))
        subjects = [BoldMatrix(f"s{i:02d}", series, 1) for i in range(4)]
        ds = Dataset(name="repeat", subjects=subjects)
        config = _small_config(learning_rate=1e-3, epochs=50, batch_size=4)
        _, losses = fit(ds, list(range(4)), config)
        assert losses[49] < losses[0]

    def test_each_batch_tape_is_freed_before_the_next_batch(self, monkeypatch):
        ds = generate_synthetic(8, 8, 32, seed=5)
        batches = []  # per batch, weak references to its subjects' logit arrays
        zero_grad, real_forward = Adam.zero_grad, train_module.forward

        def counting_zero_grad(optimizer):
            batches.append([])
            return zero_grad(optimizer)

        def recording_forward(*args, **kwargs):
            for earlier in batches[:-1]:
                assert all(ref() is None for subject in earlier for ref in subject)
            out = real_forward(*args, **kwargs)  # the subject's branch outputs
            batches[-1].append([weakref.ref(branch.data) for branch in out])
            return out

        monkeypatch.setattr(Adam, "zero_grad", counting_zero_grad)
        monkeypatch.setattr(train_module, "forward", recording_forward)
        fit(ds, list(range(8)), _small_config(epochs=2, batch_size=3, gcn_out_dim=8))
        assert [len(b) for b in batches] == [3, 3, 2] * 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_epoch(self):
        ds = generate_synthetic(8, 8, 32, seed=6)
        config = _small_config(learning_rate=1e150, epochs=5)
        with pytest.raises(TrainingDiverged, match="epoch"):
            train_model(ds, config)

    def test_non_finite_gradient_stops_before_the_update(self, monkeypatch):
        # The forward pass and the loss stay finite; only the VJP is poisoned.
        poison_gumbel_vjp(monkeypatch)
        created = []

        def recording_init(config):
            state = init_model(config)
            created.append((state, [p.data.copy() for p in state.parameters()]))
            return state

        monkeypatch.setattr(train_module, "init_model", recording_init)
        ds = generate_synthetic(8, 8, 32, seed=6)
        with pytest.raises(TrainingDiverged, match="non-finite gradient at epoch 1, batch 1"):
            fit(ds, list(range(8)), _small_config())
        state, initial = created[0]
        for param, before in zip(state.parameters(), initial):
            np.testing.assert_array_equal(param.data, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_entry_in_the_last_chunk_stops_before_the_update(self, monkeypatch, bad):
        # classifier.w1 has 64 x 600 entries, more than one Adam chunk and
        # not a multiple of it; the check reads the whole gradient.
        ds = generate_synthetic(8, 8, 32, seed=6)
        state, inputs, optimizer, rng = train_module._setup(ds, _small_config(classifier_hidden_dim=600))
        w1 = state.classifier.w1
        assert w1.size > Adam.CHUNK and w1.size % Adam.CHUNK
        train_module._batch_update(state, ds, inputs, [0, 1, 2, 3], optimizer, rng, "batch 1")
        before = [a.tobytes() for a in [p.data for p in optimizer.params] + optimizer.m + optimizer.v]
        backward = Tensor.backward

        def poisoned_backward(loss):
            backward(loss)
            w1.grad.reshape(-1)[-1] = bad

        monkeypatch.setattr(Tensor, "backward", poisoned_backward)
        with pytest.raises(TrainingDiverged, match="non-finite gradient at batch 2"):
            train_module._batch_update(state, ds, inputs, [4, 5, 6, 7], optimizer, rng, "batch 2")
        after = [a.tobytes() for a in [p.data for p in optimizer.params] + optimizer.m + optimizer.v]
        assert after == before and optimizer.t == 1

    def test_a_mini_batch_of_one_subject_trains(self):
        # Batch size 7 on 8 subjects leaves a last mini-batch of one, whose
        # loss is that subject's own logit's BCE, bit for bit.
        ds = generate_synthetic(8, 8, 32, seed=6)
        config = _small_config(batch_size=7, epochs=2, gcn_out_dim=8)
        state, inputs, optimizer, rng = train_module._setup(ds, config)
        corr, graph = inputs[5]
        noise = sample_gumbel_noise(copy.deepcopy(rng), ds.n_rois)
        logit = forward(ds.subjects[5].series, corr, state, noise=noise, graph=graph)
        before = [p.data.copy() for p in state.parameters()]
        loss = train_module._batch_update(state, ds, inputs, [5], optimizer, rng, "batch 2")
        assert loss == ad.bce_value(float(logit.data), ds.subjects[5].label)
        for param, old in zip(state.parameters(), before):
            assert not np.array_equal(param.data, old)  # every parameter trained
        _, losses = fit(ds, list(range(8)), config)
        assert np.all(np.isfinite(losses))

    def test_the_batched_head_scores_each_subject_in_its_own_row(self, monkeypatch):
        ds = generate_synthetic(8, 8, 32, seed=6)
        state, inputs, optimizer, rng = train_module._setup(ds, _small_config(gcn_out_dim=8))
        batch, noise_rng, alone = [3, 0, 6, 1], copy.deepcopy(rng), []
        for idx in batch:
            corr, graph = inputs[idx]
            noise = sample_gumbel_noise(noise_rng, ds.n_rois)
            alone.append(float(forward(ds.subjects[idx].series, corr, state, noise=noise, graph=graph).data))
        scored, head = [], ad.classifier_head
        def spied(*args, **kwargs):
            scored.append(head(*args, **kwargs))
            return scored[-1]

        monkeypatch.setattr(ad, "classifier_head", spied)
        train_module._batch_update(state, ds, inputs, batch, optimizer, rng, "batch 1")
        assert len(scored) == 1 and scored[0].shape == (len(batch),)
        # a (B x D) product may differ from a one-row one in the last bits
        np.testing.assert_allclose(scored[0].data, alone, rtol=1e-12, atol=1e-15)

    def test_saturated_edge_logit_trains_with_finite_gradients(self, monkeypatch):
        # A scorer logit of 40 saturates sigmoid to exactly 1.0; relaxing
        # the logit itself keeps every gradient finite.
        created = []

        def saturated_init(config):
            state = init_model(config)
            state.scorer.pair_b2.data = np.array([40.0])
            created.append([p.data.copy() for p in state.parameters()])
            return state

        monkeypatch.setattr(train_module, "init_model", saturated_init)
        ds = generate_synthetic(8, 8, 32, seed=6)
        # GCN output width 8: at width 4 this init leaves the sampled
        # branch's output ReLU dead, and no gradient reaches the scorer.
        state, losses = fit(ds, list(range(8)), _small_config(epochs=2, gcn_out_dim=8))
        assert np.all(np.isfinite(losses))
        for param, before in zip(state.parameters(), created[0]):
            assert np.isfinite(param.data).all()
            assert not np.array_equal(param.data, before)  # every parameter trained

    def test_a_training_step_tapes_eight_nodes_per_subject_and_two_per_batch(self, monkeypatch):
        # Per subject: the scorer's matmul and pair_logits, gumbel_relax,
        # the sampled graph's adjacency_norm and two graph_convs per
        # branch. The batch adds one classifier_head and one bce_mean.
        tapes, backward = [], Tensor.backward

        def recording_backward(loss):
            tapes.append(sum(node._vjp is not None for node in ad._topo_order(loss)))
            return backward(loss)

        monkeypatch.setattr(Tensor, "backward", recording_backward)
        ds = generate_synthetic(10, 8, 32, seed=6)
        fit(ds, list(range(10)), _small_config(epochs=1, batch_size=4, gcn_out_dim=8))
        assert tapes == [8 * 4 + 2, 8 * 4 + 2, 8 * 2 + 2]

    @pytest.mark.parametrize("cached", [False, True])
    def test_an_evaluation_forward_tapes_seven_nodes(self, monkeypatch, cached):
        # The scorer's matmul and pair_logits, two graph_convs per branch and
        # classifier_head: the parameters require grad, so each op records a
        # node. The hardened graph is a constant, so its adjacency_norm
        # records none, and so is the thresholded graph, cached or not.
        ds = generate_synthetic(8, 8, 32, seed=6)
        state, inputs, _, _ = train_module._setup(ds, _small_config(gcn_out_dim=8))
        nodes = []

        def recorded(op):
            def wrapped(*args, **kwargs):
                out = op(*args, **kwargs)
                nodes.append(out._vjp is not None)
                return out

            return wrapped

        for name in _TAPED_OPS:
            monkeypatch.setattr(ad, name, recorded(getattr(ad, name)))
        train_module._predict_logits(state, ds, [0], inputs if cached else None)
        assert sum(nodes) == 7

    def test_one_update_reaches_every_sampled_branch_weight(self):
        # At GCN output width 8 the sampled branch is alive at init, so
        # the fused pair MLP's VJP must hand every scorer parameter, and
        # the optimal GCN behind it both weights, a non-zero gradient.
        ds = generate_synthetic(8, 8, 32, seed=6)
        state, inputs, optimizer, rng = train_module._setup(ds, _small_config(gcn_out_dim=8))
        train_module._batch_update(state, ds, inputs, [0, 1, 2, 3], optimizer, rng, "batch 1")
        params = state.scorer.parameters() + state.optimal_gcn.parameters()
        names = ["extract_w", "extract_b", "pair_w1", "pair_b1", "pair_w2", "pair_b2", "w0", "w1"]
        for name, param in zip(names, params):
            assert param.grad is not None and np.any(param.grad != 0), name

    def test_log_structure_and_early_stop_bound(self):
        ds = generate_synthetic(12, 8, 32, seed=7)
        config = _small_config(epochs=4)
        state, metrics, log = train_model(ds, config)
        assert 1 <= len(log) <= 4
        assert list(log[0]) == ["epoch", "train_loss", "val_f1", "val_loss"]
        assert [row["epoch"] for row in log] == list(range(1, len(log) + 1))

    def test_patience_stops_the_run_and_keeps_the_first_epoch(self, monkeypatch):
        # At learning rate 0 every epoch scores alike, so epoch 1 stays the
        # best and epochs 2 and 3 stall; a patience of 2 ends the run there.
        ds = generate_synthetic(12, 8, 32, seed=7)
        passes = []
        epoch_pass = train_module._epoch_pass

        def counting_pass(*args):
            passes.append(args[-1])
            return epoch_pass(*args)

        monkeypatch.setattr(train_module, "_epoch_pass", counting_pass)
        state, _, log = train_model(ds, _small_config(learning_rate=0.0, epochs=10, patience=2))
        assert [row["epoch"] for row in log] == [1, 2, 3] and passes == [1, 2, 3]
        for trained, init in zip(state.parameters(), init_model(state.config).parameters()):
            assert trained.data.tobytes() == init.data.tobytes()

    def test_single_class_test_split_fails_before_training(self, monkeypatch):
        ds = one_sided_cohort()
        assert set(ds.labels[split(ds, seed=0).test]) == {0}
        passes = []
        monkeypatch.setattr(train_module, "_epoch_pass", lambda *args: passes.append(args))
        with pytest.raises(ValueError, match=r"4 class-0 and 0 class-1 .*cohort: 19 and 1"):
            train_model(ds, _small_config())
        assert passes == []

    def test_head_gradient_array_is_reused_across_updates(self):
        ds = generate_synthetic(8, 8, 32, seed=6)
        state, inputs, optimizer, rng = train_module._setup(ds, _small_config(gcn_out_dim=8))
        train_module._batch_update(state, ds, inputs, [0, 1, 2, 3], optimizer, rng, "batch 1")
        first = state.classifier.w1.grad
        train_module._batch_update(state, ds, inputs, [4, 5, 6, 7], optimizer, rng, "batch 2")
        assert state.classifier.w1.grad is first

    def test_a_worse_later_epoch_restores_the_best_parameters_bit_for_bit(self, monkeypatch):
        # Validation scores are scripted: every epoch classifies the
        # validation set alike, and epoch 2 has the lowest loss, so the
        # snapshot taken at epoch 1 is refreshed once and then kept.
        ds = generate_synthetic(12, 8, 32, seed=8)
        scales = iter([0.1, 3.0, 0.5, 0.2])
        after_epoch = []
        epoch_pass, predict = train_module._epoch_pass, train_module._predict_logits

        def recording_pass(state, *args):
            loss = epoch_pass(state, *args)
            after_epoch.append([p.data.copy() for p in state.parameters()])
            return loss

        def scripted_validation(state, dataset, indices, inputs=None):
            if inputs is None:  # the test set, scored after training
                return predict(state, dataset, indices)
            return next(scales) * (2.0 * dataset.labels[indices] - 1.0)

        monkeypatch.setattr(train_module, "_epoch_pass", recording_pass)
        monkeypatch.setattr(train_module, "_predict_logits", scripted_validation)
        state, _, log = train_model(ds, _small_config(epochs=4, patience=4, gcn_out_dim=8))
        assert len(log) == 4 and min(log, key=lambda row: row["val_loss"])["epoch"] == 2
        assert not np.array_equal(after_epoch[3][0], after_epoch[1][0])
        for param, best in zip(state.parameters(), after_epoch[1]):
            assert param.data.tobytes() == best.tobytes()

    def test_returned_state_reproduces_test_metrics(self):
        # GCN output width 8 keeps the sampled branch alive, so the
        # restored best epoch includes a trained scorer and optimal GCN.
        ds = generate_synthetic(12, 8, 32, seed=8)
        state, metrics, _ = train_model(ds, _small_config(epochs=3, gcn_out_dim=8))
        again = evaluate(state, ds, split(ds, seed=0).test)
        assert metrics == again

    def test_whole_run_determinism(self):
        ds = generate_synthetic(12, 8, 32, seed=9)
        config = _small_config(epochs=3, gcn_out_dim=8)
        state_a, metrics_a, log_a = train_model(ds, config)
        state_b, metrics_b, log_b = train_model(ds, config)
        assert metrics_a == metrics_b and log_a == log_b
        for a, b in zip(state_a.parameters(), state_b.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_evaluate_rejects_empty_indices(self):
        ds = generate_synthetic(8, 8, 32, seed=10)
        state = init_model(
            train_model(ds, _small_config(epochs=1))[0].config
        )
        with pytest.raises(ValueError, match="empty"):
            evaluate(state, ds, [])


class TestThresholdedGraphCache:
    """``_setup`` builds each subject's thresholded graph once; steps and validation reuse it."""

    def test_no_step_or_validation_pass_builds_a_thresholded_graph(self, monkeypatch):
        ds = generate_synthetic(12, 8, 32, seed=8)
        phase, calls = ["setup"], []
        build, epoch_pass, predict = (
            model_module.build_filtered, train_module._epoch_pass, train_module._predict_logits
        )

        def spied_build(*args):
            calls.append(phase[0])
            return build(*args)

        def spied_pass(*args):
            phase[0] = "epoch"
            return epoch_pass(*args)

        def spied_predict(state, dataset, indices, *inputs):
            phase[0] = "validation" if inputs else "test"  # the test set gets no inputs
            return predict(state, dataset, indices, *inputs)

        monkeypatch.setattr(model_module, "build_filtered", spied_build)
        monkeypatch.setattr(train_module, "_epoch_pass", spied_pass)
        monkeypatch.setattr(train_module, "_predict_logits", spied_predict)
        _, _, log = train_model(ds, _small_config(epochs=2, patience=2))
        assert len(log) == 2
        assert calls == ["setup"] * 12 + ["test"] * len(split(ds, seed=0).test)

    @pytest.mark.parametrize("mode", MODES)
    def test_setup_builds_the_graph_only_in_modes_with_the_thresholded_branch(self, mode):
        ds = generate_synthetic(8, 8, 32, seed=6)
        _, inputs, _, _ = train_module._setup(ds, _small_config(mode=mode))
        for subject, (corr, graph) in zip(ds.subjects, inputs):
            assert corr.tobytes() == pearson_correlation(subject.series).tobytes()
            if mode in ("no_corr", "no_gconv"):
                assert graph is None
                continue
            expected = normalize_adjacency(build_filtered(corr, 0.6)).data
            assert graph.data.tobytes() == expected.tobytes() and not graph.requires_grad

    @pytest.mark.parametrize("mode,per_subject", [("full", 1), ("no_optim", 0)])
    def test_a_batch_update_normalizes_only_the_sampled_graphs(self, monkeypatch, mode, per_subject):
        ds = generate_synthetic(8, 8, 32, seed=6)
        state, inputs, optimizer, rng = train_module._setup(ds, _small_config(mode=mode))
        calls, adjacency_norm = [], ad.adjacency_norm
        monkeypatch.setattr(ad, "adjacency_norm", lambda a: calls.append(a) or adjacency_norm(a))
        train_module._batch_update(state, ds, inputs, [0, 1, 2, 3], optimizer, rng, "batch 1")
        assert len(calls) == 4 * per_subject

    def test_every_op_a_training_step_calls_is_a_tape_node(self, monkeypatch):
        ds = generate_synthetic(8, 8, 32, seed=6)
        state, inputs, optimizer, rng = train_module._setup(ds, _small_config(gcn_out_dim=8))
        outputs = []

        def recorded(name, op):
            def wrapped(*args, **kwargs):
                out = op(*args, **kwargs)
                outputs.append((name, out))
                return out

            return wrapped

        for name in _TAPED_OPS:
            monkeypatch.setattr(ad, name, recorded(name, getattr(ad, name)))
        train_module._batch_update(state, ds, inputs, [0, 1, 2, 3], optimizer, rng, "batch 1")
        assert len(outputs) == 8 * 4 + 2
        assert [name for name, _ in outputs[-2:]] == ["classifier_head", "bce_mean"]
        assert [name for name, out in outputs if out._vjp is None] == []

    def test_an_epoch_and_a_validation_pass_leave_the_cached_inputs_as_they_were(self):
        # No op mutates its inputs, so one graph can serve every step.
        ds = generate_synthetic(10, 8, 32, seed=6)
        config = _small_config(gcn_out_dim=8)
        state, inputs, optimizer, rng = train_module._setup(ds, config)
        before = [(corr.tobytes(), graph.data.tobytes()) for corr, graph in inputs]
        head = state.classifier.w1.data.copy()
        train_module._epoch_pass(state, ds, inputs, list(range(10)), optimizer, rng, config, 1)
        train_module._predict_logits(state, ds, list(range(10)), inputs)
        assert not np.array_equal(state.classifier.w1.data, head)  # the epoch did train
        assert [(corr.tobytes(), graph.data.tobytes()) for corr, graph in inputs] == before


class TestPaperScaleGeometry:
    def test_two_epochs_on_wide_configuration(self):
        # 96 ROIs x 150 steps with 256-wide GCN layers, as used on real
        # cohorts; just a smoke check that the shapes and loop hold up.
        ds = generate_synthetic(8, 96, 150, seed=13)
        config = TrainConfig(
            learning_rate=1e-4,
            extractor_dim=32,
            gcn_hidden_dim=256,
            gcn_out_dim=256,
            classifier_hidden_dim=64,
            epochs=2,
            patience=2,
            batch_size=4,
            seed=1,
        )
        state, metrics, log = train_model(ds, config)
        assert len(log) == 2
        assert all(np.isfinite(row["train_loss"]) for row in log)
        assert state.classifier.w1.shape == (2 * 96 * 256, 64)
        assert 0.0 <= metrics.f1 <= 1.0


class TestAblation:
    def test_four_rows_fixed_order_and_full_matches_standalone(self):
        ds = generate_synthetic(12, 8, 32, seed=11)
        config = _small_config(epochs=2)
        table = run_ablation(ds, config)
        assert [mode for mode, _ in table] == ["full", "no_corr", "no_optim", "no_gconv"]
        _, standalone, _ = train_model(ds, dataclasses.replace(config, mode="full"))
        assert table[0][1] == standalone
