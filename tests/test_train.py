"""Split, optimizer, metric, and training-protocol tests."""

import dataclasses
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualgraph import autodiff as ad
from dualgraph import train as train_module
from dualgraph.autodiff import Tensor
from dualgraph.model import init_model
from dualgraph.preprocess import BoldMatrix, Dataset, generate_synthetic
from dualgraph.train import (
    Adam,
    Metrics,
    TrainConfig,
    TrainingDiverged,
    binary_metrics,
    evaluate,
    fit,
    load_train_config,
    roc_auc,
    run_ablation,
    split,
    train_model,
)

from oracles import adam_out_of_place, auc_pair_counting


def poison_gumbel_vjp(monkeypatch):
    """Make every Gumbel relaxation's VJP return NaN while its forward stays exact."""
    gumbel_relax = ad.gumbel_relax

    def poisoned(logits, delta, tau):
        out = gumbel_relax(logits, delta, tau)
        out._vjp = lambda g: (np.full(logits.shape, np.nan),)
        return out

    monkeypatch.setattr(ad, "gumbel_relax", poisoned)


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
            loss = ad.mul(p, p)
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
                assert all(ref() is None for ref in earlier)
            out = real_forward(*args, **kwargs)
            batches[-1].append(weakref.ref(out.data))
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

    def test_one_update_reaches_every_sampled_branch_weight(self):
        # At GCN output width 8 the sampled branch is alive at init, so
        # the fused pair MLP's VJP must hand every scorer parameter, and
        # the optimal GCN behind it both weights, a non-zero gradient.
        ds = generate_synthetic(8, 8, 32, seed=6)
        state, corrs, optimizer, rng = train_module._setup(ds, _small_config(gcn_out_dim=8))
        train_module._batch_update(state, ds, corrs, [0, 1, 2, 3], optimizer, rng, "batch 1")
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

    def test_returned_state_reproduces_test_metrics(self):
        ds = generate_synthetic(12, 8, 32, seed=8)
        state, metrics, _ = train_model(ds, _small_config(epochs=3))
        again = evaluate(state, ds, split(ds, seed=0).test)
        assert metrics == again

    def test_whole_run_determinism(self):
        ds = generate_synthetic(12, 8, 32, seed=9)
        config = _small_config(epochs=3)
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
