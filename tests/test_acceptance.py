"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The heavyweight criteria share one seeded synthetic cohort (80
subjects, 16 ROIs, 64 steps, seed 3) and one trained model, produced
through the command-line interface so the artifacts checked here are the
ones a user would get.
"""

import json
import math
import time

import numpy as np
import pytest

from dualgraph import autodiff as ad
from dualgraph.autodiff import Tensor, logistic
from dualgraph.cli import main
from dualgraph.graphgen import build_filtered, gumbel_sample, sample_gumbel_noise
from dualgraph.model import ModelConfig, forward, init_model, normalize_adjacency
from dualgraph.preprocess import generate_synthetic, load_dataset, pearson_correlation, planted_blocks
from dualgraph.train import TrainConfig, roc_auc, run_ablation

from oracles import (
    auc_pair_counting,
    finite_difference_gradient,
    fit,
    gumbel_elementwise_oracle,
    max_rel_error,
    normalize_dense_oracle,
    pearson_textbook,
    stump_best_accuracy,
    sum_all,
    threshold_double_loop,
)

LOGIT_05 = math.log(0.05 / 0.95)  # logit of an edge probability of 0.05
LOGIT_01 = math.log(0.01 / 0.99)

ACCEPTANCE_TRAIN_CONFIG = {
    "learning_rate": 1e-3,
    "extractor_dim": 32,
    "gcn_hidden_dim": 64,
    "gcn_out_dim": 32,
    "classifier_hidden_dim": 64,
    "corr_threshold": 0.6,
    "temperature": 1.0,
    "epochs": 60,
    "patience": 30,
    "batch_size": 16,
    "seed": 3,
    "mode": "full",
}


def _report(criterion, name, check):
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {criterion} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {criterion} {name}: PASS")


@pytest.fixture(scope="module")
def acceptance_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    data = root / "data"
    assert (
        main(
            [
                "synth",
                "--out",
                str(data),
                "--subjects",
                "80",
                "--rois",
                "16",
                "--steps",
                "64",
                "--seed",
                "3",
            ]
        )
        == 0
    )
    return {"root": root, "data": data}


@pytest.fixture(scope="module")
def acceptance_model(acceptance_data):
    root = acceptance_data["root"]
    config_path = root / "config.json"
    config_path.write_text(json.dumps(ACCEPTANCE_TRAIN_CONFIG))
    ckpt = root / "model.ckpt"
    started = time.monotonic()
    assert (
        main(
            [
                "train",
                "--data",
                str(acceptance_data["data"]),
                "--config",
                str(config_path),
                "--out",
                str(ckpt),
            ]
        )
        == 0
    )
    elapsed = time.monotonic() - started
    metrics = json.loads((root / "model.metrics.json").read_text())
    return {
        "root": root,
        "config_path": config_path,
        "ckpt": ckpt,
        "metrics": metrics,
        "train_seconds": elapsed,
    }


def test_criterion_1_gradient_integrity():
    """Full composed model on a 6-node/16-step subject vs finite differences."""

    def check():
        started = time.monotonic()
        config = ModelConfig(
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
        rng = np.random.default_rng(105)
        series = rng.standard_normal((6, 16))
        corr = pearson_correlation(series)
        noise = sample_gumbel_noise(np.random.default_rng(106), 6)
        label = 1

        state = init_model(config)
        loss = ad.bce_mean([forward(series, corr, state, noise=noise)], [label])
        loss.backward()

        def loss_value(arrays):
            trial = init_model(config)
            for p, d in zip(trial.parameters(), arrays):
                p.data = d
            out = forward(series, corr, trial, noise=noise)
            return float(ad.bce_mean([out], [label]).data)

        eps = 1e-5
        base = [p.data.copy() for p in state.parameters()]
        worst = 0.0
        for k, p in enumerate(state.parameters()):
            it = np.nditer(p.data, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                plus = [b.copy() for b in base]
                minus = [b.copy() for b in base]
                plus[k][idx] += eps
                minus[k][idx] -= eps
                fd = (loss_value(plus) - loss_value(minus)) / (2.0 * eps)
                an = float(p.grad[idx])
                scale = max(abs(an), abs(fd))
                err = abs(an - fd) / scale if scale > 1e-8 else abs(an - fd)
                worst = max(worst, err)
        assert worst < 1e-4, f"worst full-model gradient error {worst}"

        # per-op spot checks at the tighter tolerance, one for each op the engine ships
        op_rng = np.random.default_rng(7)

        def normal(*shape):
            return op_rng.standard_normal(shape)

        def soft_adjacency():
            return op_rng.uniform(0.1, 0.9, (4, 4))

        delta = normal(4, 4)
        cases = [
            (lambda ts: sum_all(ad.matmul(ts[0], ts[1])), [normal(3, 4), normal(4, 2)]),
            (lambda ts: sum_all(ad.pair_logits(*ts)),
             [normal(4, 3), normal(3), normal(6, 5), normal(5), normal(5, 1), normal(1)]),
            (lambda ts: sum_all(ad.adjacency_norm(ts[0])), [soft_adjacency()]),
            (lambda ts: sum_all(ad.graph_conv(*ts)), [soft_adjacency(), normal(4, 3), normal(3, 5)]),
            (lambda ts: sum_all(ad.gumbel_relax(ts[0], delta, 0.7)), [normal(4, 4)]),
            (lambda ts: sum_all(ad.classifier_head(ts[:1], *ts[1:])),
             [normal(6, 3), normal(18, 5), normal(5), normal(5, 1), normal(1)]),
            (lambda ts: sum_all(ad.classifier_head(ts[:2], *ts[2:])),
             [normal(2, 3), normal(4, 3), normal(18, 5), normal(5), normal(5, 1), normal(1)]),
            (lambda ts: sum_all(ad.bce_mean(ts, [1, 0, 1])),
             [np.array(0.4), np.array(-1.3), np.array(2.1)]),
        ]
        for build, arrays in cases:
            tensors = [Tensor(a, requires_grad=True) for a in arrays]
            build(tensors).backward()

            for i, t in enumerate(tensors):
                numeric = finite_difference_gradient(
                    lambda arrs: float(build([Tensor(a) for a in arrs]).data),
                    [a.copy() for a in arrays],
                    i,
                )
                assert max_rel_error(t.grad, numeric) < 1e-6

        assert time.monotonic() - started < 30.0

    _report(1, "gradient-integrity", check)


def test_criterion_2_equation_oracles():
    """Five operations vs independent brute-force oracles, 1e-12, 100+ cases."""

    def check():
        started = time.monotonic()
        rng = np.random.default_rng(20)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            t = int(rng.integers(3, 12))

            series = rng.standard_normal((n, t))
            corr = pearson_correlation(series)
            assert np.max(np.abs(corr - pearson_textbook(series))) < 1e-12

            cutoff = float(rng.uniform(0.05, 0.95))
            sym = (corr + corr.T) / 2.0
            assert np.array_equal(build_filtered(sym, cutoff), threshold_double_loop(sym, cutoff))

            adj = (rng.uniform(size=(n, n)) < 0.4).astype(float)
            np.fill_diagonal(adj, 0.0)
            got = normalize_adjacency(adj).data
            assert np.max(np.abs(got - normalize_dense_oracle(adj))) < 1e-12

            logits = rng.uniform(LOGIT_05, -LOGIT_05, size=(n, n))  # probabilities 0.05-0.95
            tau = float(rng.uniform(0.5, 2.0))
            g1, g2 = sample_gumbel_noise(rng, n)
            soft = gumbel_sample(Tensor(logits), tau, (g1, g2)).data
            assert np.max(np.abs(soft - gumbel_elementwise_oracle(logits, tau, g1, g2))) < 1e-12

            m = int(rng.integers(4, 16))
            probs = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=m)
            labels = rng.integers(0, 2, size=m)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert abs(roc_auc(probs, labels) - auc_pair_counting(probs, labels)) < 1e-12

        assert time.monotonic() - started < 10.0

    _report(2, "formula-oracles", check)


def test_criterion_3_gumbel_consistency():
    """Zero noise at unit temperature returns theta = sigmoid(logits); Monte Carlo mean at 0.5."""

    def check():
        rng = np.random.default_rng(21)
        logits = rng.uniform(LOGIT_01, -LOGIT_01, size=(8, 8))  # probabilities 0.01-0.99
        zero = np.zeros((8, 8))
        soft = gumbel_sample(Tensor(logits), 1.0, (zero, zero)).data
        off = ~np.eye(8, dtype=bool)
        # exact: the relaxation applies sigmoid to the logits themselves
        assert np.array_equal(soft[off], logistic(logits)[off])

        half = Tensor(np.zeros((2, 2)))  # logit 0: edge probability one half
        total, draws = 0.0, 10_000
        for _ in range(draws):
            g1, g2 = sample_gumbel_noise(rng, 2)
            total += float(gumbel_sample(half, 1.0, (g1, g2)).data[0, 1])
        assert abs(total / draws - 0.5) <= 0.02

    _report(3, "gumbel-consistency", check)


def test_criterion_4_learning_capability(acceptance_data, acceptance_model):
    """Seeded 80x16x64 cohort: stump floor >= 0.9, then test F1 >= 0.85."""

    def check():
        ds = load_dataset(str(acceptance_data["data"]))
        block0 = [i for i in range(16) if planted_blocks(16, 0)[i] == 0]
        feats = []
        for s in ds.subjects:
            corr = np.corrcoef(s.series)
            feats.append(np.mean([corr[i, j] for i in block0 for j in block0 if i < j]))
        floor = stump_best_accuracy(feats, ds.labels)
        assert floor >= 0.9, f"separability floor {floor}"

        assert acceptance_model["metrics"]["f1"] >= 0.85
        assert acceptance_model["train_seconds"] < 600.0

    _report(4, "learning-capability", check)


def test_criterion_5_ablation_ordering(acceptance_data):
    """Full mode stays within 0.05 of the best ablation on the seeded run."""

    def check():
        ds = load_dataset(str(acceptance_data["data"]))
        config = TrainConfig(**{k: v for k, v in ACCEPTANCE_TRAIN_CONFIG.items()})
        table = run_ablation(ds, config)
        scores = {mode: m.f1 for mode, m in table}
        best_ablation = max(scores["no_corr"], scores["no_optim"], scores["no_gconv"])
        assert scores["full"] >= best_ablation - 0.05, scores

    _report(5, "ablation-ordering", check)


def test_criterion_6_determinism(tmp_path):
    """Two identical training runs produce byte-identical artifacts."""

    def check():
        data = tmp_path / "data"
        assert (
            main(["synth", "--out", str(data), "--subjects", "16", "--rois", "8",
                  "--steps", "32", "--seed", "5"])
            == 0
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "learning_rate": 1e-3,
                    "extractor_dim": 8,
                    "gcn_hidden_dim": 8,
                    "gcn_out_dim": 4,
                    "classifier_hidden_dim": 8,
                    "epochs": 8,
                    "patience": 8,
                    "batch_size": 4,
                    "seed": 2,
                }
            )
        )
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run / "model.ckpt"
            out.parent.mkdir()
            assert (
                main(["train", "--data", str(data), "--config", str(config_path),
                      "--out", str(out)])
                == 0
            )
            outs.append(out.parent)
        for name in ("model.ckpt", "model.log.csv", "model.metrics.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    _report(6, "determinism", check)


def test_criterion_7_overfit_sanity():
    """Training on 4 subjects for 200 epochs drives train loss below 0.05."""

    def check():
        ds = generate_synthetic(4, 16, 64, seed=11)
        config = TrainConfig(
            learning_rate=1e-3,
            extractor_dim=32,
            gcn_hidden_dim=64,
            gcn_out_dim=32,
            classifier_hidden_dim=64,
            epochs=200,
            patience=200,
            batch_size=4,
            seed=0,
        )
        _, losses = fit(ds, [0, 1, 2, 3], config)
        assert len(losses) == 200
        assert losses[-1] < 0.05, f"final train loss {losses[-1]}"

    _report(7, "overfit-sanity", check)


def test_criterion_8_structure_inspection(acceptance_data, acceptance_model):
    """cmd_inspect emits well-formed, internally consistent exports."""

    def check():
        out = acceptance_data["root"] / "inspect"
        assert (
            main(
                [
                    "inspect",
                    "--model",
                    str(acceptance_model["ckpt"]),
                    "--data",
                    str(acceptance_data["data"]),
                    "--subject",
                    "s0000",
                    "--top-percent",
                    "2",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        filtered = (out / "edges_filtered.csv").read_text().splitlines()
        optimal = (out / "edges_optimal.csv").read_text().splitlines()
        degrees = (out / "degrees.csv").read_text().splitlines()

        assert filtered[0] == "source,target,weight"
        assert optimal[0] == "source,target,weight"
        assert degrees[0] == "graph,node_id,in_degree"

        n = 16
        for line in filtered[1:]:
            s, t, w = line.split(",")
            assert 0 <= int(s) < int(t) < n
            float(w)
        for line in optimal[1:]:
            s, t, w = line.split(",")
            assert 0 <= int(s) < n and 0 <= int(t) < n and int(s) != int(t)
            assert 0.0 < float(w) < 1.0

        recount = {g: [0] * n for g in ("filtered", "optimal")}
        for line in filtered[1:]:
            s, t, _ = line.split(",")
            recount["filtered"][int(s)] += 1
            recount["filtered"][int(t)] += 1
        for line in optimal[1:]:
            _, t, _ = line.split(",")
            recount["optimal"][int(t)] += 1

        reported = {g: {} for g in ("filtered", "optimal")}
        for line in degrees[1:]:
            graph, node, deg = line.split(",")
            assert int(node) not in reported[graph]
            reported[graph][int(node)] = int(deg)
        for graph in ("filtered", "optimal"):
            assert sorted(reported[graph]) == list(range(n))
            assert [reported[graph][i] for i in range(n)] == recount[graph]

    _report(8, "structure-inspection", check)
