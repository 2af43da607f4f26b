"""End-to-end command-line tests: artifacts, determinism, exit codes."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dualgraph import train as train_module
from dualgraph.cli import main
from dualgraph.model import init_model, load_checkpoint

from test_model import checkpoint_with_header, checkpoint_bytes, rewrite_checkpoint_header
from test_preprocess import CSV_BYTES
from dualgraph.preprocess import save_dataset
from test_train import one_sided_cohort, poison_gumbel_vjp

CONFIG = {
    "learning_rate": 1e-2,
    "extractor_dim": 8,
    "gcn_hidden_dim": 8,
    "gcn_out_dim": 4,
    "classifier_hidden_dim": 8,
    "epochs": 3,
    "patience": 3,
    "batch_size": 4,
    "seed": 1,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert (
        main(
            [
                "synth",
                "--out",
                str(data),
                "--subjects",
                "12",
                "--rois",
                "8",
                "--steps",
                "32",
                "--seed",
                "3",
            ]
        )
        == 0
    )
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    ckpt = root / "run" / "model.ckpt"
    ckpt.parent.mkdir()
    assert (
        main(["train", "--data", str(data), "--config", str(config), "--out", str(ckpt)])
        == 0
    )
    return {"root": root, "data": data, "config": config, "ckpt": ckpt}


class TestTrainCommand:
    def test_artifacts_exist(self, workspace):
        run = workspace["ckpt"].parent
        assert workspace["ckpt"].exists()
        assert (run / "model.log.csv").exists()
        assert (run / "model.metrics.json").exists()

    def test_log_is_well_formed(self, workspace):
        lines = (workspace["ckpt"].parent / "model.log.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_f1,val_loss"
        for line in lines[1:]:
            epoch, train_loss, val_f1, val_loss = line.split(",")
            int(epoch)
            for v in (train_loss, val_f1, val_loss):
                assert np.isfinite(float(v))

    def test_metrics_json_keys(self, workspace):
        payload = json.loads((workspace["ckpt"].parent / "model.metrics.json").read_text())
        assert list(payload) == ["f1", "sensitivity", "specificity", "auc", "tp", "fp", "tn", "fn"]

    def test_rerun_is_byte_identical(self, workspace):
        rerun = workspace["root"] / "rerun" / "model.ckpt"
        rerun.parent.mkdir()
        code = main(
            [
                "train",
                "--data",
                str(workspace["data"]),
                "--config",
                str(workspace["config"]),
                "--out",
                str(rerun),
            ]
        )
        assert code == 0
        for name in ("model.ckpt", "model.log.csv", "model.metrics.json"):
            first = (workspace["ckpt"].parent / name).read_bytes()
            second = (rerun.parent / name).read_bytes()
            assert first == second, f"{name} differs between identical runs"

    def test_missing_data_flag_exits_2_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", "c.json", "--out", "m.ckpt"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, workspace, capsys):
        bad = workspace["root"] / "bad.json"
        bad.write_text(json.dumps({"learning_rte": 0.1}))
        code = main(
            [
                "train",
                "--data",
                str(workspace["data"]),
                "--config",
                str(bad),
                "--out",
                str(workspace["root"] / "x.ckpt"),
            ]
        )
        assert code == 2
        assert "learning_rte" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_deeply_nested_config_exits_2_naming_the_file(self, workspace, tmp_path, capsys, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        out = tmp_path / "out" / "x.ckpt"
        code = main([command, "--data", str(workspace["data"]), "--config", str(deep), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert str(deep) in err and "recursion" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a learning rate of 1e150 overflows
    def test_divergence_exits_3(self, workspace, capsys):
        bad = workspace["root"] / "diverge.json"
        config = dict(CONFIG)
        config["learning_rate"] = 1e150
        bad.write_text(json.dumps(config))
        code = main(
            [
                "train",
                "--data",
                str(workspace["data"]),
                "--config",
                str(bad),
                "--out",
                str(workspace["root"] / "d.ckpt"),
            ]
        )
        assert code == 3
        assert "epoch" in capsys.readouterr().err

    def test_saturated_edge_logits_train_with_finite_gradients(self, workspace, monkeypatch):
        def saturated_init(config):
            state = init_model(config)
            state.scorer.pair_b2.data = np.array([40.0])
            return state

        monkeypatch.setattr(train_module, "init_model", saturated_init)
        out = workspace["root"] / "saturated.ckpt"
        code = main(
            ["train", "--data", str(workspace["data"]), "--config", str(workspace["config"]), "--out", str(out)]
        )
        assert code == 0
        assert all(np.isfinite(p.data).all() for p in load_checkpoint(str(out)).parameters())

    def test_non_finite_gradient_exits_3_naming_the_batch(self, workspace, monkeypatch, capsys):
        poison_gumbel_vjp(monkeypatch)
        out = workspace["root"] / "poisoned.ckpt"
        code = main(
            ["train", "--data", str(workspace["data"]), "--config", str(workspace["config"]), "--out", str(out)]
        )
        assert code == 3
        assert "non-finite gradient at epoch 1, batch 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_single_class_test_split_exits_2_before_training(self, workspace, tmp_path, monkeypatch, capsys, command):
        data = tmp_path / "one-sided"
        save_dataset(one_sided_cohort(), str(data))
        monkeypatch.setattr(train_module, "_epoch_pass", lambda *args: pytest.fail("trained"))
        out = tmp_path / "run" / "model.ckpt"
        code = main([command, "--data", str(data), "--config", str(workspace["config"]), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "4 class-0 and 0 class-1" in err and "Traceback" not in err
        assert list(out.parent.iterdir()) == []

    @pytest.mark.parametrize("field", ["temperature", "learning_rate"])
    def test_nan_config_value_exits_2(self, workspace, capsys, field):
        bad = workspace["root"] / f"nan-{field}.json"
        bad.write_text(json.dumps(dict(CONFIG, **{field: float("nan")})))
        out = workspace["root"] / "nan.ckpt"
        code = main(["train", "--data", str(workspace["data"]), "--config", str(bad), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert field in err and "Traceback" not in err
        assert not out.exists()

    def test_out_directory_is_created(self, workspace, monkeypatch):
        monkeypatch.chdir(workspace["root"])
        code = main(
            ["train", "--data", str(workspace["data"]), "--config", str(workspace["config"]),
             "--out", "fresh/run/model.ckpt"]
        )
        assert code == 0
        written = sorted(p.name for p in (workspace["root"] / "fresh" / "run").iterdir())
        assert written == ["model.ckpt", "model.log.csv", "model.metrics.json"]

    def test_mode_override(self, workspace):
        out = workspace["root"] / "nc" / "model.ckpt"
        out.parent.mkdir()
        code = main(
            [
                "train",
                "--data",
                str(workspace["data"]),
                "--config",
                str(workspace["config"]),
                "--out",
                str(out),
                "--mode",
                "no-corr",
            ]
        )
        assert code == 0
        assert load_checkpoint(str(out)).config.mode == "no_corr"


class TestEvalCommand:
    def test_eval_writes_metrics(self, workspace):
        out = workspace["root"] / "eval.json"
        code = main(
            [
                "eval",
                "--model",
                str(workspace["ckpt"]),
                "--data",
                str(workspace["data"]),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"f1", "sensitivity", "specificity", "auc", "tp", "fp", "tn", "fn"}
        assert payload["tp"] + payload["fp"] + payload["tn"] + payload["fn"] == 12

    def test_eval_to_stdout(self, workspace, capsys):
        code = main(
            ["eval", "--model", str(workspace["ckpt"]), "--data", str(workspace["data"])]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "f1" in payload

    def test_eval_dimension_mismatch_exits_2(self, workspace, tmp_path, capsys):
        other = tmp_path / "other"
        assert main(["synth", "--out", str(other), "--subjects", "4", "--rois", "10", "--steps", "32"]) == 0
        code = main(["eval", "--model", str(workspace["ckpt"]), "--data", str(other)])
        assert code == 2

    def test_eval_missing_checkpoint_exits_2(self, workspace):
        code = main(
            ["eval", "--model", str(workspace["root"] / "nope.ckpt"), "--data", str(workspace["data"])]
        )
        assert code == 2


    @pytest.mark.parametrize(
        "edit",
        [lambda h: {k: v for k, v in h.items() if k != "params"}, lambda h: dict(h, params=[0])],
        ids=["no-params", "bad-params"],
    )
    def test_eval_malformed_checkpoint_header_exits_2(self, workspace, tmp_path, capsys, edit):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(workspace["ckpt"].read_bytes())
        rewrite_checkpoint_header(bad, edit)
        code = main(["eval", "--model", str(bad), "--data", str(workspace["data"])])
        err = capsys.readouterr().err
        assert code == 2
        assert "malformed checkpoint header" in err and "Traceback" not in err

    def test_eval_non_finite_parameter_exits_2(self, workspace, tmp_path, capsys):
        bad = tmp_path / "nan.ckpt"
        bad.write_bytes(workspace["ckpt"].read_bytes()[:-8] + np.float64("nan").tobytes())
        code = main(["eval", "--model", str(bad), "--data", str(workspace["data"])])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value", [("n_rois", 8.0), ("temperature", float("nan")), ("mode", "sideways")]
    )
    def test_eval_bad_checkpoint_config_exits_2(self, workspace, tmp_path, capsys, field, value):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(workspace["ckpt"].read_bytes())
        rewrite_checkpoint_header(bad, lambda h: dict(h, config=dict(h["config"], **{field: value})))
        code = main(["eval", "--model", str(bad), "--data", str(workspace["data"])])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{bad}: malformed checkpoint header: {field}" in err and "Traceback" not in err

    def test_eval_on_a_header_that_is_not_json_exits_2_naming_the_file(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(checkpoint_with_header(b"{not json}"))
        code = main(["eval", "--model", str(bad), "--data", str(workspace["data"])])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{bad}: malformed checkpoint header: Expecting" in err and "Traceback" not in err

    def test_eval_creates_the_out_directory(self, workspace, tmp_path):
        out = tmp_path / "fresh" / "sub" / "eval.json"
        code = main(
            ["eval", "--model", str(workspace["ckpt"]), "--data", str(workspace["data"]), "--out", str(out)]
        )
        assert code == 0
        assert sorted(p.name for p in out.parent.iterdir()) == ["eval.json"]
        assert "f1" in json.loads(out.read_text())

    def test_eval_subject_id_outside_the_directory_exits_2(self, tmp_path, capsys, workspace):
        data = tmp_path / "data"
        data.mkdir()
        (data / "labels.csv").write_text("subject_id,label\n../s0000,0\n")
        code = main(["eval", "--model", str(workspace["ckpt"]), "--data", str(data)])
        assert code == 2
        assert "not a plain file name" in capsys.readouterr().err


    @given(data=st.data())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_eval_on_any_checkpoint_bytes_exits_0_or_2(self, workspace, data, capsys):
        raw = data.draw(checkpoint_bytes(workspace["ckpt"].read_bytes()))
        path = workspace["root"] / "fuzz.ckpt"
        path.write_bytes(raw)
        try:
            load_checkpoint(str(path))
            expected = 0
        except ValueError:
            expected = 2
        code = main(["eval", "--model", str(path), "--data", str(workspace["data"])])
        assert code == expected
        assert "Traceback" not in capsys.readouterr().err

    @given(target=st.sampled_from(["labels.csv", "s0001.csv"]), content=CSV_BYTES)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_eval_on_any_dataset_file_bytes_exits_2(self, workspace, target, content, capsys):
        data = workspace["root"] / "fuzz-data"
        data.mkdir(exist_ok=True)
        for name in ("labels.csv", "s0001.csv"):
            (data / name).write_bytes((workspace["data"] / name).read_bytes())
        (data / target).write_bytes(content)
        code = main(["eval", "--model", str(workspace["ckpt"]), "--data", str(data)])
        assert code == 2  # a loadable dataset still lacks the other subjects' files
        assert "Traceback" not in capsys.readouterr().err

    def test_eval_on_a_deeply_nested_header_exits_2(self, workspace, tmp_path, capsys):
        bad = tmp_path / "deep.ckpt"
        bad.write_bytes(checkpoint_with_header(b"[" * 100_000))
        code = main(["eval", "--model", str(bad), "--data", str(workspace["data"])])
        err = capsys.readouterr().err
        assert code == 2
        assert "malformed checkpoint header" in err and "Traceback" not in err


class TestInspectCommand:
    def test_inspection_files(self, workspace):
        out = workspace["root"] / "inspect"
        code = main(
            [
                "inspect",
                "--model",
                str(workspace["ckpt"]),
                "--data",
                str(workspace["data"]),
                "--subject",
                "s0000",
                "--top-percent",
                "100",
                "--out",
                str(out),
            ]
        )
        assert code == 0

        filtered = (out / "edges_filtered.csv").read_text().splitlines()
        optimal = (out / "edges_optimal.csv").read_text().splitlines()
        degrees = (out / "degrees.csv").read_text().splitlines()
        assert filtered[0] == "source,target,weight"
        assert optimal[0] == "source,target,weight"
        assert degrees[0] == "graph,node_id,in_degree"

        # undirected edges once, source < target
        for line in filtered[1:]:
            s, t, w = line.split(",")
            assert int(s) < int(t)
            assert -1.0 <= float(w) <= 1.0

        # every node appears exactly once per graph in degrees.csv
        seen = {"filtered": [], "optimal": []}
        for line in degrees[1:]:
            graph, node, deg = line.split(",")
            seen[graph].append(int(node))
            assert int(deg) >= 0
        assert seen["filtered"] == list(range(8))
        assert seen["optimal"] == list(range(8))

        # degree counts equal a brute-force recount from the emitted edges
        recount = {g: [0] * 8 for g in ("filtered", "optimal")}
        for line in filtered[1:]:
            s, t, _ = line.split(",")
            recount["filtered"][int(s)] += 1
            recount["filtered"][int(t)] += 1
        for line in optimal[1:]:
            _, t, _ = line.split(",")
            recount["optimal"][int(t)] += 1
        reported = {g: [0] * 8 for g in ("filtered", "optimal")}
        for line in degrees[1:]:
            graph, node, deg = line.split(",")
            reported[graph][int(node)] = int(deg)
        assert recount == reported

    def test_top_percent_truncates(self, workspace):
        full = workspace["root"] / "inspect_full"
        top = workspace["root"] / "inspect_top"
        for out, pct in ((full, "100"), (top, "10")):
            assert (
                main(
                    [
                        "inspect",
                        "--model",
                        str(workspace["ckpt"]),
                        "--data",
                        str(workspace["data"]),
                        "--subject",
                        "s0001",
                        "--top-percent",
                        pct,
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
        import math

        for name in ("edges_filtered.csv", "edges_optimal.csv"):
            n_full = len((full / name).read_text().splitlines()) - 1
            n_top = len((top / name).read_text().splitlines()) - 1
            assert n_top == math.ceil(n_full * 0.10)
            # truncated list keeps the heaviest edges
            weights_full = sorted(
                (float(line.split(",")[2]) for line in (full / name).read_text().splitlines()[1:]),
                reverse=True,
            )
            weights_top = [
                float(line.split(",")[2]) for line in (top / name).read_text().splitlines()[1:]
            ]
            assert sorted(weights_top, reverse=True) == weights_full[:n_top]

    def test_rerun_is_byte_identical(self, workspace):
        outs = []
        for run in ("ins_a", "ins_b"):
            out = workspace["root"] / run
            assert (
                main(
                    [
                        "inspect",
                        "--model",
                        str(workspace["ckpt"]),
                        "--data",
                        str(workspace["data"]),
                        "--subject",
                        "s0002",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            outs.append(out)
        for name in ("edges_filtered.csv", "edges_optimal.csv", "degrees.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_unknown_subject_exits_2(self, workspace, capsys):
        code = main(
            [
                "inspect",
                "--model",
                str(workspace["ckpt"]),
                "--data",
                str(workspace["data"]),
                "--subject",
                "ghost",
            ]
        )
        assert code == 2
        assert "ghost" in capsys.readouterr().err

    def test_mismatched_dataset_exits_2_naming_the_shapes(self, workspace, tmp_path, capsys):
        other = tmp_path / "other"
        assert main(["synth", "--out", str(other), "--subjects", "4", "--rois", "10", "--steps", "32"]) == 0
        out = tmp_path / "graphs"
        code = main(
            [
                "inspect",
                "--model",
                str(workspace["ckpt"]),
                "--data",
                str(other),
                "--subject",
                "s0000",
                "--out",
                str(out),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "(10, 32)" in err and "(8, 32)" in err
        assert not out.exists()

    def test_bad_top_percent_exits_2(self, workspace):
        for pct in ("0", "101", "-5"):
            code = main(
                [
                    "inspect",
                    "--model",
                    str(workspace["ckpt"]),
                    "--data",
                    str(workspace["data"]),
                    "--subject",
                    "s0000",
                    "--top-percent",
                    pct,
                ]
            )
            assert code == 2


class TestAblateCommand:
    def test_table_shape(self, workspace):
        out = workspace["root"] / "ablation" / "table.csv"  # the directory is created
        code = main(
            [
                "ablate",
                "--data",
                str(workspace["data"]),
                "--config",
                str(workspace["config"]),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mode,f1,sensitivity,specificity,auc,tp,fp,tn,fn"
        assert [line.split(",")[0] for line in lines[1:]] == [
            "full",
            "no_corr",
            "no_optim",
            "no_gconv",
        ]


class TestSynthCommand:
    def test_synth_layout(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--out", str(out), "--subjects", "4", "--rois", "8", "--steps", "32"]) == 0
        labels = (out / "labels.csv").read_text().splitlines()
        assert labels[0] == "subject_id,label"
        assert len(labels) == 5
        assert (out / "s0000.csv").exists()

    def test_synth_rejects_bad_sizes(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "x"), "--subjects", "3"])
        assert code == 2
