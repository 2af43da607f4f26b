"""End-to-end command-line tests: artifacts, determinism, exit codes."""

import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dualgraph import cli, model as model_module, train as train_module
from dualgraph.cli import main
from dualgraph.model import init_model, load_checkpoint

from test_model import checkpoint_with_header, checkpoint_bytes, rewrite_checkpoint_header
from test_preprocess import CSV_BYTES
from dualgraph.preprocess import BoldMatrix, Dataset, load_dataset, save_dataset
from dualgraph.train import split
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

    def test_seed_flag_trains_as_the_seed_in_the_config_does(self, workspace, tmp_path):
        (tmp_path / "seed7.json").write_text(json.dumps({**CONFIG, "seed": 7}))
        runs = {}
        for name, config, flags in [("flag", workspace["config"], ["--seed", "7"]),
                                    ("file", tmp_path / "seed7.json", [])]:
            out = tmp_path / name / "model.ckpt"
            code = main(["train", "--data", str(workspace["data"]), "--config", str(config),
                         "--out", str(out), *flags])
            assert code == 0
            runs[name] = [(out.parent / f).read_bytes()
                          for f in ("model.ckpt", "model.log.csv", "model.metrics.json")]
        assert runs["flag"] == runs["file"]
        assert runs["flag"][0] != workspace["ckpt"].read_bytes()  # seed 1's run differs

    def test_a_config_holding_a_json_array_exits_2(self, workspace, tmp_path, capsys):
        config = tmp_path / "list.json"
        config.write_text(json.dumps([CONFIG]))
        out = tmp_path / "out" / "x.ckpt"
        code = main(["train", "--data", str(workspace["data"]), "--config", str(config), "--out", str(out)])
        assert code == 2
        assert f"{config}: expected a JSON object" in capsys.readouterr().err
        assert not out.parent.exists()

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

    # 5e-324 is finite, but its reciprocal overflows
    @pytest.mark.parametrize(
        "field,value", [("temperature", float("nan")), ("learning_rate", float("nan")), ("temperature", 5e-324)]
    )
    def test_bad_config_value_exits_2_before_training(self, workspace, tmp_path, monkeypatch, capsys, field, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(CONFIG, **{field: value})))
        monkeypatch.setattr(train_module, "_epoch_pass", lambda *args: pytest.fail("trained"))
        out = tmp_path / "run" / "model.ckpt"
        code = main(["train", "--data", str(workspace["data"]), "--config", str(bad), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and field in err
        assert not out.exists() and not list(tmp_path.rglob("*.tmp"))

    def test_the_smallest_accepted_temperature_trains(self, workspace, tmp_path, capsys):
        # (z + delta) / 1e-308 overflows to +-inf, which the relaxation
        # saturates to exactly 1 or 0 without a RuntimeWarning.
        config = tmp_path / "tiny-tau.json"
        config.write_text(json.dumps(dict(CONFIG, gcn_out_dim=8, temperature=1e-308)))
        out = tmp_path / "run" / "model.ckpt"
        code = main(["train", "--data", str(workspace["data"]), "--config", str(config), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert load_checkpoint(str(out)).config.temperature == 1e-308
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("where", ["init", "save"])
    def test_out_of_memory_exits_2_with_one_error_line(self, workspace, tmp_path, monkeypatch, capsys, where):
        # Raised in place of numpy's MemoryError for an oversized config
        # (at init) or while the checkpoint is being written.
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 5.82 TiB for an array with shape (8, 100000000000)")

        if where == "init":
            monkeypatch.setattr(train_module, "init_model", no_memory)
        else:
            monkeypatch.setattr(model_module.struct, "pack", no_memory)
        out = tmp_path / "run" / "model.ckpt"
        code = main(["train", "--data", str(workspace["data"]), "--config", str(workspace["config"]),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1
        assert list(out.parent.iterdir()) == []  # no checkpoint and no .tmp file

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

    def test_eval_of_the_saved_test_split_reproduces_the_trained_metrics(self, workspace, tmp_path):
        # train scores its test split through the chunked path eval takes
        dataset = load_dataset(str(workspace["data"]))
        test = [dataset.subjects[i] for i in split(dataset, CONFIG["seed"]).test]
        save_dataset(Dataset(name="test", subjects=test), str(tmp_path / "test"))
        out = tmp_path / "eval.json"
        argv = ["eval", "--model", str(workspace["ckpt"]), "--data", str(tmp_path / "test")]
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == (workspace["ckpt"].parent / "model.metrics.json").read_bytes()

    def test_eval_to_stdout(self, workspace, capsys):
        code = main(
            ["eval", "--model", str(workspace["ckpt"]), "--data", str(workspace["data"])]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "f1" in payload

    def test_eval_dimension_mismatch_exits_2(self, workspace, tmp_path, monkeypatch, capsys):
        other = tmp_path / "other"
        assert main(["synth", "--out", str(other), "--subjects", "4", "--rois", "10", "--steps", "32"]) == 0
        monkeypatch.setattr(train_module, "forward", lambda *args, **kwargs: pytest.fail("scored"))
        ckpt, out = workspace["ckpt"], tmp_path / "scores" / "eval.json"
        code = main(["eval", "--model", str(ckpt), "--data", str(other), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"dataset {other} holds (10, 32)" in err and f"checkpoint {ckpt} expects (8, 32)" in err
        assert not out.parent.exists()

    def test_eval_on_a_one_class_dataset_exits_2_before_scoring(self, workspace, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(2)
        controls = [BoldMatrix(f"s{i}", rng.standard_normal((8, 32)), 0) for i in range(3)]
        data = tmp_path / "controls"
        save_dataset(Dataset(name="controls", subjects=controls), str(data))
        monkeypatch.setattr(train_module, "forward", lambda *args, **kwargs: pytest.fail("scored"))
        out = tmp_path / "scores" / "eval.json"
        code = main(["eval", "--model", str(workspace["ckpt"]), "--data", str(data), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"dataset {data} holds 3 class-0 and 0 class-1 subjects" in err
        assert "Traceback" not in err and not out.parent.exists()

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
        "field,value",
        [("n_rois", 8.0), ("temperature", float("nan")), ("temperature", 5e-324), ("mode", "sideways")],
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

    def test_eval_on_a_labels_file_listing_an_id_twice_exits_2(self, tmp_path, capsys, workspace):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        with open(data / "labels.csv", "a") as fh:
            fh.write("s0003,1\n")
        code = main(["eval", "--model", str(workspace["ckpt"]), "--data", str(data)])
        assert code == 2
        assert f"{data / 'labels.csv'}: duplicate subject ids" in capsys.readouterr().err

    @pytest.mark.parametrize("ending", [b"\n", b"\r\n"])  # numpy's C reader, then the row parser
    @pytest.mark.parametrize("value", [b"nan", b"inf", b"1e999"])
    def test_eval_on_a_non_finite_value_exits_2(self, tmp_path, capsys, workspace, value, ending):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        subject = data / "s0004.csv"
        rows = subject.read_bytes().split(b"\n")[:-1]
        rows[2] = rows[2].replace(b",", b"," + value + b",", 1).rsplit(b",", 1)[0]
        subject.write_bytes(b"".join(row + ending for row in rows))
        code = main(["eval", "--model", str(workspace["ckpt"]), "--data", str(data)])
        assert code == 2
        assert "error: subject s0004: series has non-finite values" in capsys.readouterr().err

    def test_eval_on_a_labels_line_holding_a_form_feed_exits_2(self, tmp_path, capsys, workspace):
        # A form feed does not end a line: this is one row of three fields.
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        (data / "labels.csv").write_text("subject_id,label\ns0000,0\x0cs0001,1\n", newline="")
        code = main(["eval", "--model", str(workspace["ckpt"]), "--data", str(data)])
        assert code == 2
        assert "labels.csv: row 2: expected 2 fields" in capsys.readouterr().err


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
        assert f"dataset {other}" in err and f"checkpoint {workspace['ckpt']}" in err
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


class TestOutNamingADirectory:
    @pytest.mark.parametrize("command", ["train", "ablate", "eval"])
    @pytest.mark.parametrize("existing", [True, False])
    def test_exits_2_before_any_loading_or_work(
        self, workspace, tmp_path, monkeypatch, capsys, command, existing
    ):
        for name in ("load_dataset", "load_checkpoint", "train_model", "run_ablation", "evaluate"):
            monkeypatch.setattr(cli, name, lambda *args, _name=name, **kwargs: pytest.fail(_name))
        target = tmp_path / "out"
        if existing:
            target.mkdir()
            out = str(target)
        else:  # a trailing separator names a directory that is not there yet
            out = str(target) + os.sep
        inputs = (
            ["--model", str(workspace["ckpt"]), "--data", str(workspace["data"])]
            if command == "eval"
            else ["--data", str(workspace["data"]), "--config", str(workspace["config"])]
        )
        code = main([command, *inputs, "--out", out])
        err = capsys.readouterr().err
        assert code == 2
        assert f"--out {out} is a directory" in err and "Traceback" not in err
        assert list(tmp_path.rglob("*")) == ([target] if existing else [])


def _input_cases(root, workspace):
    """(argv, output, input) for each way an output can name one of the command's inputs."""
    data, ckpt, config = root / "data", root / "model.ckpt", root / "config.json"
    shutil.copytree(workspace["data"], data)
    shutil.copy(workspace["ckpt"], ckpt)
    shutil.copy(workspace["config"], config)
    log_config = root / "model.log.csv"  # the log train writes beside --out model.ckpt
    shutil.copy(config, log_config)
    (root / "alias").symlink_to(root, target_is_directory=True)
    (data / "s0001.csv").rename(data / "degrees.csv")  # inspect writes a degrees.csv
    labels = data / "labels.csv"
    labels.write_text(labels.read_text().replace("s0001,", "degrees,"))
    model, train = ["--model", ckpt, "--data", data], ["--data", data, "--config", config]
    return {
        "eval-checkpoint": (["eval", *model, "--out", ckpt], ckpt, ckpt),
        "eval-through-a-link": (["eval", *model, "--out", root / "alias" / "model.ckpt"],
                                root / "alias" / "model.ckpt", ckpt),
        "train-config": (["train", *train, "--out", config], config, config),
        "train-labels": (["train", *train, "--out", labels], labels, labels),
        "train-log": (["train", "--data", data, "--config", log_config, "--out", ckpt],
                      log_config, log_config),
        "ablate-subject": (["ablate", *train, "--out", data / "s0002.csv"],
                           data / "s0002.csv", data / "s0002.csv"),
        "inspect-subject": (["inspect", *model, "--subject", "s0000", "--out", data],
                            data / "degrees.csv", data / "degrees.csv"),
    }


class TestOutNamingAnInput:
    @pytest.mark.parametrize(
        "case",
        ["eval-checkpoint", "eval-through-a-link", "train-config", "train-labels", "train-log",
         "ablate-subject", "inspect-subject"],
    )
    def test_exits_2_before_any_work_and_leaves_the_input(
        self, workspace, tmp_path, monkeypatch, capsys, case
    ):
        for name in ("train_model", "run_ablation", "evaluate", "subject_graphs"):
            monkeypatch.setattr(cli, name, lambda *args, _name=name, **kwargs: pytest.fail(_name))
        argv, out, path = _input_cases(tmp_path, workspace)[case]
        before = path.read_bytes()
        code = main([str(arg) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert f"output {out} is the input {path}" in err and "Traceback" not in err
        assert path.read_bytes() == before
        assert not list(tmp_path.rglob("*.tmp"))


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
