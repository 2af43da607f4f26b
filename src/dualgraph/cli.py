"""Command-line surface: train, eval, ablate, synth, inspect.

Exit codes are a stable contract: 0 success, 2 for usage or input
problems (running out of memory included), 3 when training fails
numerically. Every command is deterministic given identical arguments
and input files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, astuple, fields, replace

import numpy as np

from dualgraph.model import MODES, load_checkpoint, save_checkpoint, subject_graphs
from dualgraph.preprocess import (
    atomic_write, generate_synthetic, load_dataset, save_dataset, pearson_correlation
)
from dualgraph.train import (
    Metrics,
    TrainConfig,
    TrainingDiverged,
    load_train_config,
    run_ablation,
    train_model,
    evaluate,
)


def _metrics_json(metrics: Metrics) -> str:
    return json.dumps(asdict(metrics), indent=2) + "\n"


def _write_text(path: str, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text.encode("utf-8"))


def _check_file_out(path: str) -> None:
    """Reject an ``--out`` naming a directory (or ending in a separator), before any work."""
    if not os.path.basename(path) or os.path.isdir(path):
        raise ValueError(f"--out {path} is a directory, not a file path")


def _check_outputs_spare_inputs(outputs: list, inputs: list) -> None:
    """Reject a command that would write over one of its own inputs, before any work.

    An output that does not exist yet is no input; one that does is
    compared with ``os.path.samefile``, so a link to an input counts too.
    """
    for out in filter(os.path.exists, outputs):
        for path in inputs:
            if os.path.samefile(out, path):
                raise ValueError(f"output {out} is the input {path}; it would be overwritten")


def _dataset_files(directory: str, dataset) -> list:
    """``labels.csv`` and each subject file that ``load_dataset`` read."""
    names = ["labels"] + [s.subject_id for s in dataset.subjects]
    return [os.path.join(directory, f"{name}.csv") for name in names]


def _apply_overrides(config: TrainConfig, args) -> TrainConfig:
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    if getattr(args, "mode", None) is not None:
        config = replace(config, mode=args.mode.replace("-", "_"))
    return config


def cmd_train(args) -> int:
    _check_file_out(args.out)
    dataset = load_dataset(args.data)
    config = _apply_overrides(load_train_config(args.config), args)
    base = os.path.splitext(args.out)[0]
    log_path, metrics_path = base + ".log.csv", base + ".metrics.json"
    inputs = [args.config] + _dataset_files(args.data, dataset)
    _check_outputs_spare_inputs([args.out, log_path, metrics_path], inputs)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    state, metrics, log = train_model(dataset, config)

    save_checkpoint(state, args.out)
    rows = [
        f"{row['epoch']},{row['train_loss']!r},{row['val_f1']!r},{row['val_loss']!r}\n"
        for row in log
    ]
    _write_text(log_path, "epoch,train_loss,val_f1,val_loss\n" + "".join(rows))
    _write_text(metrics_path, _metrics_json(metrics))

    print(f"trained {config.mode} model on {dataset.name}: test F1 {metrics.f1:.4f}")
    print(f"checkpoint: {args.out}")
    print(f"training log: {log_path}")
    print(f"metrics: {metrics_path}")
    return 0


def _load_model_and_data(args) -> tuple:
    """The checkpoint and the dataset, rejecting subjects of another geometry."""
    state, dataset = load_checkpoint(args.model), load_dataset(args.data)
    have, want = (dataset.n_rois, dataset.t_steps), (state.config.n_rois, state.config.t_steps)
    if have != want:
        raise ValueError(
            f"dataset {args.data} holds {have} series (ROIs, steps), "
            f"but checkpoint {args.model} expects {want}"
        )
    return state, dataset


def cmd_eval(args) -> int:
    if args.out:
        _check_file_out(args.out)
    state, dataset = _load_model_and_data(args)
    if args.out:
        _check_outputs_spare_inputs([args.out], [args.model] + _dataset_files(args.data, dataset))
    counts = np.bincount(dataset.labels, minlength=2)
    if not counts.all():  # fail before scoring
        raise ValueError(
            f"dataset {args.data} holds {counts[0]} class-0 and {counts[1]} class-1 "
            "subjects; its AUC needs both classes"
        )
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    metrics = evaluate(state, dataset, list(range(len(dataset))))
    text = _metrics_json(metrics)
    if args.out:
        _write_text(args.out, text)
        print(f"metrics: {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_ablate(args) -> int:
    _check_file_out(args.out)
    dataset = load_dataset(args.data)
    config = _apply_overrides(load_train_config(args.config), args)
    _check_outputs_spare_inputs([args.out], [args.config] + _dataset_files(args.data, dataset))
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    table = run_ablation(dataset, config)
    lines = ["mode," + ",".join(f.name for f in fields(Metrics)) + "\n"]
    for mode, metrics in table:
        lines.append(mode + "," + ",".join(map(repr, astuple(metrics))) + "\n")
    _write_text(args.out, "".join(lines))
    for mode, metrics in table:
        print(f"{mode:<10s} F1 {metrics.f1:.4f}  AUC {metrics.auc:.4f}")
    print(f"ablation table: {args.out}")
    return 0


def cmd_synth(args) -> int:
    dataset = generate_synthetic(args.subjects, args.rois, args.steps, args.seed)
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} subjects ({args.rois}x{args.steps}) to {args.out}")
    return 0


def _write_edges(path: str, edges: list) -> None:
    rows = [f"{source},{target},{weight!r}\n" for source, target, weight in edges]
    _write_text(path, "source,target,weight\n" + "".join(rows))


def _edges(graph: np.ndarray, weights: np.ndarray) -> list:
    """(source, target, weight) for each nonzero entry of ``graph``, row-major."""
    rows, cols = np.nonzero(graph)
    return list(zip(rows.tolist(), cols.tolist(), weights[rows, cols].tolist()))


def _top_edges(edges: list, top_percent: float) -> list:
    """Keep the ceil(p%) heaviest edges; ties resolved by (source, target)."""
    keep = math.ceil(len(edges) * top_percent / 100.0)
    return sorted(edges, key=lambda e: (-e[2], e[0], e[1]))[:keep]


def cmd_inspect(args) -> int:
    if not 0.0 < args.top_percent <= 100.0:
        raise ValueError(f"--top-percent must be in (0, 100], got {args.top_percent}")
    state, dataset = _load_model_and_data(args)
    by_id = {s.subject_id: s for s in dataset.subjects}
    if args.subject not in by_id:
        raise ValueError(f"unknown subject {args.subject!r} in {args.data}")
    subject = by_id[args.subject]
    names = ("edges_filtered", "edges_optimal", "degrees")
    paths = {name: os.path.join(args.out, f"{name}.csv") for name in names}
    inputs = [args.model] + _dataset_files(args.data, dataset)
    _check_outputs_spare_inputs(list(paths.values()), inputs)

    corr = pearson_correlation(subject.series)
    filtered, theta, hard = subject_graphs(subject.series, corr, state)
    n = filtered.shape[0]

    # Undirected edges once with source < target; directed ones as ordered pairs.
    edges = {"filtered": _edges(np.triu(filtered, 1), corr), "optimal": _edges(hard, theta)}
    top = {g: _top_edges(found, args.top_percent) for g, found in edges.items()}

    os.makedirs(args.out, exist_ok=True)
    for g, kept in top.items():
        _write_edges(paths[f"edges_{g}"], kept)

    incident = {  # undirected: both endpoints; directed: the target
        "filtered": [node for edge in top["filtered"] for node in edge[:2]],
        "optimal": [target for _, target, _ in top["optimal"]],
    }
    degrees = {g: np.bincount(nodes, minlength=n).tolist() for g, nodes in incident.items()}
    rows = [f"{g},{node},{degrees[g][node]}\n" for g in degrees for node in range(n)]
    header = "graph,node_id,in_degree\n"
    _write_text(paths["degrees"], header + "".join(rows))

    print(
        f"subject {args.subject}: kept {len(top['filtered'])}/{len(edges['filtered'])} "
        f"filtered and {len(top['optimal'])}/{len(edges['optimal'])} sampled edges"
    )
    print(f"inspection files in {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualgraph",
        description="Train and inspect the dual-graph brain-network classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model and write its artifacts")
    train.add_argument("--data", required=True, help="dataset directory")
    train.add_argument("--config", required=True, help="JSON training config")
    train.add_argument("--out", required=True, help="checkpoint output path")
    train.add_argument("--seed", type=int, help="override the config seed")
    train.add_argument(
        "--mode",
        choices=[mode.replace("_", "-") for mode in MODES],
        help="override the config ablation mode",
    )
    train.set_defaults(func=cmd_train)

    evaluate_p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    evaluate_p.add_argument("--model", required=True, help="checkpoint path")
    evaluate_p.add_argument("--data", required=True, help="dataset directory")
    evaluate_p.add_argument("--out", help="metrics JSON path (default: stdout)")
    evaluate_p.set_defaults(func=cmd_eval)

    ablate = sub.add_parser("ablate", help="train all ablation modes, same splits")
    ablate.add_argument("--data", required=True, help="dataset directory")
    ablate.add_argument("--config", required=True, help="JSON training config")
    ablate.add_argument("--out", required=True, help="ablation table CSV path")
    ablate.add_argument("--seed", type=int, help="override the config seed")
    ablate.set_defaults(func=cmd_ablate)

    synth = sub.add_parser("synth", help="generate a synthetic dataset directory")
    synth.add_argument("--out", required=True, help="output dataset directory")
    synth.add_argument("--subjects", type=int, default=80)
    synth.add_argument("--rois", type=int, default=16)
    synth.add_argument("--steps", type=int, default=64)
    synth.add_argument("--seed", type=int, default=0)
    synth.set_defaults(func=cmd_synth)

    inspect = sub.add_parser(
        "inspect", help="export a subject's graph structure for inspection"
    )
    inspect.add_argument("--model", required=True, help="checkpoint path")
    inspect.add_argument("--data", required=True, help="dataset directory")
    inspect.add_argument("--subject", required=True, help="subject id to inspect")
    inspect.add_argument(
        "--top-percent",
        type=float,
        default=2.0,
        help="keep this percentage of the heaviest edges (default 2)",
    )
    inspect.add_argument("--out", default=".", help="output directory")
    inspect.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # such as numpy's for a config too large to allocate
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
