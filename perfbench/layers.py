"""Metric definitions and the per-layer numbers derived from a traced run.

``END_TO_END`` and ``PER_LAYER`` are the source of BENCHMARK.json's metric
lists (the tests check that the two agree). Each per-layer entry names
the end-to-end metric and workload it is expected to move, written down
before any optimisation so that a claimed gain can be checked against it.
"""

from __future__ import annotations

from probes import FORWARD_EVAL, FORWARD_TRAIN

# name, unit, better, bound
END_TO_END = (
    ("train_subjects_per_s", "1/s", "higher", 0.25),
    ("train_step_ms_p50", "ms", "lower", 0.25),
    ("train_step_ms_tail", "ms", "lower", 0.25),
    ("eval_subjects_per_s", "1/s", "higher", 0.25),
    ("eval_subject_ms_p50", "ms", "lower", 0.25),
    ("eval_subject_ms_tail", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
)

_PAPER_EVAL = ("eval_subjects_per_s", "train-paper")
_PAPER_TRAIN = ("train_subjects_per_s", "train-paper")
_ACCEPT_TRAIN = ("train_subjects_per_s", "train-acceptance")
_SETUP = ("setup_s", "train-paper")

# name, unit, better, (end-to-end metric it should move, on which workload)
PER_LAYER = (
    ("preprocess.load_dataset_s", "s", "lower", _SETUP),
    ("preprocess.load_dataset_mb", "MB", "lower", _SETUP),
    ("preprocess.pearson_correlation_s", "s", "lower", _SETUP),
    ("graphgen.edge_probabilities.fwd_s", "s", "lower", _PAPER_EVAL),
    ("graphgen.edge_probabilities.bwd_s", "s", "lower", _PAPER_TRAIN),
    ("graphgen.edge_probabilities.calls", "count", "lower", _PAPER_EVAL),
    ("graphgen.edge_probabilities.pairs", "count", "lower", _PAPER_EVAL),
    ("graphgen.gumbel_sample.fwd_s", "s", "lower", _PAPER_TRAIN),
    ("graphgen.gumbel_sample.bwd_s", "s", "lower", _PAPER_TRAIN),
    ("model.forward.train_s", "s", "lower", _PAPER_TRAIN),
    ("model.forward.eval_s", "s", "lower", _PAPER_EVAL),
    ("model.normalize_adjacency.fwd_s", "s", "lower", _PAPER_EVAL),
    ("model.normalize_adjacency.bwd_s", "s", "lower", _ACCEPT_TRAIN),
    ("model.gcn_forward.fwd_s", "s", "lower", _PAPER_EVAL),
    ("model.gcn_forward.bwd_s", "s", "lower", _PAPER_TRAIN),
    ("model.head.fwd_s", "s", "lower", _PAPER_EVAL),
    ("model.head.bwd_s", "s", "lower", _PAPER_TRAIN),
    ("model.eval_tape_nodes_per_subject", "count", "lower", _PAPER_EVAL),
    ("model.load_checkpoint_s", "s", "lower", _SETUP),
    ("model.save_checkpoint_s", "s", "lower", _PAPER_TRAIN),
    ("autodiff.matmul.fwd_s", "s", "lower", _PAPER_TRAIN),
    ("autodiff.matmul.bwd_s", "s", "lower", _PAPER_TRAIN),
    ("autodiff.matmul.fwd_gflop", "computed-GFLOP", "lower", _PAPER_TRAIN),
    ("autodiff.matmul.bwd_gflop", "computed-GFLOP", "lower", _PAPER_TRAIN),
    ("autodiff.vjp_useful_ratio", "ratio", "higher", _PAPER_TRAIN),
    ("autodiff.vjp_products_per_step", "count", "lower", _PAPER_TRAIN),
    ("autodiff.backward_s", "s", "lower", _ACCEPT_TRAIN),
    ("autodiff.ops_per_step", "count", "lower", _ACCEPT_TRAIN),
    ("autodiff.tape_nodes_per_step", "count", "lower", ("peak_rss_mb", "train-paper")),
    ("train.adam_step_s", "s", "lower", _PAPER_TRAIN),
    ("train.adam_params", "count", "lower", _PAPER_TRAIN),
    ("train.validation_s", "s", "lower", _ACCEPT_TRAIN),
    ("cli.train_s", "s", "lower", _ACCEPT_TRAIN),
    ("cli.eval_s", "s", "lower", _PAPER_EVAL),
    ("cli.trace_overhead_ratio", "ratio", "lower", None),
)

END_TO_END_NAMES = tuple(m[0] for m in END_TO_END)
PER_LAYER_NAMES = tuple(m[0] for m in PER_LAYER)
UNITS = {m[0]: m[1] for m in END_TO_END + PER_LAYER}


def _sum(invocations: list, section: str, key: str) -> float:
    return sum(inv["trace"][section].get(key, 0.0) for inv in invocations)


def mean_of(invocations: list, key: str) -> float:
    values = [inv["trace"][key] for inv in invocations if inv["trace"][key]]
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(traced: list, reference: list) -> dict:
    """Per-layer metrics from one traced repetition of every phase.

    Times are seconds summed over that repetition; per-step and
    per-subject counts are averages over it. ``reference`` holds the
    same repetition of the untraced run, for the overhead ratio.
    """
    incl = lambda key: _sum(traced, "inclusive_s", key)  # noqa: E731
    bwd = lambda key: _sum(traced, "bwd_by_tag_s", key)  # noqa: E731
    count = lambda key: _sum(traced, "counts", key)  # noqa: E731
    steps = count("steps")
    wall = lambda invs, cmd: sum(i["wall_s"] for i in invs if i["command"] == cmd)  # noqa: E731
    loads = count("dataset_loads")
    return {
        "preprocess.load_dataset_s": incl("preprocess.load_dataset"),
        "preprocess.load_dataset_mb": _ratio(count("dataset_bytes"), loads) / 1e6,
        "preprocess.pearson_correlation_s": incl("preprocess.pearson_correlation"),
        "graphgen.edge_probabilities.fwd_s": incl("graphgen.edge_probabilities"),
        "graphgen.edge_probabilities.bwd_s": bwd("graphgen.edge_probabilities"),
        "graphgen.edge_probabilities.calls": count("edge_calls"),
        "graphgen.edge_probabilities.pairs": count("edge_pairs"),
        "graphgen.gumbel_sample.fwd_s": incl("graphgen.gumbel_sample"),
        "graphgen.gumbel_sample.bwd_s": bwd("graphgen.gumbel_sample"),
        "model.forward.train_s": incl(FORWARD_TRAIN),
        "model.forward.eval_s": incl(FORWARD_EVAL),
        "model.normalize_adjacency.fwd_s": incl("model.normalize_adjacency"),
        "model.normalize_adjacency.bwd_s": bwd("model.normalize_adjacency"),
        "model.gcn_forward.fwd_s": incl("model.gcn_forward"),
        "model.gcn_forward.bwd_s": bwd("model.gcn_forward"),
        "model.head.fwd_s": sum(inv["trace"]["head_self_s"] for inv in traced),
        "model.head.bwd_s": bwd(FORWARD_TRAIN) + bwd(FORWARD_EVAL),
        "model.eval_tape_nodes_per_subject": _ratio(
            count("eval_tape_nodes"), count("eval_forwards")
        ),
        "model.load_checkpoint_s": incl("model.load_checkpoint"),
        "model.save_checkpoint_s": incl("model.save_checkpoint"),
        "autodiff.matmul.fwd_s": count("fwd_s.matmul"),
        "autodiff.matmul.bwd_s": count("bwd_s.matmul"),
        "autodiff.matmul.fwd_gflop": count("matmul_fwd_flop") / 1e9,
        "autodiff.matmul.bwd_gflop": count("matmul_bwd_flop") / 1e9,
        "autodiff.vjp_useful_ratio": _ratio(count("vjp_useful"), count("vjp_products")),
        "autodiff.vjp_products_per_step": _ratio(count("vjp_products"), steps),
        "autodiff.backward_s": incl("autodiff.backward"),
        "autodiff.ops_per_step": _ratio(count("step_ops"), steps),
        "autodiff.tape_nodes_per_step": _ratio(count("step_tape_nodes"), steps),
        "train.adam_step_s": incl("train.adam_step"),
        "train.adam_params": max(inv["trace"]["counts"].get("adam_params", 0.0) for inv in traced),
        "train.validation_s": sum(inv["trace"]["validation_s"] for inv in traced),
        "cli.train_s": wall(traced, "train"),
        "cli.eval_s": wall(traced, "eval"),
        "cli.trace_overhead_ratio": _ratio(
            sum(i["wall_s"] for i in traced), sum(i["wall_s"] for i in reference)
        ),
    }


def blas_comparison(default: list, one_thread: list) -> dict:
    """Untraced throughput with the default BLAS threads and with one thread."""

    def rates(invocations):
        train = [i for i in invocations if i["command"] == "train"]
        evals = [i for i in invocations if i["command"] == "eval"]
        return {
            "train_subjects_per_s": _ratio(
                sum(i["train_subjects"] for i in train), sum(i["wall_s"] for i in train)
            ),
            "eval_subjects_per_s": _ratio(
                sum(len(i["eval_times"]) for i in evals), sum(i["score_s"] for i in evals)
            ),
        }

    return {"default_threads": rates(default), "one_thread": rates(one_thread)}
