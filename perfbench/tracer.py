"""Per-layer tracing for the traced run, installed from the benchmark's side.

Each public function listed in ``LAYER_SPANS`` is replaced, under the
name its caller looks up, by a wrapper that records a span (name, start,
end, parent). Every public ``dualgraph.autodiff`` op is wrapped too: the
wrapper counts the op and times its forward, and replaces the VJP stored
on the op's output with a timed call to that same function, tagged with
the layer span that was open when the output was created. Nothing here
changes arithmetic; the benchmark checks that by comparing losses and
checkpoint bytes with an untraced run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
from collections import defaultdict
from contextlib import contextmanager

from probes import FORWARD_EVAL, FORWARD_TRAIN, clock

# (module, attribute, span name). The module is the one whose global
# the caller looks up, e.g. model.py imports edge_probabilities by name.
LAYER_SPANS = (
    ("dualgraph.cli", "load_dataset", "preprocess.load_dataset"),
    ("dualgraph.cli", "load_checkpoint", "model.load_checkpoint"),
    ("dualgraph.cli", "save_checkpoint", "model.save_checkpoint"),
    ("dualgraph.cli", "train_model", "train.train_model"),
    ("dualgraph.cli", "evaluate", "train.evaluate"),
    ("dualgraph.train", "evaluate", "train.evaluate"),
    ("dualgraph.train", "pearson_correlation", "preprocess.pearson_correlation"),
    ("dualgraph.model", "build_filtered", "graphgen.build_filtered"),
    ("dualgraph.model", "edge_probabilities", "graphgen.edge_probabilities"),
    ("dualgraph.model", "gumbel_sample", "graphgen.gumbel_sample"),
    ("dualgraph.model", "harden", "graphgen.harden"),
    ("dualgraph.model", "normalize_adjacency", "model.normalize_adjacency"),
    ("dualgraph.model", "gcn_forward", "model.gcn_forward"),
)


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


def _off_diagonal_density(adjacency) -> float:
    n = adjacency.shape[0]
    return float(adjacency.sum() - adjacency.trace()) / (n * n - n)


class Tracer:
    """Spans kept in memory, plus counters that the spans cannot hold."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.missing = []
        self.recorder = None
        self.eval_depth = 0
        self.reset_counters()

    def reset_counters(self) -> None:
        self.counts = defaultdict(float)
        self.bwd_by_tag = defaultdict(float)
        self.filtered_density = []
        self.sampled_density = []
        self.first_span = len(self.spans)

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, clock(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.stack.pop()
        self.spans[index][2] = clock()

    def _current(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else "none"

    @contextmanager
    def span(self, name: str):
        evaluating = name == FORWARD_EVAL
        self.eval_depth += evaluating
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            self.eval_depth -= evaluating

    def _span_wrapper(self, name, fn, after=None):
        def wrapped(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(args, out)
            return out

        return wrapped

    # -- installation --------------------------------------------------
    def install(self, recorder) -> None:
        """Wrap the listed functions and every autodiff op.

        ``recorder`` already wraps ``Adam`` and ``forward``; it opens this
        tracer's spans for them, and its open step tells the op wrappers
        whether an op belongs to a training step.
        """
        from dualgraph import autodiff

        self.recorder = recorder

        after = {
            "preprocess.load_dataset": self._after_load_dataset,
            "graphgen.build_filtered": lambda a, out: self.filtered_density.append(
                _off_diagonal_density(out)
            ),
            "graphgen.harden": lambda a, out: self.sampled_density.append(
                _off_diagonal_density(out)
            ),
            "graphgen.edge_probabilities": self._after_edge_probabilities,
        }
        for module_name, attr, span in LAYER_SPANS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._span_wrapper(span, fn, after.get(span)))

        recorder.span = self.span
        self._install_backward(autodiff)
        for name, fn in list(vars(autodiff).items()):
            if self._is_op(autodiff, name, fn):
                setattr(autodiff, name, self._op_wrapper(name, fn))

    @staticmethod
    def _is_op(autodiff, name, fn) -> bool:
        if name.startswith("_") or not inspect.isfunction(fn):
            return False
        if fn.__module__ != autodiff.__name__:
            return False
        returns = inspect.signature(fn).return_annotation
        return returns in ("Tensor", autodiff.Tensor)

    def _install_backward(self, autodiff) -> None:
        backward = autodiff.Tensor.backward
        tracer = self

        def traced_backward(tensor):
            with tracer.span("autodiff.backward"):
                return backward(tensor)

        autodiff.Tensor.backward = traced_backward

    def _after_load_dataset(self, args, out) -> None:
        directory = args[0]
        self.counts["dataset_bytes"] += sum(
            os.path.getsize(os.path.join(directory, name)) for name in os.listdir(directory)
        )
        self.counts["dataset_loads"] += 1

    def _after_edge_probabilities(self, args, out) -> None:
        self.counts["edge_calls"] += 1
        self.counts["edge_pairs"] += out.shape[0] * out.shape[1]

    def _op_wrapper(self, name, fn):
        is_matmul = name == "matmul"

        def traced_op(*args, **kwargs):
            start = clock()
            out = fn(*args, **kwargs)
            elapsed = clock() - start
            c = self.counts
            c["ops"] += 1
            c["fwd_s." + name] += elapsed
            in_step = self.recorder.step_start is not None
            if in_step:
                c["step_ops"] += 1
            flop = 0.0
            if is_matmul:
                m, k = args[0].data.shape
                flop = 2.0 * m * k * args[1].data.shape[1]
                c["matmul_fwd_flop"] += flop
            vjp = out._vjp
            if vjp is None:
                return out
            if in_step:
                c["step_tape_nodes"] += 1
            if self.eval_depth:
                c["eval_tape_nodes"] += 1
            tag = self._current()
            parents = out._parents

            def timed_vjp(g):
                begin = clock()
                grads = vjp(g)
                spent = clock() - begin
                cc = self.counts
                self.bwd_by_tag[tag] += spent
                cc["bwd_s." + name] += spent
                for parent, pgrad in zip(parents, grads):
                    if pgrad is not None:
                        cc["vjp_products"] += 1
                        cc["vjp_useful"] += bool(parent.requires_grad)
                        if is_matmul:
                            cc["matmul_bwd_flop"] += flop
                return grads

            out._vjp = timed_vjp
            return out

        return traced_op

    # -- results -------------------------------------------------------
    def snapshot(self) -> dict:
        """Aggregates since the last reset, then reset the counters.

        Call it at the end of an invocation, before the recorder resets.
        """
        self.counts["steps"] = len(self.recorder.steps)
        self.counts["adam_params"] = self.recorder.adam_params
        self.counts["eval_forwards"] = sum(
            s[0] == FORWARD_EVAL for s in self.spans[self.first_span :]
        )
        spans = self.spans[self.first_span :]
        offset = self.first_span
        inclusive = defaultdict(float)
        child_time = defaultdict(float)
        for name, start, end, parent in spans:
            inclusive[name] += end - start
            if parent >= offset:
                child_time[parent] += end - start
        head_self = 0.0
        validation = 0.0
        for i, (name, start, end, parent) in enumerate(spans, start=offset):
            if name in (FORWARD_TRAIN, FORWARD_EVAL):
                head_self += (end - start) - child_time[i]
            if name == FORWARD_EVAL and self._under_training(parent):
                validation += end - start
        result = {
            "inclusive_s": dict(inclusive),
            "bwd_by_tag_s": dict(self.bwd_by_tag),
            "counts": dict(self.counts),
            "head_self_s": head_self,
            "validation_s": validation,
            "filtered_density": _mean(self.filtered_density),
            "sampled_density": _mean(self.sampled_density),
        }
        self.reset_counters()
        return result

    def _under_training(self, index: int) -> bool:
        """True when a span sits inside train_model but not inside evaluate."""
        while index >= 0:
            name = self.spans[index][0]
            if name == "train.evaluate":
                return False
            if name == "train.train_model":
                return True
            index = self.spans[index][3]
        return False

    def dump(self, path: str, rep_bounds: list) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "repetition_first_span": rep_bounds,
                    "spans": self.spans,
                },
                fh,
            )
