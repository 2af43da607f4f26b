"""Light timing hooks used in every run, traced or not.

They time what the end-to-end metrics need and nothing finer: one
mini-batch update from ``Adam.zero_grad`` entry to ``Adam.step`` return,
one ``forward(noise=None)`` call per subject scored by the ``eval``
command, and the time from process start to the first of either (set-up).
They also keep the probabilities ``predict_probabilities`` returns to the
``eval`` command, for the output checks. Each hook costs a few clock
reads per step or subject, which is milliseconds of work at every
benchmark geometry.

These are the only wrappers of ``Adam`` and ``forward``: the traced run
gets its spans for them through ``Recorder.span``, which does nothing
until the tracer replaces it.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

clock = time.perf_counter

FORWARD_TRAIN = "model.forward.train"
FORWARD_EVAL = "model.forward.eval"
ADAM_STEP = "train.adam_step"

_NO_SPAN = nullcontext()


def _no_span(name: str):
    return _NO_SPAN


class SetupReached(BaseException):
    """Ends a set-up probe process at its first step or scored subject.

    A BaseException, so the CLI's error handlers let it through.
    """


def noise_arg(args, kwargs):
    return kwargs["noise"] if "noise" in kwargs else (args[3] if len(args) > 3 else None)


class Recorder:
    """Per-invocation step and subject timings, plus the process set-up time.

    ``t0`` is the parent's ``perf_counter`` reading taken just before this
    process was started; on Linux that clock is system-wide, so the set-up
    time includes interpreter start and imports.
    """

    def __init__(self, t0: float, stop_at_setup: bool = False):
        self.t0 = t0
        self.stop_at_setup = stop_at_setup
        self.setup_s = None
        self.scoring = False
        self.span = _no_span
        self.reset()

    def reset(self) -> None:
        self.steps = []
        self.step_start = None
        self.adam_params = 0
        self.train_subjects = 0
        self.eval_times = []
        self.eval_probabilities = []
        self.score_s = 0.0

    def _first_work(self) -> None:
        if self.setup_s is None:
            self.setup_s = clock() - self.t0
            if self.stop_at_setup:
                raise SetupReached()

    def install(self) -> None:
        from dualgraph import cli, train

        rec = self
        adam = train.Adam
        zero_grad, step = adam.zero_grad, adam.step

        def timed_zero_grad(optimizer):
            rec._first_work()
            if not rec.adam_params:
                rec.adam_params = sum(p.size for p in optimizer.params)
            rec.step_start = clock()
            return zero_grad(optimizer)

        def timed_step(optimizer):
            with rec.span(ADAM_STEP):
                out = step(optimizer)
            rec.steps.append(clock() - rec.step_start)
            rec.step_start = None
            return out

        adam.zero_grad, adam.step = timed_zero_grad, timed_step

        forward = train.forward

        def timed_forward(*args, **kwargs):
            evaluating = noise_arg(args, kwargs) is None
            with rec.span(FORWARD_EVAL if evaluating else FORWARD_TRAIN):
                if not evaluating:
                    rec.train_subjects += 1
                    return forward(*args, **kwargs)
                if not rec.scoring:
                    return forward(*args, **kwargs)
                rec._first_work()
                start = clock()
                out = forward(*args, **kwargs)
                rec.eval_times.append(clock() - start)
                return out

        train.forward = timed_forward

        predict = train.predict_probabilities

        def kept_predict(*args, **kwargs):
            probs = predict(*args, **kwargs)
            if rec.scoring:
                rec.eval_probabilities.extend(float(p) for p in probs.ravel())
            return probs

        train.predict_probabilities = kept_predict

        evaluate = cli.evaluate

        def timed_evaluate(*args, **kwargs):
            rec.scoring = True
            start = clock()
            try:
                return evaluate(*args, **kwargs)
            finally:
                rec.scoring = False
                rec.score_s += clock() - start

        cli.evaluate = timed_evaluate
