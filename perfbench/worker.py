"""One workload process: drives ``dualgraph.cli.main`` through a phase plan.

Usage: python3 perfbench/worker.py SPEC.json T0

SPEC.json is written by ``spawn``. T0 is the parent's ``perf_counter``
reading just before this process started. The worker writes its raw
observations to ``spec["out"]`` as JSON; run.py turns them into metrics
and applies the output checks.

Modes:
  probe    stop at the first training step or scored subject (set-up time)
  measure  one warm-up cycle, then measured cycles until ``deadline``; a
           cycle runs each phase ``per_cycle`` times, in order. ``probes``
           set-up probes of each phase's command are spread over the run,
           each before a cycle
  fixed    per phase, exactly ``reps`` repetitions
  traced   like fixed, with the per-layer tracer installed
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import subprocess
import sys

from probes import Recorder, SetupReached, clock

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE_TIMEOUT_S = 60.0


def spawn(work: str, tag: str, spec: dict, timeout: float, env_extra: dict = None,
          own_group: bool = False) -> dict:
    """Run one worker process to completion and return its observations.

    ``spec`` must name the program's source directory (``src``). A worker
    that outlives ``timeout`` seconds is killed and TimeoutExpired raised;
    with ``own_group`` it leads a new process group and the whole group,
    set-up probes it started included, is killed. A worker that fails
    raises RuntimeError with the end of its log.
    """
    spec = dict(spec, out=os.path.join(work, f"{tag}.result.json"))
    spec_path = os.path.join(work, f"{tag}.spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = dict(os.environ)
    env.update(env_extra or {})
    log_path = os.path.join(work, f"{tag}.log")
    with open(log_path, "wb") as log:
        t0 = clock()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path, repr(t0)],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=work,
            start_new_session=own_group,
        )
        try:
            returncode = proc.wait(timeout)
        except subprocess.TimeoutExpired:
            if own_group:
                os.killpg(proc.pid, signal.SIGKILL)
            else:
                proc.kill()
            proc.wait()
            raise
    if returncode != 0 or not os.path.isfile(spec["out"]):
        with open(log_path, "rb") as fh:
            tail_text = fh.read()[-2000:].decode(errors="replace")
        raise RuntimeError(f"worker {tag} exited with {returncode}:\n{tail_text}")
    with open(spec["out"]) as fh:
        return json.load(fh)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _blas_threads():
    """Thread count of the loaded OpenBLAS or MKL, or None when unknown."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted(
            {
                line.split()[-1]
                for line in fh
                if ("blas" in line.lower() or "mkl" in line.lower()) and ".so" in line
            }
        )
    names = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads",
        "MKL_Get_Max_Threads",
    )
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _environment() -> dict:
    import platform

    import numpy as np

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


def _outputs(phase: dict) -> dict:
    """Everything the output checks need, read after the timed call."""
    from dualgraph.model import load_checkpoint

    out = {}
    if phase["command"] == "train":
        ckpt = phase["checkpoint"]
        base = os.path.splitext(ckpt)[0]
        out["checkpoint_sha256"] = hashlib.sha256(_read(ckpt)).hexdigest()
        out["log"] = _read(base + ".log.csv").decode()
        out["metrics"] = json.loads(_read(base + ".metrics.json"))
        try:
            load_checkpoint(ckpt)
            out["reload_error"] = None
        except ValueError as exc:
            out["reload_error"] = str(exc)
    else:
        out["metrics_text"] = _read(phase["eval_out"]).decode()
    return out


def _invoke(phase: dict, recorder: Recorder, tracer, warmup: bool, rep: int = 0) -> dict:
    from dualgraph.cli import main

    recorder.reset()
    start = clock()
    try:
        rc = main(phase["argv"])
        error = None
    except Exception as exc:  # a crash is a failed operation, not a dead benchmark
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall = clock() - start
    record = {
        "command": phase["command"],
        "warmup": warmup,
        "rep": rep,
        "rc": rc,
        "error": error,
        "wall_s": wall,
        "steps": recorder.steps,
        "open_step": recorder.step_start is not None,
        "train_subjects": recorder.train_subjects,
        "eval_times": recorder.eval_times,
        "eval_probabilities": recorder.eval_probabilities,
        "score_s": recorder.score_s,
    }
    if rc == 0:
        record["outputs"] = _outputs(phase)
    if tracer is not None:
        record["trace"] = tracer.snapshot()
    return record


def _probe(src: str, phase: dict, rep: int) -> dict:
    """Set-up time of one fresh process running ``phase``'s command.

    This process waits, idle, while the probe runs.
    """
    tag = f"probe-{phase['command']}{rep}"
    spec = {"mode": "probe", "phases": [dict(phase, reps=1)], "src": src}
    try:
        setup_s, error = spawn(os.getcwd(), tag, spec, PROBE_TIMEOUT_S)["setup_s"], None
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        setup_s, error = None, f"{type(exc).__name__}: {exc}"
    return {"command": phase["command"], "setup_s": setup_s, "error": error}


def _measure(spec: dict, recorder: Recorder, result: dict) -> None:
    """Warm-up cycle, then measured cycles and set-up probes until the deadline.

    Probes go before cycles, so before a ``train`` repetition, whose first
    step is slow anyway, and never leave an ``eval`` repetition starting
    cold. Spread through the run, they sample the machine when the cycles
    do. Time is kept for the probes not yet run, and any left at the
    deadline run then, so every run takes ``probes`` of each command.
    """
    phases, deadline, probes = spec["phases"], spec["deadline"], spec["probes"]
    cycle = [p for p in phases for _ in range(p["per_cycle"])]

    def run_cycle(rep: int, warmup: bool) -> float:
        start = clock()
        for phase in cycle:
            result["invocations"].append(_invoke(phase, recorder, None, warmup, rep))
        return clock() - start

    def run_probes(k: int) -> float:
        start = clock()
        for phase in phases:
            result["probes"].append(_probe(spec["src"], phase, k))
        return clock() - start

    # The warm-up cycle warms the process and writes the checkpoint the
    # eval probes load.
    cycle_s = run_cycle(0, True)
    probe_s = run_probes(0)
    done = 1
    planned = max(1, (deadline - clock() - (probes - 1) * probe_s) / cycle_s)
    rep = 0
    while True:
        if done < probes and rep >= done * planned / probes:
            probe_s = run_probes(done)
            done += 1
        if rep and clock() + cycle_s + (probes - done) * probe_s > deadline:
            break
        cycle_s = run_cycle(rep, False)
        rep += 1
    for k in range(done, probes):
        run_probes(k)


def run(spec: dict, t0: float) -> dict:
    sys.path.insert(0, spec["src"])
    mode = spec["mode"]
    recorder = Recorder(t0, stop_at_setup=mode == "probe")
    recorder.install()
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(recorder)

    result = {"mode": mode, "invocations": [], "probes": []}
    rep_bounds = []
    try:
        if mode == "measure":
            _measure(spec, recorder, result)
        else:
            for phase in spec["phases"]:
                for rep in range(phase.get("reps", 1)):
                    if tracer is not None:
                        rep_bounds.append(len(tracer.spans))
                    result["invocations"].append(_invoke(phase, recorder, tracer, False, rep))
    except SetupReached:
        pass
    result["setup_s"] = recorder.setup_s
    result["env"] = _environment()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace_missing"] = tracer.missing
        tracer.dump(spec["spans_out"], rep_bounds)
    return result


def main() -> int:
    spec_path, t0 = sys.argv[1], float(sys.argv[2])
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = run(spec, t0)
    with open(spec["out"], "w") as fh:
        json.dump(result, fh, allow_nan=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
