"""One workload process of the benchmark; ``run.py`` starts it.

Modes:

* ``setup``: import ``gptlab``, build the op mix, run one untimed warm-up
  op of each kind, report when the first timed op could start, and exit.
* ``measure``: set up as above, then run whole rounds of the op sequence
  until ``--seconds`` have passed and at least ``MIN_OPS`` ops ran.
* ``trace``: set up, run ``--rounds`` rounds untraced, then the same rounds
  again with the span wrappers installed (``--traced-only`` skips the
  untraced pass).

Every mode times the workload's reference kernel (``reference.py``) once
set-up is done, and the timed modes time it between ops, so that
``run.py`` can scale the timings to reference speed.

The last line of stdout is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time

# At least ten samples lie beyond the p90 of a run with 100 ops.
MIN_OPS = 100


def warm_up(kinds, seed: int) -> list:
    """One untimed op of each kind; returns the reasons of any that failed."""
    import numpy as np

    seeds = np.random.default_rng([seed, 2]).integers(2**31, size=len(kinds))
    failures = []
    for kind, op_seed in zip(kinds, seeds):
        _, _, reason = run_op(kind, int(op_seed))
        if reason is not None:
            failures.append(f"{kind.name}: {reason}")
    return failures


def run_op(kind, op_seed: int, tracer=None, op_index: int = -1) -> tuple:
    """Prepare, time and check one op: ``(kind name, seconds, reason)``."""
    call, check = kind.prepare(op_seed)
    if tracer is not None:
        tracer.op, tracer.active = op_index, True
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # a raising op is a failed op, kept in the sample
        elapsed = time.perf_counter() - start
        reason = f"raised {type(exc).__name__}: {exc}"
    else:
        elapsed = time.perf_counter() - start
        reason = None
    finally:
        if tracer is not None:
            tracer.active = False
    if reason is None:
        try:
            reason = check(result)
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
    return kind.name, elapsed, reason


def measure(kinds, seed: int, seconds: float, sampler, min_ops: int = MIN_OPS) -> tuple:
    """Whole rounds until ``seconds`` of wall time and ``min_ops`` ops.

    Returns the ops and their start times; ``sampler`` times the reference
    kernel between ops, and once more after the last.
    """
    from workloads import round_ops

    ops, starts = [], []
    started = time.perf_counter()
    index = 0
    while time.perf_counter() - started < seconds or len(ops) < min_ops:
        for kind, op_seed in round_ops(kinds, seed, index):
            sampler.between_ops()
            starts.append(time.perf_counter())
            ops.append(run_op(kind, op_seed))
        index += 1
    sampler.take()
    return ops, starts


def run_rounds(kinds, seed: int, rounds: int, sampler, tracer=None) -> tuple:
    """``rounds`` whole rounds; returns the ops and their start times."""
    from workloads import round_ops

    ops, starts = [], []
    for index in range(rounds):
        for kind, op_seed in round_ops(kinds, seed, index):
            sampler.between_ops()
            starts.append(time.perf_counter())
            ops.append(run_op(kind, op_seed, tracer, len(ops)))
    sampler.take()
    return ops, starts


def blas_info() -> dict:
    """BLAS vendor, version and thread count of the loaded numpy."""
    import numpy as np

    info = {"vendor": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "blas" in line.lower()})
    except OSError:
        paths = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def provenance() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "GPTLAB_THREADS": os.environ.get("GPTLAB_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--traced-only", action="store_true")
    parser.add_argument("--spans", default=None, help="write the spans to this .npz")
    args = parser.parse_args(argv)

    import workloads
    from reference import SETUP_SAMPLE_REPEATS, Sampler, kernel_for

    kinds = workloads.op_kinds(args.workload, args.seed)
    out = {"warmup_failures": warm_up(kinds, args.seed)}
    out["t_ready"] = time.monotonic()
    kernel = kernel_for(args.workload)
    out["ref_ready_s"] = kernel.time(SETUP_SAMPLE_REPEATS)
    sampler = Sampler(kernel)
    if args.mode == "measure":
        out["ops"], out["starts"] = measure(kinds, args.seed, args.seconds, sampler)
    elif args.mode == "trace":
        from spans import Tracer

        if not args.traced_only:
            out["ops"], out["starts"] = run_rounds(kinds, args.seed, args.rounds, sampler)
        tracer = Tracer()
        tracer.install()
        try:
            traced, out["traced_starts"] = run_rounds(
                kinds, args.seed, args.rounds, sampler, tracer
            )
        finally:
            tracer.uninstall()
        spans = tracer.spans()
        out["traced_ops"] = traced
        out["layers"] = tracer.layer_metrics(spans)
        if args.spans:
            tracer.save(args.spans, spans)
    out["ref_samples"] = sampler.samples
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["provenance"] = provenance()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
