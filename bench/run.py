"""gptlab benchmark: end-to-end and per-layer numbers for one workload.

    python3 bench/run.py --workload falsify --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout; ``gptlab`` is imported from
``src/``.  Each workload runs in its own process (``worker.py``), a closed
loop with one client, with ``GPTLAB_THREADS`` set to the number of usable
CPUs.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the provenance block and every metric by name, with its unit.

``--trace 0`` reports the end-to-end metrics, measured untraced.  Their
times are at reference speed (``reference.py``): each wall-clock time is
scaled by how fast a fixed reference kernel ran beside it, so that the
host's changes of speed between runs drop out.  The wall-clock values are
printed too.
``--trace 1`` runs the op sequence untraced and then traced with span
wrappers, and reports per-layer calls, self time and computed counters
plus the tracing overhead; on ``dense_scale`` it repeats the traced run
with ``OPENBLAS_NUM_THREADS=1`` as a single-threaded BLAS baseline.
``--workload all`` runs every workload in turn and prints one table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("falsify", "dense_scale", "identities")

# Every run may take at most this long; the children get what is left.
RUN_LIMIT_S = 170.0
# setup_s is the median over this many workload processes.
SETUP_REPEATS = 3
# Round lengths on a 2-core x86 machine; a traced run does
# round(seconds / length) rounds, so its counts repeat for a fixed seed.
NOMINAL_ROUND_S = {"falsify": 3.2, "dense_scale": 7.3, "identities": 0.6}
# Layers whose self time the single-threaded BLAS run records.
BLAS1_SPANS = (
    "core.Transformation.apply_left",
    "protocols.dense_coding",
    "variants.lt_channel",
    "variants.weak_dense_coding",
    "variants.embedded_dense_coding",
)
# The path that builds dense-coding channels, for the dense_scale prediction.
CHANNEL_BUILD = (
    "protocols.dense_coding",
    "variants.lt_channel",
    "variants.weak_dense_coding",
    "variants.embedded_dense_coding",
    "core.Transformation.apply_left",
    "core.Transformation",
    "core.BipartiteState",
    "core.BipartiteEffect",
    "core.Channel",
    "core.mutual_information",
    "hadamard.hadamard_vector",
    "hadamard.local_transformation",
    "hadamard.entangled_state",
    "hadamard.entangled_effect",
    "hadamard.bell_measurement",
)

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def git_commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over ``src/`` so a result names its code without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


class Runner:
    """Starts worker processes within the run's time limit."""

    def __init__(self, limit_s: float = RUN_LIMIT_S):
        self.deadline = time.monotonic() + limit_s
        nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.env["GPTLAB_THREADS"] = str(nproc)

    def worker(self, extra_env=None, **options) -> dict:
        argv = [sys.executable, str(BENCH_DIR / "worker.py")]
        for key, value in options.items():
            flag = "--" + key.replace("_", "-")
            argv += [flag] if value is True else [flag, str(value)]
        env = dict(self.env, **(extra_env or {}))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run time limit reached before a workload process started")
        kernel = reference.kernel_for(options["workload"])
        ref_spawn = kernel.time(reference.SETUP_SAMPLE_REPEATS)
        spawned = time.monotonic()
        try:
            done = subprocess.run(
                argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"workload process exceeded the run time limit: {argv}") from exc
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise BenchError(f"workload process failed with exit code {done.returncode}: {argv}")
        result = json.loads(lines[-1])
        result["setup_wall_s"] = result["t_ready"] - spawned
        local = (ref_spawn + result["ref_ready_s"]) / 2.0
        result["setup_s"] = result["setup_wall_s"] * kernel.reference_s / local
        return result


def failures(ops) -> list:
    return [f"{name}: {reason}" for name, _, reason in ops if reason is not None]


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float) -> tuple:
    setups = [
        runner.worker(workload=workload, seed=seed, mode="setup")
        for _ in range(SETUP_REPEATS - 1)
    ]
    main = runner.worker(workload=workload, seed=seed, mode="measure", seconds=seconds)
    wall = np.array([elapsed for _, elapsed, _ in main["ops"]])
    reference_s = reference.kernel_for(workload).reference_s
    scales = reference.op_scales(main["starts"], main["ref_samples"], reference_s)
    metrics = {
        "setup_s": statistics.median([r["setup_s"] for r in setups + [main]]),
        **latency_metrics(wall * scales),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    wall_metrics = dict(
        setup_s=statistics.median([r["setup_wall_s"] for r in setups + [main]]),
        **latency_metrics(wall),
    )
    bad = failures(main["ops"])
    warm_bad = [f for r in setups + [main] for f in r["warmup_failures"]]
    summary = {
        "correct": not bad and not warm_bad,
        "attempted": len(main["ops"]),
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
    }
    notes = {
        "ops": len(main["ops"]),
        "setup_samples_s": [r["setup_s"] for r in setups + [main]],
        "host_speed": f"{float(np.median(scales)):.3f} x reference speed "
        f"(quartiles {np.percentile(scales, 25):.3f}, {np.percentile(scales, 75):.3f})",
        "wall_clock": ", ".join(f"{k} {v:.6g}" for k, v in wall_metrics.items()),
        "failures": (warm_bad + bad)[:10],
    }
    return summary, main["provenance"], notes


def latency_metrics(latencies) -> dict:
    return {
        "ops_per_s": latencies.size / latencies.sum(),
        "op_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "op_p90_ms": float(np.percentile(latencies, 90)) * 1e3,
    }


def per_layer(runner: Runner, workload: str, seed: int, seconds: float) -> tuple:
    import spans

    rounds = max(1, round(seconds / NOMINAL_ROUND_S[workload]))
    OUT_DIR.mkdir(exist_ok=True)
    main = runner.worker(
        workload=workload,
        seed=seed,
        mode="trace",
        rounds=rounds,
        spans=OUT_DIR / f"spans-{workload}-seed{seed}.npz",
    )
    reference_s = reference.kernel_for(workload).reference_s
    untraced = scaled_total(main["ops"], main["starts"], main["ref_samples"], reference_s)
    traced = scaled_total(
        main["traced_ops"], main["traced_starts"], main["ref_samples"], reference_s
    )
    metrics = {name: main["layers"][name] for name in spans.metric_names()}
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    ops = main["ops"] + main["traced_ops"]
    warm_bad = list(main["warmup_failures"])
    blas1 = {name: 0.0 for name in BLAS1_SPANS}
    if workload == "dense_scale":
        single = runner.worker(
            extra_env={"OPENBLAS_NUM_THREADS": "1"},
            workload=workload,
            seed=seed,
            mode="trace",
            rounds=rounds,
            traced_only=True,
            spans=OUT_DIR / f"spans-{workload}-seed{seed}-blas1.npz",
        )
        ops += single["traced_ops"]
        warm_bad += single["warmup_failures"]
        blas1 = {name: float(single["layers"][f"{name}.self_s"]) for name in BLAS1_SPANS}
    for name, value in blas1.items():
        metrics[f"blas1.{name}.self_s"] = value
    bad = failures(ops)
    summary = {
        "correct": not bad and not warm_bad,
        "attempted": len(ops),
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()},
    }
    notes = {
        "rounds": rounds,
        "ops": len(main["traced_ops"]),
        "failures": (warm_bad + bad)[:10],
        "predictions": predictions(workload, metrics),
    }
    return summary, main["provenance"], notes


def scaled_total(ops, starts, samples, reference_s: float) -> float:
    """Total op time at reference speed."""
    wall = np.array([elapsed for _, elapsed, _ in ops])
    return float((wall * reference.op_scales(starts, samples, reference_s)).sum())


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_flops"):
        return "flop"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def predictions(workload: str, metrics: dict) -> list:
    """Whether the layer shares the benchmark predicts held on this run."""
    self_s = {
        name[: -len(".self_s")]: value
        for name, value in metrics.items()
        if name.endswith(".self_s") and not name.startswith("blas1.")
    }
    total = sum(self_s.values()) or 1.0
    top = max(self_s, key=self_s.get)
    lines = [f"largest self time: {top} ({self_s[top] / total:.1%} of traced self time)"]
    if workload == "falsify":
        held = top == "capacity.blahut_arimoto"
        lines.append(
            f"prediction 'capacity.blahut_arimoto has the largest self time': "
            f"{'held' if held else 'did not hold'} "
            f"(BA {self_s['capacity.blahut_arimoto'] / total:.1%})"
        )
    elif workload == "dense_scale":
        build = sum(self_s[name] for name in CHANNEL_BUILD)
        ba = self_s["capacity.blahut_arimoto"]
        held = build > ba and top in CHANNEL_BUILD
        lines.append(
            f"prediction 'the channel-build path is largest': "
            f"{'held' if held else 'did not hold'} "
            f"(build path {build / total:.1%}, BA {ba / total:.1%})"
        )
    else:
        calls = metrics["capacity.blahut_arimoto.calls"]
        lines.append(
            f"prediction 'BA is absent': {'held' if calls == 0 else 'did not hold'} "
            f"({calls:.0f} BA calls)"
        )
    return lines


def run_one(runner: Runner, workload: str, seed: int, seconds: float, trace: int) -> dict:
    measure = per_layer if trace else end_to_end
    summary, prov, notes = measure(runner, workload, seed, seconds)
    prov = dict(prov, workload=workload, seed=seed, seconds=seconds, trace=trace)
    prov.update(git_commit=git_commit(), src_sha256=source_digest(), cpu_model=cpu_model())
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, metric in summary["metrics"].items():
        print(f"{workload:12s} {name:52s} {metric['value']:16.6g} {metric['unit']}")
    frac = summary["failed"] / summary["attempted"]
    print(f"{workload:12s} {'failed_frac':52s} {frac:16.6g} fraction "
          f"({summary['failed']} of {summary['attempted']} ops)")
    for key, value in notes.items():
        if key == "predictions":
            for line in value:
                print(f"{workload:12s} {line}")
        elif value not in ([], None):
            print(f"{workload:12s} {key}: {value}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gptlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gptlab" / "__init__.py").is_file():
        print(f"error: no gptlab sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    limit = RUN_LIMIT_S * len(names)
    runner = Runner(limit)
    try:
        results = {w: run_one(runner, w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    merged = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{name}": metric
            for w, r in results.items()
            for name, metric in r["metrics"].items()
        },
    }
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
