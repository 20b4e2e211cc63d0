"""Run the sectornet benchmark on one workload, or on all of them.

    python3 perfbench/run.py --workload udg_dense --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Each run starts fresh worker processes (``worker.py``) pinned to one
thread.  An untraced run (``--trace 0``) starts one worker that runs the timed
loop, and before and after it workers that only set up, and prints the
end-to-end metrics named in ``BENCHMARK.json``.  A traced run
(``--trace 1``) starts one worker that runs the loop untraced for half
the time and traced for the other half, and prints the per-layer
metrics, the tracing overhead among them.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it give the same figures
for people, with sample counts and the environment.  Every run is also
appended, with its environment, to ``--out`` (one JSON record a line),
which ``compare.py`` reads.  Exit code 0 means the run completed, even
if ops failed; 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Set-up-only workers started before and after the timed worker of an
#: untraced run; ``setup_s`` is the median over all of them and the timed one.
SETUP_ONLY_BEFORE, SETUP_ONLY_AFTER = 1, 1
#: A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 150
THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: ``op_p90_ms`` has at least ten samples beyond it from this many ops on.
P90_MIN_OPS = 100


class BenchError(Exception):
    """The benchmark itself could not run."""


def environment(seed: int) -> dict:
    def version(pkg: str):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": THREAD_VARS,
        "seed": seed,
    }


def spawn(workload: str, args, setup_only: bool = False, spans_out: Path | None = None) -> dict:
    """Run one worker to completion and return the JSON it printed."""
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_VARS)
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker ran longer than {WORKER_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(workload: str, args) -> tuple[dict, dict]:
    """Run the untraced workers; return (metrics, details for the record)."""
    workers = [spawn(workload, args, setup_only=True) for _ in range(SETUP_ONLY_BEFORE)]
    main = spawn(workload, args)
    workers += [main] + [spawn(workload, args, setup_only=True) for _ in range(SETUP_ONLY_AFTER)]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    lat_ms = [x * 1e3 for x in main["latencies"]]
    raw = {
        "ops_per_s": main["ops_per_s"],
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[-1],
    }
    scale = main["speed_scale"]
    metrics = {
        "ops_per_s": raw["ops_per_s"] * scale,
        "op_p50_ms": raw["op_p50_ms"] / scale,
        "op_p90_ms": raw["op_p90_ms"] / scale,
        "pass_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": main["peak_rss_mb"],
        "setup_s": statistics.median(w["setup_s"] for w in workers),
    }
    details = {
        "ops": main["ops"],
        "elapsed_s": main["elapsed_s"],
        "passes": main["passes"],
        "speed_scale": scale,
        "references": main["references"],
        "raw": raw,
        "setup_samples": [w["setup_s"] for w in workers],
        "digest": main["digest"],
        "attempted": attempted,
        "failed": failed,
    }
    return metrics, details


def per_layer(workload: str, args, names: list[str]) -> tuple[dict, dict]:
    """Run the traced worker; return (metrics, details for the record).

    Layers a workload never calls read 0.
    """
    spans_dir = ROOT / ".perfbench" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_out = spans_dir / f"{workload}-seed{args.seed}.json"
    w = spawn(workload, args, spans_out=spans_out)
    layers = dict(w["layers"])
    layers["trace.untraced_ops_per_s"] = w["ops_per_s"] * w["speed_scale"]
    layers["trace.overhead_ratio"] = layers["trace.ops_per_s"] / layers["trace.untraced_ops_per_s"]
    metrics = {name: layers.get(name, 0) for name in names}
    details = {
        "ops": w["ops"],
        "elapsed_s": w["elapsed_s"],
        "passes": w["passes"],
        "speed_scale": w["speed_scale"],
        "references": w["references"],
        "digest": w["digest"],
        "attempted": w["attempted"],
        "failed": w["failed"],
        "spans": str(spans_out.relative_to(ROOT)),
    }
    return metrics, details


def report(workload: str, args, metrics: dict, units: dict, details: dict) -> None:
    """The human-readable lines for one workload."""
    print(f"workload {workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"  digest {details['digest']}")
    ops, elapsed = details["ops"], details["elapsed_s"]
    print(
        f"  machine speed scale {details['speed_scale']:.4f} (reference kernel, median of"
        f" {details['references']} timings); times and rates below are at reference speed"
    )
    if args.trace:
        print(
            f"  tracing overhead: traced {metrics['trace.ops_per_s']:.4g} 1/s"
            f" = {metrics['trace.overhead_ratio']:.3f}x untraced"
            f" {metrics['trace.untraced_ops_per_s']:.4g} 1/s ({ops} untraced ops)"
        )
        print(f"  spans written to {details['spans']}")
        notes = {}
    else:
        raw = details["raw"]
        notes = {
            "ops_per_s": f"raw {raw['ops_per_s']:.4g}; pool size / median time of"
            f" {details['passes']} passes; {ops} ops in {elapsed:.2f} s",
            "op_p50_ms": f"raw {raw['op_p50_ms']:.4g}; n={ops}",
            "op_p90_ms": f"raw {raw['op_p90_ms']:.4g}; n={ops}"
            + ("" if ops >= P90_MIN_OPS else f", under {P90_MIN_OPS}"),
            "pass_ratio": f"fail_ratio {details['failed'] / details['attempted']:.4g}"
            f" ({details['failed']} of {details['attempted']} ops failed)",
            "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in details["setup_samples"]),
        }
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:40s} {value:14.6g} {units[name]:6s} {note}")


def main(argv=None) -> int:
    try:
        spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {SPEC_PATH}: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--out", type=Path, default=ROOT / ".perfbench" / "results.jsonl",
                    help="file the run records are appended to")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "sectornet" / "__init__.py").is_file():
        print(f"error: no sectornet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    workloads = names if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    records = []
    for workload in workloads:
        try:
            if args.trace:
                metrics, details = per_layer(workload, args, list(units))
            else:
                metrics, details = end_to_end(workload, args)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report(workload, args, metrics, units, details)
        total["correct"] &= details["failed"] == 0
        total["attempted"] += details["attempted"]
        total["failed"] += details["failed"]
        prefix = f"{workload}." if len(workloads) > 1 else ""
        for name, value in metrics.items():
            total["metrics"][prefix + name] = {"value": value, "unit": units[name]}
        records.append(
            {"workload": workload, "seconds": args.seconds, "trace": args.trace,
             "tiny": args.tiny, "env": env, "metrics": metrics, **details}
        )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
