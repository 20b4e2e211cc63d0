"""One benchmark worker: set up a workload, run it in a closed loop, report.

Started by ``run.py`` in a fresh process, with ``src/`` of the checkout
first on the import path.  One client, one thread: the next op starts
when the previous one has returned.  Prints one JSON object on stdout.

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; set-up time runs from there to the first timed op, so it covers
interpreter start, ``import sectornet``, input generation and warm-up.
With ``--setup-only`` the worker stops there.  With ``--trace 1`` it runs
the timed loop twice, for half the time each: untraced, then traced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Tracebacks printed per worker; later failures are only counted.
MAX_TRACEBACKS = 3


#: Seconds between two timings of the reference kernel in the timed loop.
REF_EVERY_S = 0.1
#: The reference kernel's time on an idle 2-vCPU Intel Xeon VM with
#: Python 3.11, the machine the benchmark was tuned on.
REF_NOMINAL_S = 1.0e-3
#: Fixed operands of the reference kernel.
_REF_POINTS = [(i * 0.37 % 1.0, i * 0.61 % 1.0) for i in range(200)]


def reference_time() -> float:
    """Time one run of a fixed pure-Python kernel, a probe of machine speed.

    On a shared machine the speed of the CPU drifts, by 10-30 % over
    minutes, for this kernel and for sectornet alike.  The kernel uses
    nothing of sectornet, so no change to the package moves it.  It does
    the kind of work the package's Python code does: float arithmetic,
    tuples, dict stores and a keyed sort, on data small enough to stay in
    cache whatever ran before it.
    """
    start = time.perf_counter()
    pts = list(_REF_POINTS)
    acc = 0.0
    seen = {}
    for k in range(8):
        for i, (x, y) in enumerate(pts):
            u, v = pts[i - 1]
            acc += (x - u) * (y + v) - (y - v) * (x + u)
            seen[(i * 7 + k) % 101] = (x, y)
        pts.sort(key=lambda p: (p[1], p[0]))
    return time.perf_counter() - start


class Loop:
    """Runs ops from a pool, checks each, and keeps latencies and counts."""

    def __init__(self, workload, pool: list, path: Path) -> None:
        self.workload = workload
        self.pool = pool
        self.path = path
        self.first_pass: list[str] = [""] * len(pool)
        self.attempted = 0
        self.failed = 0

    def run_one(self, t, i: int):
        """Run op ``i`` (pool entry ``i % len(pool)``); return its latency and outcome.

        An op fails when it raises, when its guarantee does not hold, or
        when its config differs from the one the same entry gave before.
        """
        k = i % len(self.pool)
        start = time.perf_counter()
        try:
            out = self.workload.op(t, self.pool[k], self.path)
        except Exception:
            out = None
            if self.failed < MAX_TRACEBACKS:
                traceback.print_exc()
        latency = time.perf_counter() - start
        ok = out is not None and out.ok
        if out is not None:
            digest = hashlib.sha256(out.text.encode()).hexdigest()
            if not self.first_pass[k]:
                self.first_pass[k] = digest
            elif digest != self.first_pass[k]:
                ok = False
        self.attempted += 1
        self.failed += not ok
        return latency, out

    def timed(self, t, seconds: float, stages: bool = False) -> dict:
        """Run for ``seconds`` and at least one pass over the pool.

        Every ``REF_EVERY_S`` the reference kernel is timed between two
        ops.  With ``stages``, each op is followed by the workload's stage
        calls.  Neither counts toward the phase time or the pass times.
        """
        latencies: list[float] = []
        counts: list[dict] = []
        passes: list[float] = []  # time of each complete pass over the pool
        refs: list[float] = []
        excluded = pass_excluded = 0.0
        start = pass_start = next_ref = time.perf_counter()
        deadline = start + seconds
        i = 0
        while i < len(self.pool) or time.perf_counter() < deadline:
            now = time.perf_counter()
            if now >= next_ref:
                refs.append(reference_time())
                next_ref = now + REF_EVERY_S
                excluded += time.perf_counter() - now
            t.op = i
            latency, out = self.run_one(t, i)
            latencies.append(latency)
            if out is not None:
                c = dict(out.counts)
                if stages and self.workload.stages is not None:
                    s0 = time.perf_counter()
                    c.update(self.workload.stages(t, self.pool[i % len(self.pool)], out))
                    excluded += time.perf_counter() - s0
                counts.append(c)
            i += 1
            if i % len(self.pool) == 0:
                now = time.perf_counter()
                passes.append(now - pass_start - (excluded - pass_excluded))
                pass_start, pass_excluded = now, excluded
        return {
            "ops": i,
            "elapsed_s": time.perf_counter() - start - excluded,
            "ops_per_s": len(self.pool) / statistics.median(passes),
            "passes": len(passes),
            "speed_scale": statistics.median(refs) / REF_NOMINAL_S,
            "references": len(refs),
            "latencies": latencies,
            "counts": counts,
        }


def layer_metrics(tracer: Tracer, counts: list[dict], max_counts) -> dict:
    """Busy time and calls per span name, and each per-op count's mean or max."""
    out: dict[str, float] = {}
    for name, (busy, calls) in tracer.busy().items():
        out[f"{name}.busy_s"] = busy
        out[f"{name}.calls"] = calls
    keys = sorted({k for c in counts for k in c})
    for k in keys:
        values = [c[k] for c in counts if k in c]
        out[k] = max(values) if k in max_counts else statistics.fmean(values)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    tracer = Tracer() if args.trace else NullTracer()
    with tracer.span("import"):
        import sectornet
        import workloads  # pulls in sectornet.fileio and sectornet.generators
    if not Path(sectornet.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: sectornet imported from {sectornet.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.workload][1 if args.tiny else 0]
    pool = wl.make(args.seed, size, tracer)
    workdir = HERE.parent / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        loop = Loop(wl, pool, workdir / "config.json")
        null = NullTracer()
        for i in range(size["warmup"]):
            loop.run_one(null, i)
        scipy_loaded = int("scipy" in sys.modules)
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s}
        if not args.setup_only:
            phase = args.seconds / 2 if args.trace else args.seconds
            untraced = loop.timed(null, phase)
            result.update(
                {k: v for k, v in untraced.items() if k != "counts"},
                digest=hashlib.sha256("".join(loop.first_pass).encode()).hexdigest(),
            )
            if args.trace:
                traced = loop.timed(tracer, phase, stages=True)
                layers = layer_metrics(tracer, traced["counts"], workloads.MAX_COUNTS)
                layers["import.scipy_loaded"] = scipy_loaded
                layers["trace.ops"] = traced["ops"]
                layers["trace.ops_per_s"] = traced["ops_per_s"] * traced["speed_scale"]
                result["layers"] = layers
                if args.spans_out:
                    tracer.write(args.spans_out)
        result.update(
            attempted=loop.attempted,
            failed=loop.failed,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
