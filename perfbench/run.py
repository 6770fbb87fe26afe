"""marlshield benchmark: run one workload, check its outputs, print its metrics.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. The
workload's unit of work (see workloads.py) repeats until --seconds have
been spent. With --trace 0 the run reports the end-to-end metrics and
the set-up time; with --trace 1 it alternates untraced and traced units
and reports the per-layer metrics plus the tracing overhead. The last
line of standard output is one JSON object:

    {"correct": bool, "attempted": steps, "failed": steps, "metrics": {...}}

A result file with the environment record, per-unit figures and digests
goes to perfbench/results/; a traced run also writes the spans of its
last traced unit there. Any failed gate (a raised exception, a collision
step or a minimum separation below d_s - 1e-3 under the shield, a KKT
residual above 1e-9, digests that differ between repeats of the unit)
makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# BLAS threads are pinned so both sides of any comparison run the same
# single-threaded matmuls; set before numpy is first imported.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 7
KKT_GATE = 1e-9

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def load_spec() -> dict:
    """BENCHMARK.json at the root: workload and metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric_units(spec: dict, trace: int) -> dict:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv, spec):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import marlshield from ./src of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "marlshield" / "__init__.py").is_file():
        raise SystemExit(f"error: no marlshield package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import marlshield

    if Path(marlshield.__file__).resolve().parent != src / "marlshield":
        raise SystemExit(f"error: imported marlshield from {marlshield.__file__}, not {src}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_lib = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            commit = out.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_lib,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
    }


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(raw seconds, speed factor) of set-ups in fresh interpreters.

    The calibration kernel runs before and after each interpreter. The
    first set-up fills the file and bytecode caches and is dropped.
    """
    from calibration import reference_seconds, speed_factor

    samples = []
    for _ in range(SETUP_REPEATS + 1):
        before = reference_seconds()
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append((float(out.stdout.split()[-1]), speed_factor([before, reference_seconds()])))
    return samples[1:]


def steps_per_s(units, calibrated: bool = True) -> float:
    """Median over a unit's runs of its steps over the sum of per-piece median times.

    Each piece's time is first rescaled by the speed factor read around it
    (see calibration.py). Every unit repeats identical pieces (episodes or
    scenarios), so the median of each piece over the repeats discards the
    pieces a burst of noise slowed, without mixing pieces of different
    content. The median over training runs keeps the few seeds whose
    learned policy holds the filter in its relaxed phase for hundreds of
    steps from setting the figure; their cost shows in the per-layer metrics.
    """
    rates = []
    for r in range(len(units[0].runs)):
        timings = [u.runs[r] for u in units]
        per_piece = zip(*(
            [s * f if calibrated else s for s, f in zip(t.piece_seconds, t.piece_factors)]
            for t in timings
        ))
        rates.append(sum(timings[0].piece_steps) / sum(statistics.median(x) for x in per_piece))
    return statistics.median(rates)


class TickHistogram:
    """Calibrated tick times of one run, pooled over units in fixed memory.

    Storing every tick would grow the process with the number of units,
    and so with the program's speed, which would leak into peak RSS.
    Log-spaced bins 0.35% wide from 0.1 us to 100 s keep the percentiles
    far finer than the run-to-run spread.
    """

    edges = None

    def __init__(self):
        import numpy as np

        if TickHistogram.edges is None:
            TickHistogram.edges = np.geomspace(1e-7, 1e2, 6001)
        self.counts = np.zeros(len(self.edges) - 1, dtype=np.int64)

    def add(self, timing) -> None:
        """Rescale each piece's ticks by its speed factor and count them."""
        import numpy as np

        for ticks, factor in zip(timing.piece_ticks, timing.piece_factors):
            self.counts += np.histogram(np.asarray(ticks) * factor, self.edges)[0]

    @property
    def samples(self) -> int:
        return int(self.counts.sum())

    def percentile_us(self, q: float) -> float:
        """q-th percentile, interpolated geometrically within its bin."""
        import numpy as np

        cum = np.cumsum(self.counts)
        target = q / 100.0 * cum[-1]
        i = int(np.searchsorted(cum, target))
        below = cum[i - 1] if i else 0
        frac = (target - below) / self.counts[i]
        lo, hi = self.edges[i], self.edges[i + 1]
        return float(lo * (hi / lo) ** frac) * 1e6


class Run:
    """One benchmark invocation: units, gates and the figures derived from them."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: set[str] = set()
        self.seed_digests: dict = {}
        self.min_separation = float("inf")
        self.untraced = []
        self.traced = []
        # allocated before any unit, so the workload's memory layout is the
        # same whatever the number of units
        self.ticks = [TickHistogram() for _ in range(workload.n_runs)]
        self.layer: list[dict] = []

    def unit(self, tracer=None):
        from tracing import layer_metrics

        if tracer is not None:
            tracer.reset()
        try:
            res = self.workload.run_unit(tracer=tracer)
        except Exception:  # a raised unit fails all its steps; the run goes on to report it
            self.errors.append(traceback.format_exc())
            self.attempted += self.workload.planned_steps
            self.failed += self.workload.planned_steps
            return None
        self.attempted += res.steps
        self.failed += res.failed_steps
        self.digests.add(res.digest)
        self.seed_digests = res.seed_digests or self.seed_digests
        self.min_separation = min(self.min_separation, res.min_separation)
        if tracer is None:
            self.untraced.append(res)
            for hist, t in zip(self.ticks, res.runs):
                hist.add(t)
                t.piece_ticks = []
        else:
            self.traced.append(res)
            self.layer.append(layer_metrics(tracer, self.workload.mflop_per_update))
        return res

    def tick_us(self, q: float) -> float:
        """Median over runs of the q-th percentile of the run's ticks from every unit."""
        return statistics.median(h.percentile_us(q) for h in self.ticks)

    def gates(self) -> list[str]:
        from workloads import SEPARATION_TOL

        bad = [f"unit raised:\n{e}" for e in self.errors]
        if self.failed:
            bad.append(f"{self.failed} of {self.attempted} joint steps failed")
        floor = self.workload.params.d_s - SEPARATION_TOL
        if self.workload.shielded and self.min_separation < floor:
            bad.append(f"minimum separation {self.min_separation!r} below d_s - {SEPARATION_TOL}")
        if len(self.digests) > 1:
            bad.append(f"repeats of one unit gave different digests: {sorted(self.digests)}")
        for m in self.layer:
            if m["qp.kkt_residual_max"] > KKT_GATE:
                bad.append(f"qp.kkt_residual_max {m['qp.kkt_residual_max']!r} above {KKT_GATE}")
        return bad


def run_units(run: Run, seconds: float, tracer=None) -> None:
    """Repeat units until the next one would overrun `seconds`; alternate when traced."""
    t0 = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        if traced:
            with tracer:
                res = run.unit(tracer)
        else:
            res = run.unit()
        k += 1
        if res is None:
            return
        elapsed = time.perf_counter() - t0
        need_traced = tracer is not None and not run.traced
        if not need_traced and elapsed + elapsed / k > seconds:
            return


def write_spans(path: Path, tracer) -> None:
    names, starts, ends, parents, ticks = tracer.spans()
    t0 = starts.min() if len(starts) else 0.0
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("name,start_us,end_us,parent,tick\n")
        for row in zip(names, (starts - t0) * 1e6, (ends - t0) * 1e6, parents, ticks):
            fh.write("%s,%.3f,%.3f,%d,%d\n" % row)


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    import_package()
    from tracing import Tracer
    from workloads import make_workload

    env = environment()
    print("environment " + json.dumps(env, sort_keys=True), flush=True)

    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
    workload = make_workload(args.workload)
    workload.setup(args.seed)
    run = Run(workload)

    tracer = Tracer() if args.trace else None
    run_units(run, args.seconds, tracer)

    metrics: dict[str, dict] = {}
    info: dict = {}
    if run.untraced and not run.errors:
        info["units_untraced"] = len(run.untraced)
        info["tick_samples"] = sum(h.samples for h in run.ticks)
        info["unit_seconds"] = [u.seconds for u in run.untraced]
        info["raw_steps_per_s"] = steps_per_s(run.untraced, calibrated=False)
        info["piece_seconds"] = [[t.piece_seconds for t in u.runs] for u in run.untraced]
        info["piece_factors"] = [[t.piece_factors for t in u.runs] for u in run.untraced]
    if not args.trace and run.untraced and not run.errors:
        values = {
            "steps_per_s": steps_per_s(run.untraced),
            "tick_us_p50": run.tick_us(50),
            "tick_us_p99": run.tick_us(99),
            "setup_s": statistics.median(raw * f for raw, f in setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info["setup_samples_s_raw_factor"] = setup_samples
        metrics = {k: {"value": values[k], "unit": u} for k, u in metric_units(spec, 0).items()}
    elif args.trace and run.traced and not run.errors:
        layer = {k: statistics.median(m[k] for m in run.layer) for k in run.layer[0]}
        layer["trace.steps_per_s"] = steps_per_s(run.traced)
        layer["trace.untraced_steps_per_s"] = steps_per_s(run.untraced)
        layer["trace.overhead_share"] = layer["trace.untraced_steps_per_s"] / layer["trace.steps_per_s"] - 1.0
        layer["trace.steps"] = run.traced[0].steps
        info["units_traced"] = len(run.traced)
        metrics = {k: {"value": layer[k], "unit": u} for k, u in metric_units(spec, 1).items()}

    bad = run.gates()
    correct = not bad and bool(metrics)
    for line in bad:
        print(f"GATE FAILED: {line}", file=sys.stderr)
    print("digest " + json.dumps({"unit": sorted(run.digests), "per_seed": run.seed_digests},
                                 sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    for k, m in metrics.items():
        print(f"  {k:38s} {m['value']:.6g} {m['unit']}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    record = {
        "args": vars(args), "environment": env, "correct": correct, "gates_failed": bad,
        "attempted": run.attempted, "failed": run.failed, "min_separation": run.min_separation,
        "digests": sorted(run.digests), "seed_digests": run.seed_digests, "info": info,
        "metrics": metrics,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if tracer is not None and run.traced:
        write_spans(RESULTS / f"spans_{stem}.csv.gz", tracer)

    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
