"""End-to-end benchmark of the symtop CLI, with an optional traced run.

Run from the repository root:

    python3 bench/run.py --workload trajectory --seed 1 --seconds 40 --trace 0

The benchmark imports symtop from ./src and drives it only through
`symtop.cli.main([...])` and the suite functions behind `symtop check`, in
this one process, as a closed loop: each call starts when the previous one
has returned and its output has been checked.
A round is one pass over the workload's operations (see workloads.py); the
same round repeats until --seconds have passed.

Timing statistic. On a 2-core Xeon KVM guest (Python 3.11, numpy 2.4), the
host's speed switches between a fast state and one 1.5-2x slower, for
stretches from milliseconds to over a minute, with CPU time equal to wall
time; the share of slow time in a run varied from 0 to 100%, so a median
over a run follows the host rather than the program. wall_s, the time to a
checked result of one round, is therefore the sum over the round's
operations of each operation's fastest time in the run: a run reaches it
once each short operation has run through one fast stretch. Operations
that do the same work on different inputs (the chunks of one check suite)
pool their times, so that such a stretch is met by one of hundreds of
samples rather than one of tens. A run that meets no fast stretch at all
reads up to 2x higher. The round-time median,
a high percentile, and a host-speed witness (a fixed reference loop timed
after every round, informational only) are printed beside the result.

With --trace 1, rounds alternate between untraced and traced, and the last
line carries the per-layer metrics of the traced rounds (per round), plus
trace.overhead_frac, the traced over the untraced wall_s, minus one.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 30

# Spans reported as <name>.calls, <name>.s and <name>.self_s.
LAYER_SPANS = (
    "cli.main", "cli.load_config", "cli.write_csv",
    "dynamics.simulate", "dynamics.step", "dynamics.repair", "dynamics.monitors",
    "dynamics.commutation_residual",
    "poisson.ham_vector_field", "poisson.gradient", "poisson.structure_matrix",
    "poisson.bracket", "poisson.jacobi_residual_all", "poisson.fd_gradient",
    "algebra3.reorthonormalize", "algebra3.exp_so3",
    "reduction.poisson_map_residual",
    "orbits.coadjoint", "orbits.same_orbit_witness", "orbits.witness_residual",
    "phase.random_chart_point",
    "checks.brackets", "checks.jacobi", "checks.poisson_map", "checks.casimirs",
    "checks.orbits", "checks.gradients", "checks.oracle_structure_matrix",
)
# Tracer counters: (name, unit).
LAYER_COUNTS = (
    ("poisson.structure_matrix.bytes", "bytes_computed"),
    ("cli.write_csv.rows", "count"),
    ("cli.write_csv.bytes", "bytes"),
    ("checks.samples", "count"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in print order."""
    units = {}
    for span in LAYER_SPANS:
        units.update({f"{span}.calls": "count", f"{span}.s": "s", f"{span}.self_s": "s"})
    for kind in tracing.STEP_KINDS:
        units.update({f"dynamics.step.{kind}.calls": "count",
                      f"dynamics.step.{kind}.us_p50": "us",
                      f"dynamics.step.{kind}.us_p99": "us"})
    for kind in tracing.POTENTIAL_KINDS.values():
        units[f"dynamics.potential.{kind}.grad_s"] = "s"
    units["reduction.chart_projection.calls"] = "count"
    units.update(dict(LAYER_COUNTS))
    units["trace.overhead_frac"] = "fraction"
    return units


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


def set_up() -> float:
    """Import symtop afresh and build the lazy caches its first call builds
    (structure tensors of every chart, both chart projections)."""
    for name in [m for m in sys.modules if m == "symtop" or m.startswith("symtop.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("symtop")
    importlib.import_module("symtop.cli")
    phase = sys.modules["symtop.phase"]
    for space in phase.SpaceId:
        sys.modules["symtop.poisson"].structure_tensors(space)
    for space in (phase.SpaceId.Reduced, phase.SpaceId.Se3Dual):
        sys.modules["symtop.reduction"].chart_projection(space)
    return time.perf_counter() - t0


def reference_loop() -> float:
    """Fixed interpreter and small-matrix work: the host-speed witness."""
    t0 = time.perf_counter()
    a, s = np.eye(3), 0.0
    for i in range(2000):
        a = a @ a
        s += i * 0.5
    return time.perf_counter() - t0


def run_op(op: workloads.Operation) -> tuple[float, int, str | None]:
    """One operation and its check: (seconds, certification samples, error)."""
    t0 = time.perf_counter()
    try:
        samples = op.run()
        return time.perf_counter() - t0, samples, None
    except SystemExit as e:  # argparse rejected the arguments
        error = f"exit {e.code}"
    except workloads.OutputError as e:
        error = str(e)
    except Exception as e:  # a crash inside the program fails the operation
        error = f"{type(e).__name__}: {e}"
    return time.perf_counter() - t0, 0, error


class Rounds:
    """Per-operation times of the untraced and the traced rounds."""

    def __init__(self, ops):
        self.ops = ops
        self.times = {False: [[] for _ in ops], True: [[] for _ in ops]}
        self.count = {False: 0, True: 0}
        self.attempted = 0
        self.errors: list[str] = []
        self.samples = 0
        self.witness: list[float] = []

    def run(self, traced: bool, timed: bool = True) -> None:
        samples = 0
        for i, op in enumerate(self.ops):
            seconds, n, error = run_op(op)
            self.attempted += 1
            samples += n
            if error is not None:
                self.errors.append(f"{op.name}: {error}")
            if timed:
                self.times[traced][i].append(seconds)
        self.samples = samples
        if timed:
            self.count[traced] += 1
        self.witness.append(reference_loop())

    def wall_s(self, traced: bool) -> float:
        """Sum over operations of the fastest time to a checked result that
        any operation of its group reached."""
        pooled: dict[str, list[float]] = {}
        for op, times in zip(self.ops, self.times[traced]):
            pooled.setdefault(op.group or op.name, []).extend(times)
        return sum(min(pooled[op.group or op.name]) for op in self.ops)

    def round_stats(self, traced: bool) -> dict[str, float]:
        """Whole-round times: the median, and the highest percentile with
        at least ten rounds beyond it (the maximum below 20 rounds)."""
        rounds = np.sum(self.times[traced], axis=0)
        q = max(50.0, 100.0 * (1.0 - 10.0 / rounds.size)) if rounds.size >= 20 else 100.0
        return {"median_s": float(np.median(rounds)),
                f"p{q:.0f}_s": float(np.percentile(rounds, q))}


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def layer_metrics(spans: dict, counts: dict, rounds: int, overhead: float) -> dict[str, float]:
    """Per-layer metrics per traced round, from Tracer.summary() and
    Tracer.counts."""
    steps = [spans.get(f"dynamics.step.{k}") for k in tracing.STEP_KINDS]
    merged = {"dynamics.step": {
        "calls": sum(s["calls"] for s in steps if s),
        "s": sum(s["s"] for s in steps if s),
        "self_s": sum(s["self_s"] for s in steps if s),
    }}
    values = {}
    for name in LAYER_SPANS:
        s = merged.get(name) or spans.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        values[f"{name}.calls"] = s["calls"] / rounds
        values[f"{name}.s"] = s["s"] / rounds
        values[f"{name}.self_s"] = s["self_s"] / rounds
    for kind, s in zip(tracing.STEP_KINDS, steps):
        us = s["durations"] * 1e6 if s else np.zeros(0)
        values[f"dynamics.step.{kind}.calls"] = us.size / rounds
        values[f"dynamics.step.{kind}.us_p50"] = float(np.percentile(us, 50)) if us.size else 0.0
        values[f"dynamics.step.{kind}.us_p99"] = float(np.percentile(us, 99)) if us.size else 0.0
    for kind in tracing.POTENTIAL_KINDS.values():
        s = spans.get(f"dynamics.potential.{kind}.grad")
        values[f"dynamics.potential.{kind}.grad_s"] = (s["s"] if s else 0.0) / rounds
    proj = spans.get("reduction.chart_projection")
    values["reduction.chart_projection.calls"] = (proj["calls"] if proj else 0) / rounds
    for name, _ in LAYER_COUNTS:
        values[name] = counts.get(name, 0) / rounds
    values["trace.overhead_frac"] = overhead
    return values


def self_time_shares(spans: dict) -> list[tuple[str, float]]:
    total = sum(s["self_s"] for s in spans.values()) or 1.0
    return sorted(((n, s["self_s"] / total) for n, s in spans.items()), key=lambda x: -x[1])


def parse_args(argv):
    p = argparse.ArgumentParser(description="symtop end-to-end benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def benchmark(workload: str, seed: int, seconds: float, trace: bool, build=None) -> dict:
    """Set up, run the workload's rounds for `seconds`, check every output
    and return the result object.  `build(seed, workdir)` overrides the
    workload's operations (the tests use smaller horizons)."""
    setups = [set_up()]
    WORK.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        ops = (build or workloads.WORKLOADS[workload])(seed, workdir)
        rounds = Rounds(ops)
        rounds.run(traced=False, timed=False)  # warm-up: numpy's lazy paths, file cache
        start = time.perf_counter()
        traced = False
        while True:
            if traced:
                tracer.install()
            try:
                rounds.run(traced)
            finally:
                if traced:
                    tracer.uninstall()
            elapsed = time.perf_counter() - start
            # Set-ups are spread over the run so that their median samples
            # the host as the rounds do.
            if len(setups) < SETUP_REPS * min(1.0, elapsed / seconds if seconds else 1.0):
                setups.append(set_up())
            done = rounds.count[False] >= 1 and (not trace or rounds.count[True] >= 1)
            if done and elapsed >= seconds:
                break
            traced = trace and not traced

    problems = list(rounds.errors)
    plain_wall = rounds.wall_s(False)
    report = {
        "workload": workload, "seed": seed, "rounds": rounds.count[False],
        "setup_cold_s": setups[0],
    }
    if trace:
        overhead = rounds.wall_s(True) / plain_wall - 1.0
        spans = tracer.summary()
        metrics = layer_metrics(spans, tracer.counts, rounds.count[True], overhead)
        units = per_layer_units()
        want_steps = sum(op.steps for op in ops)
        want_rows = sum(op.rows for op in ops)
        if metrics["dynamics.step.calls"] != want_steps:
            problems.append(f"dynamics.step.calls {metrics['dynamics.step.calls']} != {want_steps} per round")
        if metrics["cli.write_csv.rows"] != want_rows:
            problems.append(f"cli.write_csv.rows {metrics['cli.write_csv.rows']} != {want_rows} per round")
        report["traced_rounds"] = rounds.count[True]
        report["self_time_shares"] = self_time_shares(spans)
        report["spans_file"] = str(WORK / f"spans-{workload}.npz")
        tracer.save(report["spans_file"])
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": plain_wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        steps = sum(op.steps for op in ops)
        if steps:
            report["steps_per_s"] = steps / plain_wall
        else:
            report["samples_per_s"] = rounds.samples / plain_wall
        report["round_times"] = rounds.round_stats(False)
    report["witness_ms"] = [1e3 * min(rounds.witness), 1e3 * statistics.median(rounds.witness)]
    report["problems"] = problems
    return {
        "correct": not problems,
        "attempted": rounds.attempted,
        "failed": len(rounds.errors),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "report": report,
    }


def print_result(result: dict) -> None:
    report = result.pop("report")
    print("machine", json.dumps(machine_record()))
    for key in ("workload", "seed", "rounds", "traced_rounds", "setup_cold_s",
                "round_times", "witness_ms", "spans_file"):
        if key in report:
            print(f"{key:<16} {report[key]}")
    units = {"steps_per_s": "steps/s", "samples_per_s": "samples/s"}
    for key, unit in units.items():
        if key in report:
            print(f"metric {key} {report[key]:.6g} {unit}")
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    for name, share in report.get("self_time_shares", [])[:12]:
        print(f"self-time share {name:<40} {100 * share:5.1f}%")
    for problem in report["problems"]:
        print(f"FAILED {problem}")
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "symtop" / "__init__.py").is_file():
        print(f"error: symtop sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
