"""Tests of the benchmark itself: `python3 -m pytest bench/tests -q`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY_T = 0.01
TINY = {
    "trajectory": lambda seed, d: workloads.trajectory(seed, d, T=TINY_T),
    "dense-output": lambda seed, d: workloads.dense_output(seed, d, T=TINY_T),
    "certify": workloads.certify,
}


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_prints_every_metric_with_unit(workload, trace, capsys):
    result = run.benchmark(workload, seed=3, seconds=0.0, trace=trace, build=TINY[workload])
    run.print_result(result)
    out = capsys.readouterr().out
    final = _last_json(out)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    units = run.per_layer_units() if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in final["metrics"].items()} == units
    for name, unit in units.items():
        assert f"metric {name} " in out and out.split(f"metric {name} ", 1)[1].split("\n", 1)[0].endswith(f" {unit}")
    if not trace:
        assert all(v["value"] > 0 for v in final["metrics"].values())
        assert ("metric samples_per_s" if workload == "certify" else "metric steps_per_s") in out


def test_traced_counts_match_the_generated_inputs(tmp_path):
    ops = TINY["trajectory"](5, str(tmp_path))
    result = run.benchmark("trajectory", seed=5, seconds=0.0, trace=True, build=TINY["trajectory"])
    m = result["metrics"]
    assert m["dynamics.step.calls"]["value"] == sum(op.steps for op in ops)
    assert m["cli.write_csv.rows"]["value"] == sum(op.rows for op in ops)
    assert m["dynamics.step.reduced.rk4.calls"]["value"] == workloads.n_steps(TINY_T)
    assert result["correct"] is True


def test_uninstall_restores_every_original():
    import symtop.checks
    import symtop.dynamics
    import symtop.poisson

    before = (symtop.dynamics.step, symtop.dynamics.ham_vector_field,
              symtop.poisson.ScalarField.gradient, dict(symtop.checks.SUITES),
              symtop.dynamics.DipolePotential.grad_x)
    tracer = tracing.Tracer()
    tracer.install()
    assert symtop.dynamics.ham_vector_field is not before[1]
    assert symtop.checks.SUITES["brackets"] is not before[3]["brackets"]
    tracer.uninstall()
    after = (symtop.dynamics.step, symtop.dynamics.ham_vector_field,
             symtop.poisson.ScalarField.gradient, dict(symtop.checks.SUITES),
             symtop.dynamics.DipolePotential.grad_x)
    assert after == before


def _shift_column(column: str, delta: float):
    def damage(lines):
        fields = lines[-1].rstrip("\n").split(",")
        i = workloads.COLS[column]
        fields[i] = repr(float(fields[i]) + delta)
        return lines[:-1] + [",".join(fields) + "\n"]
    return damage


@pytest.mark.parametrize("damage, message", [
    (lambda lines: lines[:-1], "rows"),                     # truncated by a row
    (lambda lines: lines[:-1] + [lines[-1][:20]], "newline"),  # cut mid-line
    (_shift_column("energy", 1e-6), "|dh|"),
    (_shift_column("C1", 1e-9), "|C1-1|"),
    (_shift_column("C2", 1e-6), "|dC2|"),
    (_shift_column("nu1", 1e-6), "free-top"),
])
def test_corrupted_output_is_a_failed_operation(tmp_path, monkeypatch, damage, message):
    import symtop.cli

    real_main = symtop.cli.main

    def main_then_damage(argv):
        code = real_main(argv)
        path = argv[argv.index("--out") + 1]
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines(keepends=True)
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(damage(lines))
        return code

    monkeypatch.setattr(symtop.cli, "main", main_then_damage)
    wanted = "simulate/reduced/zero" if message == "free-top" else "simulate/full/gravity"
    ops = [op for op in workloads.trajectory(7, str(tmp_path), T=TINY_T) if op.name == wanted]
    rounds = run.Rounds(ops)
    rounds.run(traced=False)
    assert rounds.attempted == 1
    assert len(rounds.errors) == 1 and message in rounds.errors[0]


def test_compare_over_tolerance_is_a_failed_operation(tmp_path, monkeypatch):
    import symtop.dynamics

    compare = next(op for op in workloads.trajectory(1, str(tmp_path), T=TINY_T)
                   if op.name.startswith("compare/"))
    monkeypatch.setattr(symtop.dynamics, "commutation_residual", lambda *a, **k: 5e-7)
    assert compare.run() == 0
    monkeypatch.setattr(symtop.dynamics, "commutation_residual", lambda *a, **k: 2e-6)
    with pytest.raises(workloads.OutputError, match="exit code 1"):
        compare.run()


def test_failed_check_suite_is_a_failed_operation(tmp_path, monkeypatch):
    import symtop.checks

    op = next(op for op in workloads.certify(1, str(tmp_path)) if op.group == "check/brackets")
    assert op.run() == 4 * 5
    monkeypatch.setitem(symtop.checks.SUITES, "brackets", lambda seed, **sizes: [
        symtop.checks.CheckResult("brackets/CotSO3", 1e-3, 0.0, 5)])
    rounds = run.Rounds([op])
    rounds.run(traced=False)
    assert rounds.attempted == 1
    assert len(rounds.errors) == 1 and "1 of 1 checks failed" in rounds.errors[0]


def test_certify_round_covers_check_suite_all(tmp_path):
    import symtop.checks

    ops = workloads.certify(2, str(tmp_path))
    assert len({op.name for op in ops}) == len(ops)
    whole = sum(r.samples for r in symtop.checks.run_suite("all", seed=2))
    assert sum(op.run() for op in ops) == whole


def test_wall_s_pools_the_times_of_a_group():
    def op(name, group=""):
        return workloads.Operation(name, 0, 0, lambda: 0, group=group)

    rounds = run.Rounds([op("a", "g"), op("b", "g"), op("c")])
    rounds.times[False] = [[3.0, 2.0], [1.0, 4.0], [5.0, 6.0]]
    assert rounds.wall_s(False) == 1.0 + 1.0 + 5.0


def test_inputs_depend_only_on_the_seed(tmp_path):
    def configs(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        workloads.trajectory(seed, str(d), T=TINY_T)
        return {p.name: p.read_text() for p in sorted(d.glob("*.json"))}

    first = configs(11, "a")
    assert first == configs(11, "b")
    assert first != configs(12, "c")


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "trajectory", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
