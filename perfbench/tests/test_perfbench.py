"""Tests of the benchmark harness itself, at tiny workload sizes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny(name):
    if name == "adversarial_rollout":
        return workloads.AdversarialWorkload(scenarios=2, ticks=20)
    shielded = name == "train_shielded_b64"
    return workloads.TrainingWorkload(
        name, shielded=shielded, batch_size=16, update_every=4, episodes=3, n_seeds=2,
        episode_len=20, warmup_transitions=30,
    )


def run_main(monkeypatch, capsys, tmp_path, name, trace, factory=tiny):
    monkeypatch.setattr(workloads, "make_workload", factory)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    for var in run.BLAS_ENV:
        monkeypatch.setenv(var, run.BLAS_THREADS)
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_every_spec_workload_exists():
    for name in NAMES:
        assert workloads.make_workload(name).planned_steps > 0


@pytest.mark.parametrize("name", NAMES)
def test_smoke_end_to_end(monkeypatch, capsys, tmp_path, name):
    code, result = run_main(monkeypatch, capsys, tmp_path, name, trace=0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_smoke_traced(monkeypatch, capsys, tmp_path, name):
    code, result = run_main(monkeypatch, capsys, tmp_path, name, trace=1)
    assert code == 0 and result["correct"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(m) == [x["name"] for x in SPEC["per_layer"]]
    assert (tmp_path / f"spans_{name}_seed3_trace1.csv.gz").is_file()
    if name == "train_unshielded_b256":
        assert m["qp.solve.calls"] == m["barriers.row_core.calls"] == 0
        assert m["shield.filter_action.calls"] == 0
    else:
        assert m["shield.filter_action.calls"] == m["qp.solve.calls"] > 0
        assert 0.0 <= m["qp.kkt_residual_max"] <= run.KKT_GATE
    if name == "adversarial_rollout":
        assert m["maddpg.update.calls"] == m["nets.forward.busy_s"] == 0
        assert m["nets.update_mflop"] == 0
    else:
        assert m["maddpg.update.calls"] > 0 and m["nets.update_mflop"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_tracing_leaves_arithmetic_alone(name):
    w = tiny(name)
    w.setup(5)
    plain = w.run_unit()
    with Tracer() as tracer:
        traced = w.run_unit(tracer)
    assert plain.digest == traced.digest
    assert plain.steps == traced.steps > 0
    assert all(len(t.piece_factors) == len(t.piece_steps) for t in plain.runs)
    # every wrapped attribute is restored
    from marlshield import qp, shield

    assert not hasattr(qp.solve, "__wrapped__") and not hasattr(shield.filter_action, "__wrapped__")


def test_self_time_of_synthetic_span_tree():
    # root [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert list(self_times(starts, ends, parents)) == [3.0, 2.0, 1.0, 4.0]


def test_raising_unit_fails_the_run(monkeypatch, capsys, tmp_path):
    class Broken:
        planned_steps = 7
        n_runs = 1
        mflop_per_update = 0.0
        shielded = True

        def __init__(self, name):
            self.params = workloads.ShieldParams()

        def setup(self, seed):
            pass

        def run_unit(self, tracer=None):
            raise ValueError("boom")

    code, result = run_main(monkeypatch, capsys, tmp_path, "adversarial_rollout", 0, Broken)
    assert code == 1
    assert result == {"correct": False, "attempted": 7, "failed": 7, "metrics": {}}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adversarial_rollout", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
