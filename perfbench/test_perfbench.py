"""Self-tests of the benchmark: determinism of its counts, seeded inputs, and
its refusals.  Run with ``python3 -m pytest perfbench``."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._load_library()

import workloads  # noqa: E402

TINY = 4  # instances per run
SEED = 7


def _counts(metrics: dict) -> dict:
    return {
        name: value["value"]
        for name, value in metrics.items()
        if value["unit"] == "count" or name in ("fail_frac", "sim.useful_round_frac", "solvers.budget_use_max")
    }


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_counts_repeat_exactly(name):
    for trace in (0, 1):
        first, second = (
            run.run_workload(name, SEED, 0, trace, max_instances=TINY, setup_children=0)
            for _ in range(2)
        )
        assert first["correct"] and second["correct"]
        assert first["accounting"]["attempted"] == (TINY if trace else TINY * run.MIN_PASSES)
        counts = _counts(first["metrics"])
        assert counts == _counts(second["metrics"])
        if trace:
            assert any(k.endswith(".calls") and v for k, v in counts.items())
            assert "core.group_ops_per_instance" in counts
            assert "sim.rounds_per_hsp" in counts
        else:
            assert "f_queries_per_instance" in counts
            assert "fail_frac" in counts


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_seed_changes_the_instances(name):
    workload = workloads.WORKLOADS[name]
    pools = []
    for seed in (SEED, SEED + 1, SEED):
        prepared = workloads.Prepared(workload, seed, HERE)
        pools.append(prepared.fingerprint())
        prepared.close()
    assert pools[0] == pools[2]
    assert pools[0] != pools[1]


def test_tracer_restores_the_library():
    from hsplab import cli, core, solvers
    from tracer import Tracer

    originals = (core.enumerate_closure, solvers.solve_small_commutator, core.BlackBoxGroup.multiply)
    oracle = core.make_hiding_oracle
    with Tracer():
        # every module that imported the name sees the same wrapper
        assert solvers.enumerate_closure is core.enumerate_closure is not originals[0]
        assert cli.make_hiding_oracle is core.make_hiding_oracle is not oracle
    assert (core.enumerate_closure, solvers.solve_small_commutator, core.BlackBoxGroup.multiply) == originals
    assert solvers.enumerate_closure is originals[0]


def _bench(args, cwd):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=120
    )


def test_refuses_optimized_python():
    proc = _bench(["-O", "perfbench/run.py", "--workload", "cli-suite", "--seed", "1"], HERE.parent)
    assert proc.returncode != 0
    assert "python -O" in proc.stderr


def test_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(["perfbench/run.py", "--workload", "cli-suite", "--seed", "1", "--seconds", "1"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
