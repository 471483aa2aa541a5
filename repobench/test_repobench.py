"""Self-tests of the repository benchmark.

Run from the repository root with ``python -m pytest repobench``. They
run every workload at a tiny size, check that the output check catches
a planted schedule change and a planted lost request, and that the
printed metrics are exactly the ones ``BENCHMARK.json`` declares.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run as bench

scenarios = bench.load_program()

from repro import FlepSystem  # noqa: E402  (load_program puts src/ on the path)
from repro.fleet import FleetSystem  # noqa: E402

SPEC = bench.load_spec()
TINY = {
    "fleet_scale": 0.05,
    "fleet_chaos": 0.2,
    "fig8_chains": 0.05,
    "preempt_storm": 0.1,
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _reference_and_fast(workload, seed):
    w = scenarios.WORKLOADS[workload]
    run = bench.Run(scenarios, None, workload, seed, TINY[workload])
    run.reference()
    return w, run, w.execute(run.inputs)


def _bench(*args, cwd=bench.ROOT):
    cmd = [sys.executable, os.path.join(cwd, "repobench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(scenarios.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    setup = {m["name"]: m for m in SPEC["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("seed", [1, 7])
def test_every_workload_runs_clean_at_a_tiny_size(workload, seed):
    _, run, out = _reference_and_fast(workload, seed)
    assert run.problems == []
    assert scenarios.check(out, run.ref.schedule_hash) == []
    assert out.requests == run.inputs.requests > 0
    assert out.served > 0


def test_inputs_repeat_per_seed_and_differ_between_seeds():
    w = scenarios.WORKLOADS["preempt_storm"]
    assert w.generate(3, 0.1) == w.generate(3, 0.1)
    assert w.generate(3, 0.1) != w.generate(4, 0.1)


def test_planted_schedule_change_is_caught():
    w, run, _ = _reference_and_fast("preempt_storm", 1)
    moved = run.inputs.arrivals[-1]
    run.inputs.arrivals[-1] = type(moved)(
        moved.at_us + 1.0, moved.kernel_name, moved.input_name,
        priority=moved.priority,
    )
    problems = scenarios.check(w.execute(run.inputs), run.ref.schedule_hash)
    assert any("schedule hash" in p for p in problems)


def test_planted_lost_request_is_caught_on_one_gpu(monkeypatch):
    w, run, _ = _reference_and_fast("preempt_storm", 1)
    submit = FlepSystem.submit_at
    dropped = []

    def lossy(self, at_us, process, *args, **kwargs):
        if process.startswith("rt") and not dropped:
            dropped.append(process)
            return
        submit(self, at_us, process, *args, **kwargs)

    monkeypatch.setattr(FlepSystem, "submit_at", lossy)
    problems = scenarios.check(w.execute(run.inputs), run.ref.schedule_hash)
    assert dropped and "conservation ledger does not close" in problems


def test_planted_lost_request_is_caught_in_a_fleet(monkeypatch):
    w, run, _ = _reference_and_fast("fleet_scale", 1)
    route = FleetSystem._route
    dropped = []

    def lossy(self, arrival):
        if not dropped:
            dropped.append(arrival)
            return
        route(self, arrival)

    monkeypatch.setattr(FleetSystem, "_route", lossy)
    problems = scenarios.check(w.execute(run.inputs), run.ref.schedule_hash)
    assert dropped and "conservation ledger does not close" in problems


def test_chaos_exercises_steals_sheds_and_reroutes():
    _, run, out = _reference_and_fast("fleet_chaos", 2)
    assert out.counts["steals"] > 0
    assert out.counts["shed"] > 0
    assert out.counts["reroutes"] > 0


def test_storm_preemptions_grow_with_length():
    w = scenarios.WORKLOADS["preempt_storm"]
    short = w.execute(w.generate(1, 0.1), probe=True)
    long = w.execute(w.generate(1, 0.5), probe=True)
    assert len(long.high_latencies_us) > 2 * len(short.high_latencies_us)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_the_declared_ones(trace):
    proc = _bench("--workload", "preempt_storm", "--seed", "5",
                  "--seconds", "0.1", "--trace", trace, "--scale", "0.05")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "repobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "fig8_chains", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
