"""The traced benchmark's call-count check, run on the shapes the benchmark runs.

``perfbench/tracer.py`` wraps the public function of each layer and
``expected_call_problems`` requires the call counts a delivered run implies.
A refactor that breaks that contract makes the traced benchmark report an
error; these tests report it first, through the benchmark's own check, on a
paper-config simulation, a K=8, n=4, m=2 random bank, the benchmark's K=32,
n=4, m=2, N=200 bank and CLI seed sweeps, stationary and time-varying.
"""
import pytest

import mmxest as mx
import tracer
from mmxest import cli


def traced(work):
    """Run ``work()`` under the benchmark's tracer; return its summary."""
    spans = tracer.Tracer()
    spans.install()
    try:
        work()
    finally:
        spans.uninstall()
    return spans.summary()


@pytest.mark.parametrize("stationary", [False, True], ids=["time-varying", "stationary"])
def test_traced_simulation_meets_call_contract(paper_config, stationary):
    # From a cold ARE memo, so the stationary run's K solves iterate under
    # the tracer: an ARE reaching the recursion through run_recursion would
    # be counted there and break the contract.
    cfg = paper_config
    mx.riccati._solve_are.cache_clear()
    summary = traced(lambda: mx.simulate(
        cfg.models, cfg.true_model, 50, process_noise=cfg.process_noise,
        measurement_noise=cfg.measurement_noise, input_spec=cfg.input_spec,
        stationary=stationary))
    assert [run["ok"] for run in summary["runs"]] == [True]
    assert tracer.expected_call_problems(summary, 1, 0) == []
    assert mx.riccati._solve_are.cache_info().misses == (cfg.models.K if stationary else 0)


def assert_traced_bank_meets_call_contract(models, N):
    summary = traced(lambda: mx.simulate(models, 0, N, mx.NoiseSpec(seed=0),
                                         mx.NoiseSpec(seed=1)))
    assert [(run["ok"], run["K"], run["N"]) for run in summary["runs"]] == [(True, models.K, N)]
    assert tracer.expected_call_problems(summary, 1, 0) == []


def test_traced_random_bank_meets_call_contract(bench_banks):
    assert_traced_bank_meets_call_contract(bench_banks["bank1-K8"], 40)


def test_traced_k32_bank_meets_call_contract(bench_banks):
    # The benchmark's bank seed 0 at K=32, whose models settle at t = 15..110.
    assert_traced_bank_meets_call_contract(bench_banks["bank0-K32"], 200)


def assert_traced_cli_seed_sweep_meets_call_contract(config_path, out, stationary):
    argv = ["run", "--config", config_path, "--seeds", "0..2", "--full", "--out", str(out)]
    if stationary:
        argv.append("--stationary")
    codes = []
    summary = traced(lambda: codes.append(cli.main(argv)))
    assert codes == [0]
    assert [(run["ok"], run["stationary"]) for run in summary["runs"]] == [(True, stationary)] * 3
    assert tracer.expected_call_problems(summary, 3, 3) == []


def test_traced_cli_seed_sweep_meets_call_contract(paper_config_path, paper_models, tmp_path):
    # Seed 0 solves each model's ARE and packages the schedule under the
    # tracer (cold memos); seeds 1 and 2 reuse both.
    mx.riccati._solve_are.cache_clear()
    mx.riccati._stationary_schedule.cache_clear()
    assert_traced_cli_seed_sweep_meets_call_contract(paper_config_path, tmp_path / "t.csv", True)
    info = mx.riccati._solve_are.cache_info()
    assert (info.misses, info.hits) == (paper_models.K, 2 * paper_models.K)
    info = mx.riccati._stationary_schedule.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_traced_time_varying_cli_seed_sweep_meets_call_contract(paper_config_path, tmp_path):
    # Seeds 1 and 2 reuse the schedule of seed 0 (a cache hit inside
    # run_recursion), and each run still makes its one run_recursion call.
    mx.riccati._run_recursion.cache_clear()
    assert_traced_cli_seed_sweep_meets_call_contract(paper_config_path, tmp_path / "t.csv", False)
    assert mx.riccati._run_recursion.cache_info().hits == 2
