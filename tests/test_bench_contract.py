"""The traced benchmark's call-count check, run on one paper-config simulation.

``perfbench/tracer.py`` wraps the public function of each layer and
``expected_call_problems`` requires the call counts a delivered run implies.
A refactor that breaks that contract makes the traced benchmark report an
error; this test reports it first, through the benchmark's own check.
"""
import sys
from pathlib import Path

import pytest

import mmxest as mx

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


@pytest.mark.parametrize("stationary", [False, True], ids=["time-varying", "stationary"])
def test_traced_simulation_meets_call_contract(paper_config, stationary):
    cfg = paper_config
    spans = tracer.Tracer()
    spans.install()
    try:
        mx.simulate(cfg.models, cfg.true_model, 50, process_noise=cfg.process_noise,
                    measurement_noise=cfg.measurement_noise, input_spec=cfg.input_spec,
                    stationary=stationary)
    finally:
        spans.uninstall()
    summary = spans.summary()
    assert [run["ok"] for run in summary["runs"]] == [True]
    assert tracer.expected_call_problems(summary, 1, 0) == []
