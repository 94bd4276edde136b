"""Golden ``--full`` traces of the bundled paper config.

``tests/data/paper_full.csv`` and ``tests/data/paper_full_stationary.csv``
were written by ``mmxest run --config <bundled paper cfg> --full`` (the second
with ``--stationary``) before the gain schedule was batched over models.
Refactors of the numerics must reproduce every column to within 1e-12 of the
column's largest magnitude.

Every solve in those traces is settled by the dominance check.
``tests/data/paper_full_stationary_seed52.csv`` was written by ``mmxest run
--config <bundled paper cfg> --seeds 52..52 --stationary --full`` with an
iterative solver that the exact stages have since replaced; every solve of
seed 52 is now settled by the dominance check or the crossing of two pieces.
Its minimax columns are checked at the solver's certificate level, since a
certified answer is all the solver promises.

``tests/data/paper_riccati.txt`` and ``tests/data/paper_check.txt`` are the
standard output of ``mmxest riccati`` and ``mmxest check`` on the bundled
paper config, written once the stationary solution became the recursion's
settled column; they are compared byte for byte.
"""
from pathlib import Path

import numpy as np
import pytest

from mmxest import cli, run_recursion
from mmxest.filter_bank import init
from mmxest.minimax import SOLVE_TOL, build_pieces, solve

DATA = Path(__file__).resolve().parent / "data"
REL_TOL = 1e-12


def read_columns(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(";")
    values = np.array([[float(cell) for cell in line.split(";")] for line in lines[1:]])
    return header, values


@pytest.mark.parametrize("name, flags", [
    ("paper_full.csv", []),
    ("paper_full_stationary.csv", ["--stationary"]),
])
def test_full_trace_matches_golden(tmp_path, paper_config_path, name, flags):
    out = tmp_path / name
    assert cli.main(["run", "--config", paper_config_path, "--full",
                     "--out", str(out), *flags]) == 0
    want_header, want = read_columns(DATA / name)
    got_header, got = read_columns(out)
    assert got_header == want_header
    assert got.shape == want.shape
    for j, column in enumerate(want_header):
        scale = float(np.max(np.abs(want[:, j])))
        err = float(np.max(np.abs(got[:, j] - want[:, j])))
        assert err <= REL_TOL * scale, f"column {column}: max error {err:.3e}, scale {scale:.3e}"


def test_seed52_trace_matches_golden(tmp_path, paper_config_path):
    out = tmp_path / "seed.csv"
    assert cli.main(["run", "--config", paper_config_path, "--seeds", "52..52",
                     "--stationary", "--full", "--out", str(out)]) == 0
    want_header, want = read_columns(DATA / "paper_full_stationary_seed52.csv")
    got_header, got = read_columns(tmp_path / "seed_seed52.csv")
    assert got_header == want_header
    assert got.shape == want.shape
    minimax = [j for j, c in enumerate(want_header) if c.startswith(("Jstar", "zh_mini", "lam"))]
    for j, column in enumerate(want_header):
        if j in minimax:
            continue
        scale = float(np.max(np.abs(want[:, j])))
        err = float(np.max(np.abs(got[:, j] - want[:, j])))
        assert err <= REL_TOL * scale, f"column {column}: max error {err:.3e}, scale {scale:.3e}"
    col = {c: j for j, c in enumerate(want_header)}
    # two certified values both lie within the gap of J*
    J, J_want = got[:, col["Jstar"]], want[:, col["Jstar"]]
    assert np.all(np.abs(J - J_want) <= SOLVE_TOL + 16 * np.finfo(float).eps * np.abs(J_want))
    # every W_i >= I, so a gap <= tol puts yhat within sqrt(tol) of the minimizer
    zh = got[:, col["zh_mini"]] - want[:, col["zh_mini"]]
    assert np.all(np.abs(zh) <= 2.0 * np.sqrt(SOLVE_TOL))
    lam = got[:, [j for c, j in col.items() if c.startswith("lam")]]
    assert np.all(lam >= 0.0)
    np.testing.assert_allclose(lam.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_opening_tie_keeps_uniform_weights(paper_config):
    # At t = 0 both models predict H xhat0 at zero cost: two tied top pieces
    # with one center, which share the weight equally, as the golden trace
    # records.
    header, want = read_columns(DATA / "paper_full.csv")
    assert [want[0, header.index(c)] for c in ("lam0", "lam1")] == [0.5, 0.5]
    gains = run_recursion(paper_config.models, paper_config.horizon)
    est = solve(build_pieces(init(gains)))
    assert est.weights.tolist() == [0.5, 0.5]
    assert est.active == (0, 1)
    assert est.gap == 0.0 and est.iterations == 0


@pytest.mark.parametrize("command", ["riccati", "check"])
def test_text_report_matches_golden(paper_config_path, capsys, command):
    assert cli.main([command, "--config", paper_config_path]) == 0
    assert capsys.readouterr().out == (DATA / f"paper_{command}.txt").read_text(encoding="utf-8")
