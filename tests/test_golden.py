"""Golden ``--full`` traces of the bundled paper config.

``tests/data/paper_full.csv`` and ``tests/data/paper_full_stationary.csv``
were written by ``mmxest run --config <bundled paper cfg> --full`` (the second
with ``--stationary``) before the gain schedule was batched over models.
Refactors of the numerics must reproduce every column to within 1e-12 of the
column's largest magnitude.
"""
from pathlib import Path

import numpy as np
import pytest

from mmxest import cli

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
