import re

import solver_sweep


def test_one_seed_certifies_every_set(capsys):
    assert solver_sweep.main(["100", "100"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4, out
    rows = [re.fullmatch(rf"m {m}: sets (\d+), non-dominated (\d+), "
                         + (r"past the walk (\d+), " if m == 1 else "") + r"[\d.]+ s", line)
            for m, line in zip((1, 2, 3), out)]
    assert all(rows), out
    assert sum(int(row[1]) for row in rows) == 1000
    assert all(0 < int(row[2]) <= int(row[1]) for row in rows)
    assert rows[0][3] == "0"  # the walk answers every scalar set
    found = re.fullmatch(r"sets 1000, answered by the ascent (\d+), NoConvergence 0, "
                         r"worst ascent gap ([\d.]+) eps \(1 \+ \|J\*\|\)", out[3])
    assert found, out
    assert int(found[1]) > 0
    assert float(found[2]) < 64.0
