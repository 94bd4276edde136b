import re

import solver_sweep


def test_one_seed_certifies_every_set(capsys):
    assert solver_sweep.main(["100", "100"]) == 0
    out = capsys.readouterr().out
    found = re.fullmatch(r"sets 1000, answered by the ascent (\d+), NoConvergence 0, "
                         r"worst ascent gap ([\d.]+) eps \(1 \+ \|J\*\|\)\n", out)
    assert found, out
    assert int(found[1]) > 0
    assert float(found[2]) < 64.0
