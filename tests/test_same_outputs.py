from pathlib import Path

import same_outputs

ROOT = Path(__file__).resolve().parents[1]


def write_tree(root, files):
    for rel, data in files.items():
        path = Path(root) / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


FILES = {"run/trace.csv": b"t;z\n0;1.5\n1;2.5\n", "run/exit_code": b"0\n",
         "seeds/trace_seed3.csv": b"t;z\n0;0.25\n"}


def test_identical_directories_have_no_difference(tmp_path):
    write_tree(tmp_path / "a", FILES)
    write_tree(tmp_path / "b", FILES)
    assert same_outputs.first_difference(tmp_path / "a", tmp_path / "b") is None


def test_one_changed_byte_names_its_file_and_line(tmp_path):
    write_tree(tmp_path / "a", FILES)
    write_tree(tmp_path / "b", {**FILES, "run/trace.csv": b"t;z\n0;1.5\n1;2.6\n"})
    diff = same_outputs.first_difference(tmp_path / "a", tmp_path / "b")
    assert diff.startswith("run/trace.csv: line 3 differs:")
    assert "2.5" in diff and "2.6" in diff


def test_a_file_on_one_side_only_is_a_difference(tmp_path):
    write_tree(tmp_path / "a", FILES)
    write_tree(tmp_path / "b", {**FILES, "seeds/trace_seed4.csv": b"t;z\n"})
    diff = same_outputs.first_difference(tmp_path / "a", tmp_path / "b")
    assert diff == f"seeds/trace_seed4.csv: only in {tmp_path / 'b'}"


def test_a_missing_last_line_is_a_difference(tmp_path):
    write_tree(tmp_path / "a", FILES)
    write_tree(tmp_path / "b", {**FILES, "run/trace.csv": b"t;z\n0;1.5\n"})
    diff = same_outputs.first_difference(tmp_path / "a", tmp_path / "b")
    assert diff == f"run/trace.csv: line 3 is only in {tmp_path / 'a'}"


def test_workload_reference_inputs_are_rendered_per_checkout(tmp_path):
    # The four paper_long data sets at N = 1000 and the four random banks
    # (m = 2), as the benchmark renders them; every run delivers a trace.
    same_outputs.collect_workloads(ROOT, tmp_path)
    assert (tmp_path / "workloads" / "exit_code").read_text() == "0\n"
    runs = {"paper_long": ([f"data{d}" for d in range(4)], 1000),
            "random_banks": ([f"bank{b}-K{K}" for b in (0, 1) for K in (8, 32)], 200)}
    for workload, (labels, steps) in runs.items():
        files = {p.name for p in (tmp_path / workload).iterdir()}
        assert files == {f"{label}.{ext}" for label in labels for ext in ("csv", "status")}
        for label in labels:
            assert (tmp_path / workload / f"{label}.status").read_text() == "ok\n"
            lines = (tmp_path / workload / f"{label}.csv").read_text().splitlines()
            assert len(lines) == steps + 1
    header = (tmp_path / "random_banks" / "bank1-K8.csv").read_text().splitlines()[0]
    assert header.startswith("t;z0;z1;zh_mini0;zh_mini1;")


def test_rendered_outputs_match_the_recorded_digests(tmp_path):
    # Every file tools/same_outputs.py renders (the CLI runs on the paper
    # config and its copies, and the benchmark's N = 1000 and m = 2 reference
    # inputs) has the sha256 recorded in tests/data/outputs.sha256.  A change that moves
    # an output on purpose re-records the file with --digests.
    recorded = ROOT / "tests" / "data" / "outputs.sha256"
    same_outputs.collect(ROOT, tmp_path)
    assert same_outputs.digest_difference(recorded, tmp_path) is None
    assert len(same_outputs.read_digests(recorded)[1]) == 196


def test_digest_difference_names_the_first_file_and_a_numpy_mismatch(tmp_path):
    write_tree(tmp_path / "out", FILES)
    record = tmp_path / "outputs.sha256"
    same_outputs.write_digests(tmp_path / "out", record)
    header, recorded = same_outputs.read_digests(record)
    assert header == same_outputs.environment() and header.startswith("# numpy ")
    assert sorted(recorded) == sorted(FILES)
    assert same_outputs.digest_difference(record, tmp_path / "out") is None
    write_tree(tmp_path / "out", {"run/trace.csv": b"t;z\n0;1.5\n1;2.6\n",
                                  "seeds/trace_seed4.csv": b"t;z\n"})
    assert same_outputs.digest_difference(record, tmp_path / "out") == "run/trace.csv: differs"
    (tmp_path / "out" / "run" / "exit_code").unlink()
    diff = same_outputs.digest_difference(record, tmp_path / "out")
    assert diff == "run/exit_code: not rendered"
    body = record.read_text().split("\n", 1)[1]
    record.write_text("# numpy 0.0.1; python 3.0.0; Plan9 mips\n" + body)
    diff = same_outputs.digest_difference(record, tmp_path / "out")
    assert diff.startswith("run/exit_code: not rendered (numpy differs: recorded '# numpy 0.0.1;")
    assert same_outputs.environment() in diff
