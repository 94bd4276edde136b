from pathlib import Path

import same_outputs


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
