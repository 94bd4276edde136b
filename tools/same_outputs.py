"""Byte comparison of what two checkouts print and write on the bundled config.

    python3 tools/same_outputs.py PARENT CHANGE

In each checkout, with its own ``src`` first on the import path, runs
``python3 -m mmxest.cli`` on ``src/mmxest/configs/example_paper.cfg``:

- ``run --full``, time-varying and ``--stationary``;
- ``run --seeds 0..63 --full``, time-varying and ``--stationary`` (64 files each);
- ``riccati``;
- ``check``.

Every CSV, and each command's standard output, standard error and exit
code, goes into one directory per checkout; then the two directories are
compared file by file, byte for byte.  Prints the first differing file and
line (or the first file only one side has) and exits 1 on any difference,
else prints how many files matched and exits 0.  Standard library only; it
writes nothing into either checkout.
"""
import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG = Path("src") / "mmxest" / "configs" / "example_paper.cfg"
# name -> CLI arguments; {out} is the command's own output directory
COMMANDS = {
    "run": ["run", "--full", "--out", "{out}/trace.csv"],
    "run_stationary": ["run", "--full", "--stationary", "--out", "{out}/trace.csv"],
    "seeds": ["run", "--seeds", "0..63", "--full", "--out", "{out}/trace.csv"],
    "seeds_stationary": ["run", "--seeds", "0..63", "--full", "--stationary",
                         "--out", "{out}/trace.csv"],
    "riccati": ["riccati"],
    "check": ["check"],
}


def collect(checkout, dest):
    """Run every command in ``checkout``, keeping all it writes under ``dest``."""
    checkout = Path(checkout).resolve()
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    for name, args in COMMANDS.items():
        out = Path(dest) / name
        out.mkdir(parents=True)
        argv = [a.format(out=out) for a in args]
        proc = subprocess.run([sys.executable, "-m", "mmxest.cli", argv[0], "--config",
                               str(CONFIG), *argv[1:]], cwd=checkout, env=env,
                              capture_output=True, check=False)
        (out / "stdout").write_bytes(proc.stdout)
        (out / "stderr").write_bytes(proc.stderr)
        (out / "exit_code").write_text(f"{proc.returncode}\n")


def first_difference(a, b):
    """None if directories ``a`` and ``b`` hold the same files with the same
    bytes, else a line naming the first file that differs and where."""
    a, b = Path(a), Path(b)
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    for rel in sorted(files_a | files_b):
        if rel not in files_b or rel not in files_a:
            return f"{rel}: only in {a if rel in files_a else b}"
        data_a, data_b = (a / rel).read_bytes(), (b / rel).read_bytes()
        if data_a == data_b:
            continue
        lines_a, lines_b = data_a.splitlines(keepends=True), data_b.splitlines(keepends=True)
        for n, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
            if x != y:
                return f"{rel}: line {n} differs:\n  - {x!r}\n  + {y!r}"
        n = min(len(lines_a), len(lines_b)) + 1
        return f"{rel}: line {n} is only in {a if len(lines_a) >= n else b}"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        sides = [Path(tmp) / "parent", Path(tmp) / "change"]
        for checkout, dest in zip((args.parent, args.change), sides):
            collect(checkout, dest)
        diff = first_difference(*sides)
        if diff is not None:
            print(f"outputs differ: {diff}")
            return 1
        count = sum(1 for p in sides[0].rglob("*") if p.is_file())
    print(f"outputs identical: {count} files, byte for byte")
    return 0


if __name__ == "__main__":
    sys.exit(main())
