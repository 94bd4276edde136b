"""Byte comparison of what two checkouts print and write on the bundled config.

    python3 tools/same_outputs.py PARENT CHANGE

In each checkout, with its own ``src`` first on the import path, runs
``python3 -m mmxest.cli`` on ``src/mmxest/configs/example_paper.cfg``:

- ``run --full``, time-varying and ``--stationary``;
- ``run --seeds 0..63 --full``, time-varying and ``--stationary`` (64 files each);
- ``riccati``;
- ``check``.

The CLI sees only the paper config's 20 steps and m = 1, so each checkout
also renders, with its own ``perfbench/workloads.py``, the ``--full`` CSV of
the benchmark's in-process reference inputs (workload seed 0): the four
``paper_long`` data sets (N = 1000) and the four ``random_banks`` banks
(m = 2), or the name of the error a run raised.

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
# Run in a checkout with its src and perfbench on the path; argv[1] is the
# output directory.  Writes <workload>/<label>.status, and <label>.csv when
# the run delivered a trace.
WORKLOADS = """
import sys
from pathlib import Path
import workloads
dest = Path(sys.argv[1])
ctx = workloads.Context(root=Path.cwd(), work=dest)
for cls in (workloads.PaperLong, workloads.RandomBanks):
    wl = cls(ctx)
    out = dest / wl.name
    out.mkdir()
    for variant in range(wl.variants):
        for o in wl.run(0, variant).outputs:
            (out / f"{o.label}.status").write_text(o.status + "\\n")
            if o.csv is not None:
                (out / f"{o.label}.csv").write_text(o.csv)
"""


def _keep(proc, out):
    (out / "stdout").write_bytes(proc.stdout)
    (out / "stderr").write_bytes(proc.stderr)
    (out / "exit_code").write_text(f"{proc.returncode}\n")


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
        _keep(proc, out)
    collect_workloads(checkout, dest)


def collect_workloads(checkout, dest):
    """Render the benchmark's reference inputs in ``checkout`` under ``dest``."""
    checkout = Path(checkout).resolve()
    path = os.pathsep.join(str(checkout / d) for d in ("src", "perfbench"))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    out = Path(dest) / "workloads"
    out.mkdir(parents=True)
    proc = subprocess.run([sys.executable, "-c", WORKLOADS, str(Path(dest).resolve())],
                          cwd=checkout, env=env, capture_output=True, check=False)
    _keep(proc, out)


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
