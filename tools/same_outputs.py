"""Byte comparison of what two checkouts print and write on the bundled config.

    python3 tools/same_outputs.py PARENT CHANGE
    python3 tools/same_outputs.py --digests FILE CHECKOUT

In each checkout, with its own ``src`` first on the import path, runs
``python3 -m mmxest.cli`` on ``src/mmxest/configs/example_paper.cfg``:

- ``run --full``, time-varying and ``--stationary``;
- ``run --full`` with each estimator off, on a copy of the config with an
  ``estimators:`` block, with the Bayes output of the most probable model,
  on a copy with ``bayes_mode: map``, and on a copy with ``uniform-bounded``
  noise and ``horizon: 1000``, whose 3000- and 1000-word streams are drawn
  from the jump table, and on a copy with ``zero`` noise, whose innovations
  are exactly 0 where the true model predicts and whose outputs hold -0.0
  entries; each copy is written into the command's own output directory;
- ``run --seeds 0..63 --full``, time-varying and ``--stationary`` (64 files each);
- ``riccati``;
- ``check``.

The CLI runs see m = 1 only, and all but one the paper config's 20 steps,
so each checkout also renders, with its own ``perfbench/workloads.py``, the
``--full`` CSV of the benchmark's in-process reference inputs (workload seed
0): the four ``paper_long`` data sets (N = 1000) and the four
``random_banks`` banks (m = 2), or the name of the error a run raised.

Every CSV, and each command's standard output, standard error and exit
code, goes into one directory per checkout; then the two directories are
compared file by file, byte for byte.  Prints the first differing file and
line (or the first file only one side has) and exits 1 on any difference,
else prints how many files matched and exits 0.

``--digests FILE`` renders one checkout and writes FILE instead: a header
naming the numpy version and the platform, then one ``<sha256>  <path>``
line per rendered file.  ``tests/data/outputs.sha256`` is such a file, and
``tests/test_same_outputs.py`` renders the tree under test against it.
Standard library only; it writes nothing into a checkout.
"""
import argparse
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

CONFIG = Path("src") / "mmxest" / "configs" / "example_paper.cfg"
# name -> CLI arguments; {out} is the command's own output directory
COMMANDS = {
    "run": ["run", "--full", "--out", "{out}/trace.csv"],
    "run_stationary": ["run", "--full", "--stationary", "--out", "{out}/trace.csv"],
    "seeds": ["run", "--seeds", "0..63", "--full", "--out", "{out}/trace.csv"],
    "seeds_stationary": ["run", "--seeds", "0..63", "--full", "--stationary",
                         "--out", "{out}/trace.csv"],
    "run_no_minimax": ["run", "--full", "--out", "{out}/trace.csv"],
    "run_no_bayes": ["run", "--full", "--out", "{out}/trace.csv"],
    "run_bayes_map": ["run", "--full", "--out", "{out}/trace.csv"],
    "run_uniform_long": ["run", "--full", "--out", "{out}/trace.csv"],
    "run_zero_noise": ["run", "--full", "--out", "{out}/trace.csv"],
    "riccati": ["riccati"],
    "check": ["check"],
}
# name -> block appended to the command's own copy of CONFIG, {out}/exp.cfg
CONFIG_BLOCKS = {
    "run_no_minimax": "estimators: {minimax: false}\n",
    "run_no_bayes": "estimators: {bayesian: false}\n",
    "run_bayes_map": "bayes_mode: map\n",
}
# name -> (old, new) texts replaced in the command's copy of CONFIG; each old text must occur
CONFIG_EDITS = {
    "run_uniform_long": (("horizon: 20\n", "horizon: 1000\n"),
                         ("kind: gaussian\n", "kind: uniform-bounded\n")),
    "run_zero_noise": (("kind: gaussian\n", "kind: zero\n"),),
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
        config = CONFIG
        if name in CONFIG_BLOCKS or name in CONFIG_EDITS:
            text = (checkout / CONFIG).read_text()
            for old, new in CONFIG_EDITS.get(name, ()):
                if old not in text:
                    raise ValueError(f"{name}: {CONFIG} has no {old!r} to replace")
                text = text.replace(old, new)
            config = out / "exp.cfg"
            config.write_text(text + CONFIG_BLOCKS.get(name, ""))
        proc = subprocess.run([sys.executable, "-m", "mmxest.cli", argv[0], "--config",
                               str(config), *argv[1:]], cwd=checkout, env=env,
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


def environment():
    """The header line of a digest file: numpy version, Python, platform."""
    return (f"# numpy {metadata.version('numpy')}; python {platform.python_version()}; "
            f"{platform.system()} {platform.machine()}")


def digests(dest):
    """{relative path: sha256 hex} of every file under ``dest``."""
    dest = Path(dest)
    return {p.relative_to(dest).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(dest.rglob("*")) if p.is_file()}


def write_digests(dest, path):
    """Write the digest file of the outputs under ``dest`` to ``path``."""
    lines = [environment()] + [f"{h}  {rel}" for rel, h in digests(dest).items()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_digests(path):
    """(header, {relative path: sha256 hex}) of a digest file."""
    header, *lines = Path(path).read_text().splitlines()
    return header, {rel: h for h, rel in (line.split("  ", 1) for line in lines)}


def digest_difference(recorded, dest):
    """None if the files under ``dest`` have the digests of the digest file
    ``recorded``, else a line naming the first file that differs, followed
    by both headers when the numpy version is not the recorded one."""
    header, want = read_digests(recorded)
    got = digests(dest)
    for rel in sorted(want.keys() | got.keys()):
        if want.get(rel) == got.get(rel):
            continue
        line = f"{rel}: " + ("not rendered" if rel not in got
                             else "not recorded" if rel not in want else "differs")
        if header.split(";")[0] != environment().split(";")[0]:
            line += f" (numpy differs: recorded {header!r}, here {environment()!r})"
        return line
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", metavar="CHECKOUT",
                        help="checkouts of the parent commit and the change, or one "
                             "checkout with --digests")
    parser.add_argument("--digests", metavar="FILE",
                        help="write one sha256 per rendered file of one checkout to FILE")
    args = parser.parse_args(argv)
    if len(args.checkouts) != (1 if args.digests else 2):
        parser.error("give PARENT and CHANGE, or --digests FILE and one CHECKOUT")
    if args.digests:
        with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
            collect(args.checkouts[0], tmp)
            write_digests(tmp, args.digests)
        print(f"wrote {args.digests}")
        return 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        sides = [Path(tmp) / "parent", Path(tmp) / "change"]
        for checkout, dest in zip(args.checkouts, sides):
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
