"""Record the reference outputs the benchmark checks against.

Run from the root of a checkout, at the commit whose answers are the
reference:

    python3 perfbench/make_refs.py

For each workload it runs the reference input (seed 0, variant 0) once and
writes ``perfbench/ref/<workload>.json.gz``: per estimator run, its label,
its status and, when it delivered, the ``--full`` CSV.  Regenerating at the
same commit gives byte-identical files.
"""
import os
import shutil
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from checks import save_reference
    from workloads import WORKLOADS, Context, child_env

    (ROOT / ".bench_build").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=ROOT / ".bench_build"))
    try:
        ctx = Context(root=ROOT, work=work, env=child_env(ROOT))
        (HERE / "ref").mkdir(exist_ok=True)
        for name, cls in WORKLOADS.items():
            res = cls(ctx).run(0, 0)
            outputs = [{"label": o.label, "status": o.status, "csv": o.csv} for o in res.outputs]
            save_reference(HERE / "ref" / f"{name}.json.gz",
                           {"workload": name, "seed": 0, "variant": 0, "outputs": outputs})
            bad = [o["label"] + ": " + o["status"] for o in outputs if o["status"] != "ok"]
            print(f"{name}: {len(outputs)} runs" + (f", failed {bad}" if bad else ""))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
