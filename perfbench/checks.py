"""Output checks: reference traces, certificate-level tolerances, byte identity.

A ``--full`` trace is compared column by column with the reference trace
recorded at the commit that added the benchmark.  The tolerances accept any
answer the solver's certificate accepts:

* ``t``, ``z*``, ``zh_ba*``, ``c*``, ``mu*`` match to 1e-9 relative to the
  column's largest magnitude; they do not depend on the minimax solver.
* ``Jstar`` matches within the solver's absolute gap tolerance 1e-8 (plus a
  few ulps of |J*| for rounding): two certified values both lie within the
  gap of J*.
* ``zh_mini`` matches within 2 * sqrt(tol) in the Euclidean norm: every
  W_i >= I, so max_i f_i is strongly convex with modulus 2 and a gap <= tol
  puts yhat within sqrt(tol) of the unique minimizer.
* ``lam*`` is not unique; it only has to lie on the probability simplex.

Columns the reference lacks are ignored, so a trace may gain columns.
"""
from __future__ import annotations

import gzip
import json
import re

import numpy as np

SOLVE_TOL = 1e-8           # minimax.SOLVE_TOL, an absolute duality gap
ULPS = 16 * np.finfo(float).eps
REL_TOL = 1e-9
SIMPLEX_TOL = 1e-9

_COLUMN = re.compile(r"^(t|Jstar|z|zh_mini|zh_ba|c|mu|lam)(\d*)$")


def parse_csv(text: str) -> dict:
    """Semicolon CSV with a header row -> {column: float array}."""
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(";")
    rows = np.array([[float(v) for v in line.split(";")] for line in lines[1:]],
                    dtype=float).reshape(len(lines) - 1, len(header))
    return {name: rows[:, j] for j, name in enumerate(header)}


def group(cols: dict, base: str) -> np.ndarray:
    """Stack the columns of one quantity (e.g. lam0, lam1, ...) as (N, width)."""
    names = [k for k in cols if (m := _COLUMN.match(k)) and m.group(1) == base]
    names.sort(key=lambda k: int(k[len(base):] or 0))
    return np.stack([cols[k] for k in names], axis=1) if names else None


def simplex_problems(cols: dict) -> list:
    lam = group(cols, "lam")
    if lam is None:
        return []
    if not np.all(lam >= -SIMPLEX_TOL) or not np.all(np.abs(lam.sum(axis=1) - 1.0) <= SIMPLEX_TOL):
        return ["lam is off the probability simplex"]
    return []


def compare(got: dict, ref: dict) -> list:
    """Differences between a trace and its reference beyond the tolerances."""
    problems = []
    if len(next(iter(got.values()))) != len(next(iter(ref.values()))):
        return [f"{len(next(iter(got.values())))} rows, reference has "
                f"{len(next(iter(ref.values())))}"]
    for name, want in ref.items():
        base = _COLUMN.match(name).group(1)
        if name not in got:
            problems.append(f"column {name} missing")
            continue
        have = got[name]
        if base in ("zh_mini", "lam"):
            continue
        if base == "Jstar":
            tol = SOLVE_TOL + ULPS * np.abs(want)
        else:
            tol = REL_TOL * max(float(np.max(np.abs(want))), 1e-300)
        bad = ~(np.abs(have - want) <= tol)
        if np.any(bad):
            t = int(np.argmax(bad))
            problems.append(f"{name} row {t}: {have[t]!r} vs reference {want[t]!r}")
    want = group(ref, "zh_mini")
    have = group(got, "zh_mini")
    if want is not None:
        tol = 2.0 * np.sqrt(SOLVE_TOL)
        dist = np.sqrt(np.sum((have - want) ** 2, axis=1))
        bad = ~(dist <= tol)
        if np.any(bad):
            t = int(np.argmax(bad))
            problems.append(f"zh_mini row {t}: off by {dist[t]:.3e} > {tol:.3e}")
    return problems + simplex_problems(got)


def load_reference(path) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(path, data: dict) -> None:
    # mtime=0 keeps the file byte-identical when regenerated
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(data, indent=0, sort_keys=True).encode("utf-8"))
