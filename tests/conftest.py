import os
from contextlib import contextmanager
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import mmxest as mx
import workloads

# Tier-1 runs replay the same examples every time and keep no database, so a
# run cannot fail on a draw no earlier run saw.  HYPOTHESIS_PROFILE=stress
# draws fresh examples, ten times as many.
STRESS_FACTOR = 10
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("stress", max_examples=STRESS_FACTOR * settings.default.max_examples,
                          database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@contextmanager
def raises_invalid(field, match):
    """``pytest.raises(InvalidInput, match=match)`` that also checks the
    error's ``field`` (None for an error about no single field)."""
    with pytest.raises(mx.InvalidInput, match=match) as err:
        yield err
    assert err.value.field == field


def examples(n):
    """A test's own example count, scaled as the loaded profile scales the
    default: a per-test ``max_examples`` overrides the profile's."""
    return n * settings.default.max_examples // settings.get_profile("tier1").max_examples


def child_env():
    """The environment, with the directory holding the mmxest under test
    first on PYTHONPATH, so a child interpreter imports the same sources."""
    src = str(Path(mx.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.fixture(scope="session")
def paper_config_path():
    return str(files("mmxest") / "configs" / "example_paper.cfg")


@pytest.fixture(scope="session")
def paper_config(paper_config_path):
    return mx.load_config(paper_config_path)


@pytest.fixture(scope="session")
def paper_models(paper_config):
    return paper_config.models


def unit_bank(gamma=3.0, P0=np.eye(1)):
    """One scalar model with F = H = Q = R = 1."""
    one = np.eye(1)
    return mx.validate({"F": [one], "H": [one], "Q": one, "R": one, "P0": P0, "gamma": gamma})


@pytest.fixture()
def scalar_singleton():
    # One scalar model: F = H = Q = R = P0 = 1, gamma = 3.
    return unit_bank()


def make_random_models(rng, K, n, m, gamma=None, with_input=False):
    """The benchmark's random bank (``workloads.random_bank_spec``), with
    ``gamma`` in place of its own if given and, if ``with_input``, one random
    n x 1 B per model, drawn after the bank's draws."""
    spec = workloads.random_bank_spec(mx, rng, K, n, m)
    if with_input:
        spec["B"] = [rng.normal(size=(n, 1)) for _ in range(K)]
    if gamma is not None:
        spec["gamma"] = gamma
    return mx.validate(spec)


def near_boundary_bank(b, N):
    """Random bank b of the near-boundary recipe, drawn from default_rng(1000 + b):
    K 2..8, n 1..4, m 1..3, each F a normal matrix scaled to spectral radius
    0.99 U(0.2, 1), normal H, the benchmark's random SPD Q, R and P0, then
    the true model.  Returns (spec, true_model, peak), peak being the largest
    lambda_max(H P H^T) of the bank's schedule over t = 0..N; the bank at
    gamma^2 = f peak is ``validate({**spec, "gamma": sqrt(f peak)})``."""
    rng = np.random.default_rng(1000 + b)
    K, n, m = int(rng.integers(2, 9)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
    F = []
    for _ in range(K):
        A = rng.normal(size=(n, n))
        F.append(A * (0.99 * rng.uniform(0.2, 1.0) / np.abs(np.linalg.eigvals(A)).max()))
    spec = {"F": F, "H": [rng.normal(size=(m, n)) for _ in range(K)],
            "Q": workloads._random_spd(rng, n), "R": workloads._random_spd(rng, m),
            "P0": workloads._random_spd(rng, n),
            "gamma": 1.0}
    true_model = int(rng.integers(K))
    schedule = mx.run_recursion(mx.validate(spec), N)
    peak = max(float(schedule.lambda_max(t).max()) for t in range(N + 1))
    return spec, true_model, peak


@pytest.fixture(scope="session")
def bench_banks():
    """The benchmark's random banks by label, ``bank0-K8`` to ``bank1-K32``."""
    return {label: mx.validate(spec) for label, spec in workloads.bank_specs(mx)}
