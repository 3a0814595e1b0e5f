import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import graphain.curriculum as curriculum
import graphain.diagnostics as diagnostics
import graphain.io as io

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def no_kept_datasets():
    """Each test parses the datasets it loads: no test gets a Graph that
    ``io.load_dataset`` kept from an earlier one."""
    io._LOADED.clear()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def reference_builds(monkeypatch):
    """The d of every dense reference spectrum that diagnostics builds."""
    calls = []
    real = diagnostics.top_d_eigvectors

    def counting(m, d):
        calls.append(d)
        return real(m, d)

    monkeypatch.setattr(diagnostics, "top_d_eigvectors", counting)
    return calls


@pytest.fixture
def leaf_products(monkeypatch):
    """(rows, columns) of every product of distance blocks that the kNN
    auxiliary graph forms: the rows of all the blocks of the stack, and the
    columns of each."""
    calls = []
    real = curriculum._leaf_product

    def counting(left, right, buf):
        calls.append((left.shape[0] * left.shape[1], right.shape[1]))
        return real(left, right, buf)

    monkeypatch.setattr(curriculum, "_leaf_product", counting)
    return calls
