import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import graphain.curriculum as curriculum
import graphain.diagnostics as diagnostics

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


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
    """(rows, columns) of every block of distances that the kNN auxiliary
    graph forms."""
    calls = []
    real = curriculum._leaf_product

    def counting(left, right, rows, cols, buf):
        calls.append((rows.size, cols.size))
        return real(left, right, rows, cols, buf)

    monkeypatch.setattr(curriculum, "_leaf_product", counting)
    return calls
