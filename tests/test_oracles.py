import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

from graphain.curriculum import aux_from_graph, aux_transition_matrix
from graphain.errors import (
    DegenerateGapError,
    InvalidCoefficientsError,
    NotErgodicError,
    SingularSystemError,
    TooLargeError,
)
from graphain.graph import apply_operator, build_graph, normalized_adjacency
from graphain.labels import one_hot
from graphain.linalg import SpectralFilterParams, principal_subspace_distance
from graphain import diagnostics, oracles
from graphain.oracles import (
    apply_centering,
    dense_abar,
    dense_ahat,
    dense_spectrum,
    knn_edges_dense,
    label_prop_closed_form,
    orthonormal_projection,
    oversmoothing_limit_check,
    pga_oracle_hard,
    pga_oracle_residual,
    top_d_eigvectors,
)
from graphain.propagation import PropagationConfig, run_fuzzy_r_softgraphain
from graphain.synthetic import random_connected_graph
from graphain.verify import (
    _iterative_label_propagation,
    hard_whiten,
    planted_partition_graph,
)
from scipy_csr import scipy_csr


class TestDenseAbar:
    def test_two_clique_annihilated(self):
        g = build_graph([(0, 1)], 2, np.zeros((2, 1)))
        assert np.abs(dense_abar(g)).max() < 1e-15

    def test_single_node(self):
        g = build_graph([], 1, np.zeros((1, 1)))
        assert np.abs(dense_abar(g)).max() < 1e-15

    def test_kills_constants_both_sides(self):
        g = random_connected_graph(10, 0.3, seed=2)
        abar = dense_abar(g)
        ones = np.ones(10)
        assert np.abs(abar @ ones).max() <= 1e-12
        assert np.abs(ones @ abar).max() <= 1e-12
        assert np.abs(abar - abar.T).max() <= 1e-12

    def test_spectrum_bounds_and_dominant_eigvector(self):
        g = random_connected_graph(15, 0.25, seed=5)
        values, u = dense_spectrum(dense_ahat(g))
        assert values[0] == pytest.approx(1.0, abs=1e-10)
        assert values.min() >= -1.0 - 1e-10
        v = np.sqrt(np.bincount(g.edges.ravel(), minlength=g.n) + 1.0)  # degrees of A + I
        v = v / np.linalg.norm(v)
        # dominant eigenvector is proportional to sqrt(degrees)
        assert abs(abs(v @ u[:, 0]) - 1.0) <= 1e-10

    def test_size_cap(self):
        g = build_graph([], 2001, np.zeros((2001, 1)))
        with pytest.raises(TooLargeError):
            dense_abar(g)


class TestTopEigvectors:
    def test_diagonal(self):
        u = top_d_eigvectors(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.abs(u - np.eye(3)[:, :2]).max() <= 1e-12

    def test_identity_degenerate(self):
        with pytest.raises(DegenerateGapError):
            top_d_eigvectors(np.eye(4), 2)

    def test_block_partition_sign_pattern(self):
        g = planted_partition_graph(seed=7)
        u = top_d_eigvectors(dense_abar(g), 1)[:, 0]
        signs = np.sign(u)
        block0 = signs[:30]
        block1 = signs[30:]
        agree0 = max((block0 > 0).mean(), (block0 < 0).mean())
        agree1 = max((block1 > 0).mean(), (block1 < 0).mean())
        assert agree0 >= 0.95 and agree1 >= 0.95

    def test_deterministic_sign_convention(self):
        m = np.diag([5.0, 4.0, 3.0])
        u1 = top_d_eigvectors(m, 3)
        u2 = top_d_eigvectors(m, 3)
        assert np.array_equal(u1, u2)
        assert (u1[np.abs(u1).argmax(axis=0), np.arange(3)] > 0).all()


class TestPgaHard:
    def test_zero_steps_is_projection(self, rng):
        g = random_connected_graph(12, 0.3, seed=1)
        x = rng.standard_normal((12, 3))
        assert np.array_equal(pga_oracle_hard(x, g, 0), orthonormal_projection(x))

    def test_matches_production_steps(self):
        g = random_connected_graph(13, 0.3, seed=4)
        x0 = orthonormal_projection(
            apply_centering(np.random.default_rng(8).standard_normal((13, 2)))
        )
        op = normalized_adjacency(g)
        h = x0
        for k in range(1, 8):
            h = hard_whiten(apply_centering(apply_operator(op, h)))
            assert np.abs(h - pga_oracle_hard(x0, g, k)).max() <= 1e-8

    def test_converges_to_top_subspace(self):
        g = planted_partition_graph(seed=7)
        x0 = orthonormal_projection(
            apply_centering(np.random.default_rng(2).standard_normal((60, 1)))
        )
        out = pga_oracle_hard(x0, g, 400)
        target = top_d_eigvectors(dense_abar(g), 1)
        assert principal_subspace_distance(out, target) <= 1e-6


class TestPgaResidual:
    def test_reduces_to_hard(self, rng):
        g = random_connected_graph(11, 0.3, seed=6)
        x = apply_centering(rng.standard_normal((11, 2)))
        a = pga_oracle_residual(x, g, 1.0, 0.0, 0.0, steps=4)
        b = pga_oracle_hard(x, g, 4)
        assert np.abs(a - b).max() <= 1e-10

    def test_invalid_coefficients(self, rng):
        g = random_connected_graph(8, 0.3, seed=6)
        x = rng.standard_normal((8, 2))
        with pytest.raises(InvalidCoefficientsError):
            pga_oracle_residual(x, g, 0.0, 0.5, 0.5, steps=1)
        with pytest.raises(InvalidCoefficientsError):
            pga_oracle_residual(x, g, 0.5, 0.4, 0.2, steps=1)

    def test_feature_anchoring_dominates(self, rng):
        # heavy anchor weight keeps the iterate near the projected features
        g = random_connected_graph(25, 0.3, seed=9)
        x = apply_centering(rng.standard_normal((25, 3)))
        start = orthonormal_projection(x)
        total = 0.05 + 0.05 + 100.0
        out = pga_oracle_residual(
            x, g, 0.05 / total, 0.05 / total, 100.0 / total, steps=200
        )
        assert principal_subspace_distance(out, start) < 0.1


PIPELINE_MODULES = {
    "propagation", "classifier", "curriculum", "diagnostics", "experiment"
}


def _imported_module_parts(path) -> set:
    """Every dotted part of every module (or ``from . import`` name) imported."""
    names = set()
    for node in ast.walk(ast.parse(Path(path).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return {part for name in names for part in name.split(".")}


def test_oracles_import_no_pipeline_module():
    # the oracles check the pipeline, so they must not run any of it
    bad = _imported_module_parts(oracles.__file__) & PIPELINE_MODULES
    assert not bad, f"oracles.py imports from {sorted(bad)}"


def test_oracles_take_only_records_and_the_rank_cutoff_from_production():
    # the oracles check the production path, so from its modules they take
    # the Graph and CsrMatrix records and the rank cutoff EPS_RANK, and no
    # kernel; errors holds the package's exception types
    taken = set()
    for node in ast.walk(ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("graphain")):
            module = node.module.removeprefix("graphain.")
            if module != "errors":
                taken.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            taken.update((alias.name, "*") for alias in node.names
                         if alias.name.startswith("graphain"))
    assert taken == {("graph", "Graph"), ("graph", "CsrMatrix"), ("linalg", "EPS_RANK")}


def test_reference_routes_live_only_in_oracles():
    # no production module defines the column-mean subtract or the SVD
    # projection; verify uses the oracles' own
    for info in pkgutil.iter_modules([str(Path(oracles.__file__).parent)]):
        module = importlib.import_module(f"graphain.{info.name}")
        for name in ("apply_centering", "orthonormal_projection"):
            assert getattr(module, name, getattr(oracles, name)) is getattr(oracles, name), (
                info.name, name)
        assert not hasattr(module, "NotSymmetricError"), info.name


def test_diagnostics_import_no_head():
    # a layer record measures the embedding alone; no head exists yet
    assert "classifier" not in _imported_module_parts(diagnostics.__file__)


def _sgc(g, layers):
    cfg = PropagationConfig(
        alpha=1.0,
        beta=0.0,
        gamma=0.0,
        filter=SpectralFilterParams(a=1.0, b=1.0, d0=1),
        layers=layers,
    )
    return run_fuzzy_r_softgraphain(g, cfg, variant="sgc")


class TestOversmoothingLimit:
    def test_triangle_two_steps(self):
        iu, ju = np.triu_indices(3, k=1)
        x = np.random.default_rng(0).standard_normal((3, 2))
        g = build_graph(np.column_stack([iu, ju]), 3, x)
        cos = oversmoothing_limit_check(g, _sgc(g, 2))
        assert (1.0 - cos).max() <= 1e-12

    def test_disconnected_rejected(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        g = build_graph(edges, 6, np.zeros((6, 1)))
        with pytest.raises(NotErgodicError):
            oversmoothing_limit_check(g, np.ones((6, 1)))

    def test_irregular_20_node_graph_aligns_deeply(self):
        # degree-vector alignment holds for irregular graphs too; only the
        # pairwise collapse needs regularity
        g = random_connected_graph(20, 0.2, seed=17, feature_dim=3)
        cos = oversmoothing_limit_check(g, _sgc(g, 10_000))
        assert cos.min() >= 1.0 - 1e-6


class TestLabelPropClosedForm:
    def test_single_absorbing_label(self):
        g = build_graph([(0, 1)], 2, np.zeros((2, 1)))
        p = scipy_csr(aux_transition_matrix(aux_from_graph(g))).toarray()
        y_u = label_prop_closed_form(p, one_hot([0], 2), [0], [1])
        assert y_u == pytest.approx(np.array([[1.0, 0.0]]))

    def test_two_equal_neighbors_average(self):
        g = build_graph([(0, 2), (1, 2)], 3, np.zeros((3, 1)))
        p = scipy_csr(aux_transition_matrix(aux_from_graph(g))).toarray()
        y_u = label_prop_closed_form(p, one_hot([0, 1], 2), [0, 1], [2])
        assert y_u == pytest.approx(np.array([[0.5, 0.5]]))

    def test_unreachable_component(self):
        edges = [(0, 1), (2, 3)]
        g = build_graph(edges, 4, np.zeros((4, 1)))
        p = scipy_csr(aux_transition_matrix(aux_from_graph(g))).toarray()
        with pytest.raises(SingularSystemError):
            label_prop_closed_form(p, one_hot([0], 2), [0], [1, 2, 3])

    def test_rows_stay_distributions(self):
        g = random_connected_graph(20, 0.25, seed=3)
        p = scipy_csr(aux_transition_matrix(aux_from_graph(g))).toarray()
        labeled = np.array([0, 5, 9])
        unlabeled = np.setdiff1d(np.arange(20), labeled)
        y_l = one_hot([0, 1, 2], 3)
        y_u = label_prop_closed_form(p, y_l, labeled, unlabeled)
        assert np.abs(y_u.sum(axis=1) - 1.0).max() <= 1e-10
        assert y_u.min() >= -1e-12

    def test_adding_label_never_creates_singularity(self):
        # monotonicity: once solvable, extra labels keep it solvable
        g = random_connected_graph(15, 0.2, seed=11)
        p = scipy_csr(aux_transition_matrix(aux_from_graph(g))).toarray()
        labeled = [3]
        for extra in (7, 11, 1):
            labeled = sorted(labeled + [extra])
            unlabeled = np.setdiff1d(np.arange(15), labeled)
            y_l = one_hot([i % 2 for i in range(len(labeled))], 2)
            y_u = label_prop_closed_form(p, y_l, labeled, unlabeled)
            assert np.isfinite(y_u).all()


class TestIterativePropagation:
    """The iterated side of the ``labelprop`` verify suite."""

    def test_zero_iters_masks_unlabeled(self):
        g = random_connected_graph(6, 0.4, seed=0)
        out = _iterative_label_propagation(aux_from_graph(g), one_hot([0], 2), [0], 0)
        assert out.masked.sum() == 5
        assert not out.masked[0]

    def test_isolated_node_stays_masked(self):
        g = build_graph([(0, 1)], 3, np.zeros((3, 1)))
        out = _iterative_label_propagation(
            aux_from_graph(g), one_hot([0], 2), [0], 100
        )
        assert out.masked[2]
        assert not out.masked[1]

    def test_matches_closed_form(self):
        g = random_connected_graph(30, 0.15, seed=42)
        rng = np.random.default_rng(42)
        labeled = np.sort(rng.choice(30, size=6, replace=False))
        unlabeled = np.setdiff1d(np.arange(30), labeled)
        y_l = one_hot(rng.integers(0, 3, size=6), 3)
        aux = aux_from_graph(g)
        iterated = _iterative_label_propagation(aux, y_l, labeled, 500)
        closed = label_prop_closed_form(
            scipy_csr(aux_transition_matrix(aux)).toarray(), y_l, labeled, unlabeled
        )
        assert np.abs(iterated.y[unlabeled] - closed).max() <= 1e-8


class TestKnnEdgesDense:
    def test_ties_go_to_the_lower_index(self):
        # Nodes 1, 2 and 3 are all at squared distance 1 from node 0, which
        # keeps node 1; node 2 keeps node 0 over the farther nodes 1 and 3.
        vecs = np.array([[0.0], [1.0], [-1.0], [1.0]])
        edges, weights = knn_edges_dense(vecs, 1, 1.0)
        assert edges.tolist() == [[0, 1], [0, 2], [1, 3]]
        assert weights.tolist() == [0.0, 0.0, 1.0]

    def test_size_cap(self):
        with pytest.raises(TooLargeError):
            knn_edges_dense(np.zeros((2001, 1)), 1, 1.0)
