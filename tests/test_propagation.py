import numpy as np
import pytest

from graphain.errors import (
    DimensionMismatchError,
    GraphainError,
    InvalidCoefficientsError,
    NonFiniteActivationError,
    RankDeficientError,
    ZeroActivationError,
)
from graphain.graph import apply_operator, build_graph, normalized_adjacency
from graphain import linalg, propagation
from graphain.linalg import EPS_RANK, SpectralFilterParams, soft_spectral_filter
from graphain.oracles import (
    apply_centering,
    dense_abar,
    orthonormal_projection,
    top_d_eigvectors,
)
from graphain.propagation import (
    PropagationConfig,
    pairnorm_step,
    residual_combine,
    run_fuzzy_r_softgraphain,
)
from graphain.synthetic import random_connected_graph
from graphain.verify import hard_whiten


def _cfg(**kw):
    defaults = dict(
        alpha=1.0,
        beta=0.0,
        gamma=0.0,
        filter=SpectralFilterParams(a=1.0, b=1.0, d0=3),
        layers=4,
    )
    defaults.update(kw)
    return PropagationConfig(**defaults)


def _centred(g, mode="symmetric"):
    return normalized_adjacency(g, mode, centered=True)


def _path_graph(n, feature_dim, seed=0):
    edges = [(i, i + 1) for i in range(n - 1)]
    x = np.random.default_rng(seed).standard_normal((n, feature_dim))
    return build_graph(edges, n, x)


class TestPropagationConfig:
    def test_coefficients_renormalized(self):
        cfg = _cfg(alpha=2.0, beta=1.0, gamma=1.0)
        assert cfg.alpha + cfg.beta + cfg.gamma == pytest.approx(1.0)
        assert cfg.alpha == pytest.approx(0.5)

    def test_rejects_negative(self):
        with pytest.raises(InvalidCoefficientsError):
            _cfg(alpha=-0.1)

    def test_rejects_all_zero(self):
        with pytest.raises(InvalidCoefficientsError):
            _cfg(alpha=0.0, beta=0.0, gamma=0.0)

    def test_relu_run_keeps_every_layer_nonnegative(self):
        g = random_connected_graph(15, 0.3, seed=3, feature_dim=3)
        cfg = _cfg(activation="relu", filter=SpectralFilterParams(a=0.5, b=1.0, d0=3))
        layers = []
        h = run_fuzzy_r_softgraphain(g, cfg, observe=lambda t, h_t: layers.append(h_t))
        assert len(layers) == cfg.layers and layers[-1] is h
        assert all((h_t >= 0.0).all() and (h_t > 0.0).any() for h_t in layers)

    def test_bad_decay(self):
        with pytest.raises(InvalidCoefficientsError):
            _cfg(p=1.5)


class TestGraphainStep:
    """The hard step: the soft filter at a = b = 1 on the centered aggregate."""

    def test_orthonormal_and_centered_on_path(self):
        g = _path_graph(4, 2, seed=5)
        op = normalized_adjacency(g)
        h = hard_whiten(apply_centering(apply_operator(op, g.features)))
        assert np.abs(h.T @ h - np.eye(2)).max() <= 1e-9
        assert np.abs(h.sum(axis=0)).max() <= 1e-9

    def test_fixed_subspace_of_top_eigvectors(self):
        g = random_connected_graph(20, 0.3, seed=13)
        abar = dense_abar(g)
        lam = np.linalg.eigvalsh(abar)[::-1]
        assert lam[1] - lam[2] > 1e-6  # gapped instance, fixed seed
        u = top_d_eigvectors(abar, 2)
        op = normalized_adjacency(g)
        out = hard_whiten(apply_centering(apply_operator(op, u)))
        from graphain.linalg import principal_subspace_distance

        assert principal_subspace_distance(out, u) <= 1e-8

    def test_two_clique_degenerate(self):
        g = build_graph([(0, 1)], 2, np.ones((2, 2)))
        op = normalized_adjacency(g)
        x = np.random.default_rng(0).standard_normal((2, 2))
        with pytest.raises(RankDeficientError):
            hard_whiten(apply_centering(apply_operator(op, x)))


class TestSoftStep:
    def test_hard_reduction(self):
        g = _path_graph(6, 3, seed=2)
        op = normalized_adjacency(g)
        b = apply_centering(apply_operator(op, g.features))
        soft = soft_spectral_filter(b, SpectralFilterParams(a=1.0, b=1.0, d0=3))
        assert np.abs(orthonormal_projection(b) - soft).max() <= 1e-9

    def test_a_zero_is_centered_aggregation(self):
        g = _path_graph(6, 3, seed=2)
        op = _centred(g)
        soft = soft_spectral_filter(
            apply_operator(op, g.features), SpectralFilterParams(a=0.0, b=1.0, d0=3)
        )
        assert np.array_equal(soft, apply_operator(op, g.features))


class TestResidualCombine:
    def test_pure_aggregation(self, rng):
        g = _path_graph(5, 2, seed=1)
        op = _centred(g)
        h = rng.standard_normal((5, 2))
        out = residual_combine(h, h, h, _cfg(alpha=1.0, beta=0.0, gamma=0.0), op)
        assert np.array_equal(out, apply_operator(op, h))

    def test_pure_initial(self, rng):
        g = _path_graph(5, 2, seed=1)
        op = _centred(g)
        h = rng.standard_normal((5, 2))
        s_init = rng.standard_normal((5, 2))
        out = residual_combine(h, h, s_init, _cfg(alpha=0.0, beta=0.0, gamma=1.0), op)
        assert np.array_equal(out, s_init)

    def test_terms_of_other_shapes_rejected(self, rng):
        g = _path_graph(5, 2, seed=1)
        op = _centred(g)
        h = rng.standard_normal((5, 2))
        with pytest.raises(
            DimensionMismatchError, match="^skip-connection terms must share a shape$"
        ):
            residual_combine(h, h, rng.standard_normal((5, 3)), _cfg(), op)

    def test_equal_thirds_hand_expansion(self, rng):
        # the accumulators are passed scaled by their weights
        g = _path_graph(5, 2, seed=1)
        m = rng.standard_normal((5, 2))
        cfg = _cfg(alpha=1.0, beta=1.0, gamma=1.0)
        out = residual_combine(m, cfg.beta * m, cfg.gamma * m, cfg, _centred(g))
        plain = normalized_adjacency(g)
        expect = apply_centering(apply_operator(plain, m)) / 3.0 + (2.0 / 3.0) * m
        assert np.abs(out - expect).max() <= 1e-12


class TestFuzzyAccumulators:
    """The accumulators as the runner keeps them, read off its layers."""

    @pytest.mark.parametrize("p, q", [(0.6, 0.3), (0.5, 0.5), (0.0, 0.25), (0.3, 0.0)])
    def test_next_layer_mixes_closed_form_sums(self, p, q):
        # at a = 0 the filter returns a copy of its input, so layer t + 1 is
        # the skip mix of layer t with the two decayed sums
        g = random_connected_graph(12, 0.3, seed=6, feature_dim=3)
        op = _centred(g)
        cfg = _cfg(
            alpha=0.5,
            beta=0.3,
            gamma=0.2,
            layers=6,
            p=p,
            q=q,
            filter=SpectralFilterParams(a=0.0, b=1.0, d0=3),
        )
        hs = []
        run_fuzzy_r_softgraphain(g, cfg, observe=lambda t, h: hs.append(h))
        for t in range(1, cfg.layers):
            s_last = sum(p ** (t - i) * hs[i - 1] for i in range(1, t + 1))
            s_init = sum(q ** (i - 1) * hs[i - 1] for i in range(1, t + 1))
            expect = residual_combine(
                hs[t - 1], cfg.beta * s_last, cfg.gamma * s_init, cfg, op
            )
            assert np.abs(hs[t] - expect).max() <= 1e-12

    def test_q_zero_keeps_first_layer_bitwise(self):
        g = random_connected_graph(15, 0.3, seed=7, feature_dim=3)
        cfg = _cfg(
            alpha=0.7,
            beta=0.2,
            gamma=0.1,
            layers=6,
            p=0.4,
            q=0.0,
            filter=SpectralFilterParams(a=0.5, b=0.9, d0=3),
        )
        out = run_fuzzy_r_softgraphain(g, cfg)

        # the accumulators scaled by beta and gamma, as the runner holds them
        op = _centred(g)
        h = soft_spectral_filter(apply_operator(op, g.features), cfg.filter)
        s_last, s_init = cfg.beta * h, cfg.gamma * h
        for _ in range(2, cfg.layers + 1):
            h = soft_spectral_filter(residual_combine(h, s_last, s_init, cfg, op), cfg.filter)
            s_last = cfg.p * s_last + cfg.beta * h
        assert np.array_equal(out, h)

    @pytest.mark.parametrize("activation", ["identity", "relu"])
    @pytest.mark.parametrize("p, q", [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)])
    def test_observed_layers_keep_their_bits(self, p, q, activation):
        # the runner updates its accumulators in place: a layer handed to
        # observe must not change after the call, and every layer must equal,
        # bit for bit, the recursion written with fresh arrays
        g = random_connected_graph(20, 0.3, seed=8, feature_dim=4)
        cfg = _cfg(
            alpha=0.5,
            beta=0.3,
            gamma=0.2,
            layers=7,
            p=p,
            q=q,
            activation=activation,
            filter=SpectralFilterParams(a=0.6, b=0.8, d0=4),
        )
        held, copies = [], []

        def observe(t, h):
            held.append(h)
            copies.append(h.copy())

        run_fuzzy_r_softgraphain(g, cfg, observe=observe)

        op = _centred(g)
        beta, gamma = cfg.beta, cfg.gamma
        q_pow = 1.0
        for t in range(1, cfg.layers + 1):
            if t == 1:
                b = apply_operator(op, g.features)
            else:
                b = residual_combine(h, s_last, s_init, cfg, op)
            h = soft_spectral_filter(b, cfg.filter)
            if activation == "relu":
                h = np.maximum(h, 0.0)
            if t == 1:
                s_last, s_init = beta * h, gamma * h
            else:
                q_pow *= q
                s_last = beta * h if p == 0.0 else p * s_last + beta * h
                if q_pow != 0.0:
                    s_init = s_init + (gamma * q_pow) * h
            assert held[t - 1].tobytes() == copies[t - 1].tobytes() == h.tobytes()

    @pytest.mark.parametrize("variant", ["sgc", "pairnorm", "rsoft"])
    def test_every_variant_leaves_observed_layers_alone(self, variant, monkeypatch):
        # the step reuses its workspaces from layer to layer: every array
        # handed to observe must keep its bytes to the end of the pass.  The
        # features have rank 2 at width 4, so each rsoft layer keeps fewer
        # than d0 = 4 channels above the rank cutoff
        rng = np.random.default_rng(9)
        x = rng.standard_normal((20, 2)) @ rng.standard_normal((2, 4))
        g = build_graph(random_connected_graph(20, 0.3, seed=8).edges, 20, x)
        cfg = _cfg(
            alpha=0.5,
            beta=0.3,
            gamma=0.2,
            layers=7,
            p=0.5,
            q=0.5,
            filter=SpectralFilterParams(a=0.6, b=0.8, d0=4),
        )
        kept = []
        real = propagation.soft_spectral_filter

        def counting(b, params):
            lam = np.linalg.eigvalsh(b.T @ b)
            kept.append(int(np.count_nonzero(lam > EPS_RANK * lam[-1])))
            return real(b, params)

        monkeypatch.setattr(propagation, "soft_spectral_filter", counting)
        held, copies = [], []

        def observe(t, h):
            held.append(h)
            copies.append(h.copy())

        run_fuzzy_r_softgraphain(g, cfg, variant=variant, observe=observe)
        assert len(held) == cfg.layers
        for h, copy in zip(held, copies):
            assert h.tobytes() == copy.tobytes()
        assert kept == ([2] * cfg.layers if variant == "rsoft" else [])


class TestRunner:
    def test_single_layer_base_case(self):
        g = _path_graph(6, 3, seed=4)
        cfg = _cfg(layers=1, filter=SpectralFilterParams(a=0.5, b=1.0, d0=3))
        out = run_fuzzy_r_softgraphain(g, cfg)
        expect = soft_spectral_filter(apply_operator(_centred(g), g.features), cfg.filter)
        assert np.array_equal(out, expect)

    def test_reduces_to_iterated_hard_step(self):
        g = random_connected_graph(12, 0.3, seed=6, feature_dim=3)
        cfg = _cfg(layers=5)
        out = run_fuzzy_r_softgraphain(g, cfg)
        op = normalized_adjacency(g)
        h = g.features
        for _ in range(5):
            h = orthonormal_projection(apply_centering(apply_operator(op, h)))
        assert np.abs(out - h).max() <= 1e-9

    def test_trace_sweep_stays_orthonormal(self):
        g = random_connected_graph(30, 0.25, seed=8, feature_dim=4)
        cfg = _cfg(layers=64, filter=SpectralFilterParams(a=1.0, b=1.0, d0=4))
        layers = []
        run_fuzzy_r_softgraphain(g, cfg, observe=lambda t, h: layers.append(h))
        assert len(layers) == 64
        for h in layers:
            assert np.abs(h.T @ h - np.eye(4)).max() <= 1e-8
            assert np.abs(h.sum(axis=0)).max() <= 1e-9

    def test_fuzzy_zero_reduces_bitwise_to_vanilla(self):
        g = random_connected_graph(15, 0.3, seed=7, feature_dim=3)
        cfg = _cfg(
            alpha=0.7,
            beta=0.2,
            gamma=0.1,
            layers=6,
            p=0.0,
            q=0.0,
            filter=SpectralFilterParams(a=0.5, b=0.9, d0=3),
        )
        out = run_fuzzy_r_softgraphain(g, cfg)

        # hand-rolled vanilla recursion: residual = last layer, initial = H1
        op = _centred(g)
        h = soft_spectral_filter(apply_operator(op, g.features), cfg.filter)
        h1 = h
        for _ in range(2, cfg.layers + 1):
            b = residual_combine(h, cfg.beta * h, cfg.gamma * h1, cfg, op)
            h = soft_spectral_filter(b, cfg.filter)
        assert np.array_equal(out, h)

    def test_rank_failure_reports_layer(self):
        g = build_graph([(0, 1)], 2, np.random.default_rng(3).standard_normal((2, 2)))
        cfg = _cfg(layers=3, filter=SpectralFilterParams(a=1.0, b=1.0, d0=2))
        with pytest.raises(RankDeficientError, match="layer 1"):
            run_fuzzy_r_softgraphain(g, cfg)

    def test_rank_deficient_hard_layer_names_the_layer(self):
        # proportional feature columns: every centred aggregate is rank 1
        v = np.random.default_rng(4).standard_normal(10)
        g = random_connected_graph(10, 0.3, seed=5)
        g = build_graph(g.edges, g.n, np.column_stack([v, 2.0 * v]))
        cfg = _cfg(layers=3, filter=SpectralFilterParams(a=1.0, b=1.0, d0=2))
        with pytest.raises(RankDeficientError, match="^layer 1: hard whitening keeps 1 of 2"):
            run_fuzzy_r_softgraphain(g, cfg)

    def test_filter_wider_than_working_width_rejected_before_layer_1(self):
        g = random_connected_graph(10, 0.3, seed=5, feature_dim=2)
        seen = []
        with pytest.raises(
            DimensionMismatchError, match="^filter d0=3 exceeds working width 2$"
        ):
            run_fuzzy_r_softgraphain(g, _cfg(), observe=lambda t, h: seen.append(t))
        assert seen == []

    def test_reducer_maps_width(self):
        g = random_connected_graph(10, 0.3, seed=5, feature_dim=7)
        reducer = np.random.default_rng(0).standard_normal((7, 3)) / np.sqrt(7)
        cfg = _cfg(layers=2)
        out = run_fuzzy_r_softgraphain(g, cfg, reducer=reducer)
        assert out.shape == (10, 3)

    @pytest.mark.parametrize(
        "variant, error",
        [("rsoft", RankDeficientError), ("pairnorm", ZeroActivationError)],
    )
    def test_step_errors_name_the_layer(self, variant, error):
        # regular graph with constant features: the centered aggregate is
        # zero, which both variants reject as a ZeroActivationError, a
        # RankDeficientError of rank zero
        iu, ju = np.triu_indices(4, k=1)
        g = build_graph(np.column_stack([iu, ju]), 4, np.tile([1.0, -2.0], (4, 1)))
        cfg = _cfg(layers=3, filter=SpectralFilterParams(a=1.0, b=1.0, d0=2))
        with pytest.raises(error, match="^layer 1: "):
            run_fuzzy_r_softgraphain(g, cfg, variant=variant)

    @pytest.mark.parametrize("n", [12, 400])
    @pytest.mark.parametrize("ab", [1.0, 0.5])
    def test_rsoft_rejects_a_centred_product_zero_to_rounding(self, n, ab):
        # constant feature rows on a path: the exact centred product is
        # zero, and the computed one is rounding noise, which the filter
        # would whiten to an orthonormal output (a = b = 1) or blow up (0.5);
        # 12 nodes take the dense product, 400 the sparse kernel
        g = build_graph([(i, i + 1) for i in range(n - 1)], n, np.tile([0.7, -1.3, 2.1], (n, 1)))
        assert (normalized_adjacency(g, "random_walk").dense is not None) == (n == 12)
        cfg = _cfg(alpha=0.9, beta=0.05, gamma=0.05, operator_mode="random_walk",
                   filter=SpectralFilterParams(a=ab, b=ab, d0=3))
        with pytest.raises(ZeroActivationError,
                           match="^layer 1: centered activation collapsed to zero$"):
            run_fuzzy_r_softgraphain(g, cfg)

    @pytest.mark.parametrize("variant", ["sgc", "pairnorm"])
    def test_baselines_observe_each_step(self, variant):
        g = random_connected_graph(12, 0.3, seed=6, feature_dim=3)
        op = normalized_adjacency(g, centered=variant == "pairnorm")
        seen = []
        out = run_fuzzy_r_softgraphain(
            g, _cfg(layers=5), variant=variant, observe=lambda t, h: seen.append((t, h))
        )
        h = g.features
        for t, layer_h in seen:
            h = apply_operator(op, h) if variant == "sgc" else pairnorm_step(h, op)
            assert np.array_equal(layer_h, h)
        assert [t for t, _ in seen] == [1, 2, 3, 4, 5]
        assert out is seen[-1][1]

    def test_unknown_variant_rejected(self):
        g = _path_graph(4, 2)
        with pytest.raises(GraphainError, match="unknown variant"):
            run_fuzzy_r_softgraphain(g, _cfg(layers=1), variant="gcn")


class TestLayerCost:
    @pytest.mark.parametrize("mode", ["symmetric", "random_walk"])
    @pytest.mark.parametrize("n, extra_p, dense", [(60, 0.5, True), (400, 0.01, False)])
    def test_each_rsoft_layer_makes_one_product_and_one_eigensolve(
        self, n, extra_p, dense, mode, monkeypatch
    ):
        # the centring rides in the product, and the filter's one sym_eig
        # is the layer's only eigensolve; the operator the run builds holds
        # one n x n array, the centred dense form, or none on the sparse path
        g = random_connected_graph(n, extra_p, seed=3, feature_dim=4)
        cfg = _cfg(alpha=0.8, beta=0.1, gamma=0.1, layers=6, p=0.5, q=0.5,
                   operator_mode=mode, filter=SpectralFilterParams(a=0.7, b=0.9, d0=4))
        calls = {"product": 0, "eig": 0}
        ops = []

        def counted(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        def build(*args, **kwargs):
            ops.append(normalized_adjacency(*args, **kwargs))
            return ops[-1]

        monkeypatch.setattr(propagation, "apply_operator",
                            counted("product", propagation.apply_operator))
        monkeypatch.setattr(linalg, "sym_eig", counted("eig", linalg.sym_eig))
        monkeypatch.setattr(propagation, "normalized_adjacency", build)
        seen = []
        run_fuzzy_r_softgraphain(
            g, cfg, observe=lambda t, h: seen.append((calls["product"], calls["eig"]))
        )
        assert seen == [(t, t) for t in range(1, cfg.layers + 1)]
        (op,) = ops
        square = [a for a in (op.dense, op.shift, op.matrix.data) if a is not None and a.ndim == 2]
        assert [a.shape for a in square] == ([(g.n, g.n)] if dense else [])
        assert op.shift is not None


class TestSgc:
    def test_triangle_one_step_fixed_point(self):
        iu, ju = np.triu_indices(3, k=1)
        e1 = np.array([[1.0], [0.0], [0.0]])
        g = build_graph(np.column_stack([iu, ju]), 3, e1)
        one = run_fuzzy_r_softgraphain(g, _cfg(layers=1), variant="sgc")
        assert one == pytest.approx(np.full((3, 1), 1 / 3))
        seven = run_fuzzy_r_softgraphain(g, _cfg(layers=7), variant="sgc")
        assert seven == pytest.approx(one)


class TestPairnorm:
    def test_output_norm(self, rng):
        g = _path_graph(4, 3, seed=9)
        out = pairnorm_step(rng.standard_normal((4, 3)), _centred(g))
        assert np.linalg.norm(out) == pytest.approx(2.0, abs=1e-10)
        assert np.abs(out.sum(axis=0)).max() <= 1e-10

    def test_constant_rows_collapse(self):
        # regular graph: the normalized adjacency preserves constant columns,
        # so centering annihilates them
        iu, ju = np.triu_indices(4, k=1)
        g = build_graph(np.column_stack([iu, ju]), 4, np.zeros((4, 2)))
        with pytest.raises(ZeroActivationError):
            pairnorm_step(np.tile([1.0, -2.0], (4, 1)), _centred(g))

    def test_constant_rows_collapse_random_walk(self):
        g = _path_graph(4, 2)
        with pytest.raises(ZeroActivationError):
            pairnorm_step(np.tile([1.0, -2.0], (4, 1)), _centred(g, "random_walk"))

    def test_matches_straight_line_formula(self, rng):
        g = _path_graph(4, 3, seed=9)
        h = rng.standard_normal((4, 3))
        out = pairnorm_step(h, _centred(g))

        # independent re-evaluation from the dense definition
        from graphain.oracles import dense_ahat

        n = 4
        t = np.eye(n) - np.full((n, n), 1.0 / n)
        hp = t @ dense_ahat(g) @ h
        expect = 1.0 * np.sqrt(n) * hp / np.linalg.norm(hp)
        assert np.abs(out - expect).max() <= 1e-12

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("layers", [1, 3])
    def test_overflowing_norm_names_layer_one(self, layers):
        # finite features whose squares overflow: the norm is inf, and a
        # scale of sqrt(n) / inf would zero the layer without an error
        edges = [(i, (i + 1) % 12) for i in range(12)] + [(0, 6)]
        x = np.random.default_rng(5).standard_normal((12, 4)) * 1e160
        g = build_graph(edges, 12, x)
        with pytest.raises(NonFiniteActivationError, match="^layer 1: .*not finite"):
            run_fuzzy_r_softgraphain(g, _cfg(layers=layers), variant="pairnorm")


class TestTheoremOneProperties:
    def test_invariants_along_hard_run(self):
        g = random_connected_graph(18, 0.3, seed=10, feature_dim=3)
        op = normalized_adjacency(g)
        abar = dense_abar(g)
        h = g.features
        n, d = h.shape
        for _ in range(10):
            h = hard_whiten(apply_centering(apply_operator(op, h)))
            assert np.abs(h.sum(axis=0)).max() <= 1e-9
            assert np.abs(h.T @ h - np.eye(d)).max() <= 1e-8
            assert np.abs(apply_centering(h) - h).max() <= 1e-10
            b = apply_centering(apply_operator(op, h))
            assert np.abs(b - abar @ h).max() <= 1e-9
            assert np.sum(h * h) == pytest.approx(d, abs=1e-9)

    def test_theorem2_pga_equivalence_ten_steps(self):
        g = random_connected_graph(14, 0.3, seed=12)
        rng = np.random.default_rng(3)
        x0 = orthonormal_projection(apply_centering(rng.standard_normal((14, 2))))
        op = normalized_adjacency(g)
        abar = dense_abar(g)
        h = x0
        oracle = x0
        for _ in range(10):
            h = hard_whiten(apply_centering(apply_operator(op, h)))
            oracle = orthonormal_projection(abar @ oracle)
            assert np.abs(h - oracle).max() <= 1e-8

    def test_theorem3_residual_equivalence(self):
        g = random_connected_graph(16, 0.3, seed=14)
        rng = np.random.default_rng(4)
        anchor = apply_centering(rng.standard_normal((16, 3)))
        h0 = orthonormal_projection(anchor)
        op = _centred(g)
        abar = dense_abar(g)
        for alpha, beta, gamma in ((0.5, 0.3, 0.2), (0.8, 0.1, 0.1), (1.0, 0.0, 0.0)):
            cfg = _cfg(alpha=alpha, beta=beta, gamma=gamma)
            b = residual_combine(h0, cfg.beta * h0, cfg.gamma * anchor, cfg, op)
            produced = hard_whiten(b)
            grad = abar @ h0 - h0 - (gamma / alpha) * (h0 - anchor)
            oracle = orthonormal_projection(h0 + alpha * grad)
            assert np.abs(produced - oracle).max() <= 1e-8
