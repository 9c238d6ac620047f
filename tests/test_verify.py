"""Tests for the numerical verification suite."""

import math

import numpy as np
import pytest

from fednsim.losses import softmax_temp
from fednsim.verify import (
    INCREASE_TOL,
    SLOPE_TOL,
    DiversityInstance,
    SplitInstance,
    beta_grid,
    check_diversity_curve,
    check_uniform_argmin,
    cyclic_instance,
    diversity_closed_form,
    expected_distance,
    kl_split_discrepancy,
    mixture_gradient_diversity,
    mse_split_discrepancy,
    random_diversity_instance,
    random_split_instance,
    run_all,
    simplex_grid,
    smoothness_violation,
    symmetric_family,
)


class TestDiversityInstances:
    def test_cyclic_construction_balances_columns(self):
        inst = cyclic_instance([np.array([0.7, 0.1, 0.1, 0.1])])
        assert inst.num_clients == 4
        assert np.abs(inst.dists.sum(axis=0) - 1.0).max() < 1e-12

    def test_unbalanced_instance_rejected(self):
        rows = np.array([[0.9, 0.1], [0.9, 0.1]])  # columns sum to 1.8 / 0.2, not K/C
        with pytest.raises(ValueError, match="column sums"):
            DiversityInstance(rows)

    def test_non_simplex_rows_rejected(self):
        with pytest.raises(ValueError, match="simplex"):
            DiversityInstance(np.array([[0.9, 0.2], [0.1, 0.8]]))


class TestDiversityCurve:
    def test_shared_uniform_distribution_gives_one(self):
        inst = DiversityInstance(np.full((5, 4), 0.25))
        for beta in (0.0, 0.3, 1.0):
            assert mixture_gradient_diversity(inst, beta) == pytest.approx(1.0, abs=1e-12)
            assert diversity_closed_form(inst, beta) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_two_client_case(self):
        inst = DiversityInstance(np.eye(2))
        assert mixture_gradient_diversity(inst, 0.0) == pytest.approx(2.0, abs=1e-12)
        assert diversity_closed_form(inst, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_closed_form_matches_direct_on_random_instances(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(100):
            inst = random_diversity_instance(rng)
            for beta in beta_grid(inst.num_classes, points=9):
                gap = abs(
                    mixture_gradient_diversity(inst, beta) - diversity_closed_form(inst, beta)
                )
                worst = max(worst, gap)
        assert worst < 1e-9

    def test_full_mixture_endpoint_two_ways(self):
        # at beta = C - 1 every mixture vector is all-ones: diversity is 1
        rng = np.random.default_rng(3)
        inst = random_diversity_instance(rng)
        endpoint = float(inst.num_classes - 1)
        direct = mixture_gradient_diversity(inst, endpoint)
        closed = diversity_closed_form(inst, endpoint)
        assert abs(direct - closed) < 1e-9
        assert direct == pytest.approx(1.0, abs=1e-9)

    def test_reference_instance_monotone(self):
        inst = cyclic_instance([np.array([0.7, 0.1, 0.1, 0.1])])
        grid = np.arange(0.0, 1.0 + 1e-9, 0.01)
        report = check_diversity_curve(inst, grid)
        assert report.max_increase <= INCREASE_TOL
        assert report.max_slope_excess <= SLOPE_TOL

    def test_two_classes_have_no_slope(self):
        # with C = 2 every beta of the grid is 0: no central difference is
        # taken, so nothing divides 0 by 0 (a RuntimeWarning fails the suite)
        report = check_diversity_curve(cyclic_instance([np.array([0.7, 0.3])]))
        assert not beta_grid(2).any()
        assert report.max_slope_excess == 0.0 and report.max_increase <= INCREASE_TOL

    def test_property_sweep_50_seeds(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            report = check_diversity_curve(random_diversity_instance(rng))
            assert report.max_increase <= INCREASE_TOL, f"seed {seed}"
            assert report.max_slope_excess <= SLOPE_TOL, f"seed {seed}"
            assert report.max_closed_form_gap < 1e-9, f"seed {seed}"

    def test_diversity_at_zero_at_least_one(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            inst = random_diversity_instance(rng)
            assert mixture_gradient_diversity(inst, 0.0) >= 1.0 - 1e-12


class TestSplitIdentities:
    def test_matched_logits_all_zero(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(8, 4))
        labels = np.array([0, 1, 2, 3, 0, 1, 2, 3])
        inst = SplitInstance(z, z.copy(), labels, tau=2.0)
        assert kl_split_discrepancy(inst) == 0.0
        assert mse_split_discrepancy(inst) == 0.0

    def test_minimal_two_sample_hand_oracle(self):
        # one sample per class, C = 2: both paths reduce to half-sums
        z_l = np.array([[1.0, 0.0], [0.0, 2.0]])
        z_g = np.array([[0.5, 0.5], [1.0, 1.0]])
        labels = np.array([0, 1])
        inst = SplitInstance(z_l, z_g, labels, tau=1.0)

        q_l = [softmax_temp(z, 1.0) for z in z_l]
        q_g = [softmax_temp(z, 1.0) for z in z_g]
        term = lambda i, c: -q_g[i][c] * math.log(q_l[i][c] / q_g[i][c])
        # direct: true part averages term(i, y_i); p = [.5, .5] weights the same terms
        direct_true = (term(0, 0) + term(1, 1)) / 2
        weighted_true = 0.5 * term(0, 0) + 0.5 * term(1, 1)
        assert abs(direct_true - weighted_true) < 1e-15
        assert kl_split_discrepancy(inst) < 1e-12

        sq = (z_l - z_g) ** 2
        direct_nt = (sq[0, 1] + sq[1, 0]) / 2  # N (C-1) = 2
        weighted_nt = 0.5 * sq[1, 0] + 0.5 * sq[0, 1]
        assert abs(direct_nt - weighted_nt) < 1e-15
        assert mse_split_discrepancy(inst) < 1e-12

    def test_random_instances_within_tolerance(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            inst = random_split_instance(rng)
            assert kl_split_discrepancy(inst) < 1e-9
            assert mse_split_discrepancy(inst) < 1e-9

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match="every class"):
            SplitInstance(np.zeros((2, 3)), np.zeros((2, 3)), np.array([0, 1]))

    def test_single_sample_cannot_cover_two_classes(self):
        with pytest.raises(ValueError, match="every class"):
            SplitInstance(np.zeros((1, 2)), np.zeros((1, 2)), np.array([0]))


class TestUniformArgmin:
    @pytest.mark.parametrize("classes,subdivisions", [(2, 50), (3, 51), (4, 52)])
    @pytest.mark.parametrize("kind", ["vertices", "permutations"])
    def test_argmin_at_uniform(self, classes, subdivisions, kind):
        report = check_uniform_argmin(classes, kind, subdivisions)
        assert report.argmin_distance <= report.grid_step
        assert report.uniform_excess <= 1e-12

    def test_two_class_vertices_argmin_exact(self):
        report = check_uniform_argmin(2, "vertices", 50)
        assert np.allclose(report.argmin, [0.5, 0.5], atol=1e-12)

    def test_objective_permutation_invariant(self):
        family = symmetric_family(3, "permutations")
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = rng.dirichlet(np.ones(3))
            g = expected_distance(p, family)
            for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
                assert abs(expected_distance(p[perm], family) - g) < 1e-12

    def test_uniform_below_every_grid_point(self):
        grid = simplex_grid(3, 30)
        family = symmetric_family(3, "vertices")
        uniform = np.full(3, 1 / 3)
        g_u = expected_distance(uniform, family)
        for p in grid:
            assert g_u <= expected_distance(p, family) + 1e-12

    def test_grid_contains_uniform(self):
        for classes, subdivisions in ((2, 50), (3, 51), (4, 52)):
            grid = simplex_grid(classes, subdivisions)
            uniform = np.full(classes, 1 / classes)
            assert np.abs(grid - uniform).sum(axis=1).min() < 1e-12


class TestSmoothnessBound:
    def test_quadratic_equality(self):
        assert smoothness_violation(1.7, 5, trials=100) <= 1e-9

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            smoothness_violation(0.0, 3, trials=1)


class TestRunAll:
    def test_full_report_passes(self):
        results = run_all(trials=30, seed=1)
        assert all(r.passed for r in results), [r.line() for r in results if not r.passed]
        names = [r.name for r in results]
        assert "kl_split_identity" in names
        assert "mse_split_identity" in names
        assert "diversity_closed_form" in names
        assert "smooth_mixture_equality" in names

    def test_report_lines_have_status(self):
        for result in run_all(trials=5, seed=2):
            assert result.line().startswith(("PASS", "FAIL"))
