import numpy as np
import pytest

from fluidsolve import (
    DiffusionState,
    RowView,
    SchemeSpec,
    SparseColumnMatrix,
    StoppingRule,
    UpdateSequence,
    dense_solve_oracle,
    diffuse_coordinate,
    l1_norm,
    load_case,
    pagerank_matrix,
    sigma,
    step_gsa,
    step_gsl,
    step_jacobi,
    step_pi,
    uniform_vector,
)
from helpers import identity, random_signed_vector, random_substochastic, run_scheme


@pytest.fixture(scope="module")
def case1():
    return load_case("case1")


@pytest.fixture(scope="module")
def p_full(case1):
    return pagerank_matrix(case1.q, case1.d)


@pytest.fixture(scope="module")
def affine_case1(case1):
    """(d*Q, (1-d)e): the affine fixed-point problem behind case 1."""
    return case1.q.scaled(case1.d), 0.15 * uniform_vector(5)


class TestSteps:
    def test_pi_on_full_operator(self, p_full):
        x = step_pi(uniform_vector(5), p_full)
        assert x[0] == pytest.approx(0.115, abs=1e-15)
        np.testing.assert_allclose(x, p_full.to_dense() @ uniform_vector(5), rtol=0, atol=1e-15)

    def test_pi_trivial_matrices(self):
        v = np.array([1.0, 2.0, -3.0])
        np.testing.assert_array_equal(step_pi(v, SparseColumnMatrix.zero(3)), np.zeros(3))
        np.testing.assert_array_equal(step_pi(v, identity(3)), v)

    def test_gsl_single_coordinate(self, p_full):
        x = step_gsl(uniform_vector(5), RowView(p_full), 0)
        np.testing.assert_allclose(x, [0.115, 0.2, 0.2, 0.2, 0.2], rtol=0, atol=1e-15)

    def test_gsl_identity_noop(self):
        v = np.array([1.0, -2.0, 0.5])
        view = RowView(identity(3))
        for i in range(3):
            np.testing.assert_array_equal(step_gsl(v.copy(), view, i), v)

    def test_gsl_fixed_point_unchanged(self, case1, p_full):
        x_star = dense_solve_oracle(case1.q.scaled(case1.d), 0.15 * uniform_vector(5))
        view = RowView(p_full)
        for i in range(5):
            np.testing.assert_allclose(step_gsl(x_star.copy(), view, i), x_star, rtol=0, atol=1e-12)

    def test_gsl_matches_matrix_form_rewrite(self, p_full):
        # coordinate assignment == x + J_i (P - I) x
        rng = np.random.default_rng(3)
        view = RowView(p_full)
        for _ in range(5):
            x = random_signed_vector(rng, 5)
            i = int(rng.integers(0, 5))
            rewrite = x.copy()
            rewrite[i] += (p_full.matvec(x) - x)[i]
            np.testing.assert_allclose(step_gsl(x, view, i), rewrite, rtol=0, atol=1e-14)

    def test_jacobi_first_step_is_b(self, affine_case1):
        m, b = affine_case1
        np.testing.assert_array_equal(step_jacobi(np.zeros(5), m, b), b)

    def test_jacobi_second_iterate_dense_oracle(self, affine_case1):
        m, b = affine_case1
        x2 = step_jacobi(step_jacobi(np.zeros(5), m, b), m, b)
        np.testing.assert_allclose(x2, m.to_dense() @ b + b, rtol=0, atol=1e-15)

    def test_jacobi_zero_matrix_fixes_at_b(self, affine_case1):
        _, b = affine_case1
        z = SparseColumnMatrix.zero(5)
        np.testing.assert_array_equal(step_jacobi(b, z, b), b)

    def test_gsa_zero_start(self, affine_case1):
        m, b = affine_case1
        x = step_gsa(np.zeros(5), RowView(m), b, 0)
        assert x[0] == pytest.approx(0.03, abs=1e-15)
        assert np.all(x[1:] == 0.0)

    def test_gsa_fixed_point_unchanged(self, affine_case1):
        m, b = affine_case1
        x_star = dense_solve_oracle(m, b)
        view = RowView(m)
        for i in range(5):
            x = step_gsa(x_star.copy(), view, b, i)
            np.testing.assert_allclose(x, x_star, rtol=0, atol=1e-12)

    def test_gsa_sweep_matches_diffusion_history(self, affine_case1):
        # one full sweep from zero equals H after 5 coordinate-level updates
        m, b = affine_case1
        x = np.zeros(5)
        view = RowView(m)
        state = DiffusionState.start(b)
        for i in range(5):
            x = step_gsa(x, view, b, i)
            diffuse_coordinate(state, m, i)
        np.testing.assert_allclose(x, state.h, rtol=0, atol=1e-15)

    def test_row_view_matches_dense_rows(self):
        rng = np.random.default_rng(5)
        m, dense = random_substochastic(rng, 7)
        view = RowView(m)
        x = random_signed_vector(rng, 7)
        for i in range(7):
            assert view.row_dot(i, x) == pytest.approx(float(dense[i] @ x), abs=1e-14)

    def test_gauss_seidel_steps_update_x_in_place(self):
        rng = np.random.default_rng(8)
        m, dense = random_substochastic(rng, 7)
        view = RowView(m)
        b = random_signed_vector(rng, 7)
        for i in range(7):
            for step, extra in ((lambda x: step_gsl(x, view, i), 0.0),
                                (lambda x: step_gsa(x, view, b, i), b[i])):
                x = random_signed_vector(rng, 7)
                before = x.copy()
                assert step(x) is x
                assert x[i] == pytest.approx(float(dense[i] @ before) + extra, abs=1e-14)
                np.testing.assert_array_equal(np.delete(x, i), np.delete(before, i))

    def test_gauss_seidel_steps_reject_bad_input(self, p_full):
        view = RowView(p_full)
        with pytest.raises(ValueError, match="length 5"):
            step_gsl(np.zeros(4), view, 0)
        with pytest.raises(ValueError, match="length 5"):
            step_gsa(np.zeros(5), view, np.zeros(6), 0)
        for i in (-1, 5):
            with pytest.raises(ValueError, match="out of range"):
                step_gsa(np.zeros(5), view, np.zeros(5), i)


class TestSchemeSpec:
    def test_affine_kinds_reject_nonzero_start(self, affine_case1):
        m, b = affine_case1
        with pytest.raises(ValueError, match="starts from zero"):
            SchemeSpec("Jac", m, b=b, x0=uniform_vector(5))
        # an explicit zero start is fine
        SchemeSpec("GSa", m, b=b, x0=np.zeros(5), seq=UpdateSequence.round_robin(5))

    def test_linear_kinds_require_x0_and_reject_b(self, p_full):
        with pytest.raises(ValueError, match="starting vector"):
            SchemeSpec("PI", p_full)
        with pytest.raises(ValueError, match="takes no b"):
            SchemeSpec("PI", p_full, x0=uniform_vector(5), b=uniform_vector(5))

    def test_coordinate_kinds_require_sequence(self, p_full, affine_case1):
        m, b = affine_case1
        with pytest.raises(ValueError, match="update sequence"):
            SchemeSpec("GSl", p_full, x0=uniform_vector(5))
        with pytest.raises(ValueError, match="update sequence"):
            SchemeSpec("GSa", m, b=b)

    def test_unknown_kind(self, p_full):
        with pytest.raises(ValueError, match="unknown scheme"):
            SchemeSpec("SOR", p_full, x0=uniform_vector(5))


class TestRunScheme:
    def test_pi_converges_to_oracle(self, case1, p_full):
        x_star = dense_solve_oracle(case1.q.scaled(case1.d), 0.15 * uniform_vector(5))
        run = run_scheme(
            SchemeSpec("PI", p_full, x0=uniform_vector(5)),
            StoppingRule(tol=None, max_steps=100),
        )
        assert l1_norm(run.x - x_star) <= 1e-10

    def test_jacobi_with_zero_b_stays_zero(self, affine_case1):
        m, _ = affine_case1
        run = run_scheme(
            SchemeSpec("Jac", m, b=np.zeros(5)), StoppingRule(tol=None, max_steps=10)
        )
        np.testing.assert_array_equal(run.x, np.zeros(5))

    def test_gsa_round_robin_reaches_jacobi_fixed_point(self, affine_case1):
        m, b = affine_case1
        x_star = dense_solve_oracle(m, b)
        run = run_scheme(
            SchemeSpec("GSa", m, b=b, seq=UpdateSequence.round_robin(5)),
            StoppingRule(tol=1e-13, max_steps=10**5),
        )
        assert run.converged
        assert l1_norm(run.x - x_star) <= 1e-8

    def test_mass_preservation_under_stochastic_operator(self, p_full):
        rng = np.random.default_rng(17)
        x = rng.random(5)
        assert sigma(step_pi(x, p_full)) == pytest.approx(sigma(x), abs=1e-12)

    def test_affine_iterates_nondecreasing(self, affine_case1):
        m, b = affine_case1
        for kind, seq in [("Jac", None), ("GSa", UpdateSequence.round_robin(5))]:
            run = run_scheme(
                SchemeSpec(kind, m, b=b, seq=seq),
                StoppingRule(tol=None, max_steps=40),
                keep_iterates=True,
            )
            for prev, cur in zip(run.iterates, run.iterates[1:]):
                assert np.all(cur >= prev - 1e-15)

    def test_non_convergence_flag(self, affine_case1):
        m, b = affine_case1
        run = run_scheme(SchemeSpec("Jac", m, b=b), StoppingRule(tol=1e-12, max_steps=3))
        assert not run.converged
        assert run.updates == 3

    def test_iteration_means_full_sweep_for_coordinate_schemes(self, affine_case1):
        m, b = affine_case1
        run = run_scheme(
            SchemeSpec("GSa", m, b=b, seq=UpdateSequence.round_robin(5)),
            StoppingRule(tol=None, max_steps=15),
        )
        assert run.updates == 15
        assert len(run.iteration_deltas) == 3
