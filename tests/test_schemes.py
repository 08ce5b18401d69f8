import tracemalloc

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
from helpers import (
    identity,
    random_signed_vector,
    random_substochastic,
    run_scheme,
    seeded_link_matrix,
)


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
            with pytest.raises(ValueError, match=f"row {i} out of range for dimension 5"):
                step_gsa(np.zeros(5), view, np.zeros(5), i)


def reference_rows(m: SparseColumnMatrix) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each row's (cols, vals) in m's stored order, read one column at a time."""
    rows = [([], []) for _ in range(m.n)]
    for j in range(m.n):
        for r, v in zip(*m.column(j)):
            rows[r][0].append(j)
            rows[r][1].append(v)
    return [(np.array(c, dtype=np.int64), np.array(v, dtype=np.float64)) for c, v in rows]


def signed_matrix_with_gaps(rng: np.random.Generator, n: int) -> SparseColumnMatrix:
    """Random signed n x n matrix with a stored zero and, for n > 1, an empty row and column."""
    dense = rng.uniform(-1.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.5)
    i, j = rng.integers(0, n, 2)
    dense[i, j] = 5e-324  # scaled by 0.5 it underflows to a stored zero
    if n > 1:
        dense[(i + 1) % n] = 0.0
        dense[:, (j + 1) % n] = 0.0
    return SparseColumnMatrix.from_dense(dense).scaled(0.5)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestRowView:
    """A RowView is its matrix's transpose: one SparseColumnMatrix, rows as columns."""

    @pytest.mark.parametrize("n", [1, 5, 37])
    def test_row_dot_matches_per_row_reference_bitwise(self, n):
        rng = np.random.default_rng(n)
        m = signed_matrix_with_gaps(rng, n)
        assert np.count_nonzero(m.vals) == m.nnz - 1
        view = RowView(m)
        assert isinstance(view.transpose, SparseColumnMatrix)
        assert view.transpose.nnz == m.nnz  # every stored entry, the zero too
        np.testing.assert_array_equal(view.transpose.to_dense(), m.to_dense().T)
        rows = reference_rows(m)
        for x in (random_signed_vector(rng, n), rng.uniform(-1e3, 1e3, n)):
            got = [view.row_dot(i, x) for i in range(n)]
            want = [float(vals.dot(x[cols])) for cols, vals in rows]
            np.testing.assert_array_equal(bits(got), bits(want))

    def test_stored_zero_times_inf_is_nan(self):
        m = SparseColumnMatrix.from_entries(3, np.array([0, 1, 1]), np.array([2, 0, 2]),
                                            [5e-324, 0.25, 0.5]).scaled(0.5)
        assert m.nnz == 3 and np.count_nonzero(m.vals) == 2  # an underflowed entry stays stored
        view = RowView(m)
        x = np.array([1.0, 2.0, np.inf])
        with np.errstate(invalid="ignore"):  # 0 * inf
            got = [view.row_dot(i, x) for i in range(3)]
            want = [float(vals.dot(x[cols])) for cols, vals in reference_rows(m)]
        assert np.isnan(got[0])
        assert got[1] == np.inf and got[2] == 0.0  # row 2 is empty
        np.testing.assert_array_equal(bits(got), bits(want))

    def test_view_keeps_only_the_transposes_arrays(self):
        m = seeded_link_matrix(2000, 1)
        RowView(m)  # first-call costs stay out
        tracemalloc.start()
        try:
            view = RowView(m)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the transpose's rows and vals, 8 bytes each a nonzero, and its indptr, 8 bytes
        # a row, plus the objects; a list of per-row array pairs adds about 230 bytes a row
        assert view.n == 2000 and m.nnz == 16000
        assert kept <= 16 * m.nnz + 8 * (m.n + 1) + 4096, f"{kept / m.nnz:.2f} bytes a nonzero"


class TestSchemeSpec:
    def test_affine_kinds_reject_nonzero_start(self, affine_case1):
        m, b = affine_case1
        with pytest.raises(ValueError, match="starts from zero"):
            SchemeSpec("Jac", m, b=b, x0=uniform_vector(5))
        with pytest.raises(ValueError, match="Jac needs an affine term b"):
            SchemeSpec("Jac", m)
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
        with pytest.raises(ValueError, match="sequence dimension 4 != matrix dimension 5"):
            SchemeSpec("GSl", p_full, x0=uniform_vector(5), seq=UpdateSequence.round_robin(4))

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
