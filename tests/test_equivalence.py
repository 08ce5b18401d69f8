import math
import tracemalloc

import numpy as np
import pytest

from fluidsolve import (
    BUILTIN_CASES,
    SchemeSpec,
    SparseColumnMatrix,
    StoppingRule,
    UpdateSequence,
    dense_solve_oracle,
    l1_norm,
    load_case,
    pagerank_decompose,
    pagerank_matrix,
    run_diffusion,
    sigma,
    step_pi,
    to_diffusion,
    uniform_vector,
    verify_equivalence,
)
from fluidsolve.equivalence import diffusion_form
from helpers import (
    identity,
    random_signed_vector,
    random_substochastic,
    run_scheme,
    seeded_link_matrix,
    verify_reference,
)


@pytest.fixture(scope="module")
def case1():
    return load_case("case1")


@pytest.fixture(scope="module")
def p_full(case1):
    return pagerank_matrix(case1.q, case1.d)


class TestToDiffusion:
    def test_pi_mapping(self, p_full):
        e = uniform_vector(5)
        eq = to_diffusion(SchemeSpec("PI", p_full, x0=e))
        assert eq.mode == "vlu"
        assert eq.seq is None
        np.testing.assert_allclose(eq.f0, p_full.matvec(e) - e, rtol=0, atol=0)
        np.testing.assert_array_equal(eq.offset, e)

    def test_gsl_mapping(self, p_full):
        e = uniform_vector(5)
        seq = UpdateSequence.round_robin(5)
        eq = to_diffusion(SchemeSpec("GSl", p_full, x0=e, seq=seq))
        assert eq.mode == "clu"
        assert eq.seq is seq
        np.testing.assert_allclose(eq.f0, p_full.matvec(e) - e, rtol=0, atol=0)
        np.testing.assert_array_equal(eq.offset, e)

    def test_jac_and_gsa_mappings(self, case1):
        m = case1.q.scaled(case1.d)
        b = 0.15 * uniform_vector(5)
        eq = to_diffusion(SchemeSpec("Jac", m, b=b))
        assert eq.mode == "vlu"
        np.testing.assert_array_equal(eq.f0, b)
        np.testing.assert_array_equal(eq.offset, np.zeros(5))
        seq = UpdateSequence.round_robin(5)
        eq = to_diffusion(SchemeSpec("GSa", m, b=b, seq=seq))
        assert eq.mode == "clu"
        np.testing.assert_array_equal(eq.f0, b)

    @pytest.mark.parametrize("kind", ["PI", "Jac"])
    def test_vector_level_spec_rejects_a_sequence(self, kind, case1):
        m = case1.q.scaled(case1.d)
        e = uniform_vector(5)
        data = {"x0": e} if kind == "PI" else {"b": e}
        with pytest.raises(ValueError, match="takes no sequence"):
            SchemeSpec(kind, m, seq=UpdateSequence.round_robin(5), **data)
        eq = to_diffusion(SchemeSpec(kind, m, **data))
        assert eq.mode == "vlu" and eq.seq is None
        run = run_diffusion(eq.matrix, eq.f0, seq=eq.seq,
                            stop=StoppingRule(tol=None, max_steps=3))
        assert run.steps == 3

    def test_fixed_point_start_gives_zero_fluid(self, case1, p_full):
        x_star = dense_solve_oracle(case1.q.scaled(case1.d), 0.15 * uniform_vector(5))
        eq = to_diffusion(SchemeSpec("PI", p_full, x0=x_star))
        assert l1_norm(eq.f0) <= 1e-12


class TestPagerankDecompose:
    def test_case1_f0_hand_value(self, case1):
        eq = pagerank_decompose(case1.q, 0.85, uniform_vector(5))
        assert eq.f0[0] == pytest.approx(-0.085, abs=1e-15)
        # dense oracle: d*Q*x0 + (1-d)e - x0
        dense = case1.q.to_dense()
        e = uniform_vector(5)
        np.testing.assert_allclose(eq.f0, 0.85 * dense @ e + 0.15 * e - e, rtol=0, atol=1e-16)
        assert eq.mode == "vlu"
        np.testing.assert_array_equal(eq.offset, e)
        np.testing.assert_allclose(eq.matrix.to_dense(), 0.85 * dense, rtol=0, atol=0)

    def test_fixed_point_start(self, case1):
        x_star = dense_solve_oracle(case1.q.scaled(case1.d), 0.15 * uniform_vector(5))
        eq = pagerank_decompose(case1.q, 0.85, x_star)
        assert l1_norm(eq.f0) <= 1e-12

    def test_rejects_unnormalized_start(self, case1):
        with pytest.raises(ValueError, match="sigma"):
            pagerank_decompose(case1.q, 0.85, 0.5 * uniform_vector(5))

    def test_rejects_bad_damping(self, case1):
        for d in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="damping"):
                pagerank_decompose(case1.q, d, uniform_vector(5))

    def test_warns_on_substochastic_columns(self):
        dangling = SparseColumnMatrix.from_dense(
            [[0.0, 0.0], [0.5, 0.0]]  # column 0 sums to 0.5, column 1 dangling
        )
        with pytest.warns(UserWarning, match="not column-stochastic"):
            pagerank_decompose(dangling, 0.85, uniform_vector(2))

    @pytest.mark.parametrize("build", [
        lambda q: pagerank_decompose(q, 0.85, uniform_vector(2)),
        lambda q: diffusion_form(q, 0.85, "GSl", seq=UpdateSequence.round_robin(2)),
    ], ids=["pagerank_decompose", "diffusion_form"])
    def test_warning_names_the_caller_outside_the_package(self, build):
        dangling = SparseColumnMatrix.from_dense([[0.0, 0.0], [0.5, 0.0]])
        with pytest.warns(UserWarning, match="not column-stochastic") as caught:
            build(dangling)
        assert caught[0].filename == __file__

    def test_warning_prints_the_norm_as_a_plain_number(self):
        huge = SparseColumnMatrix.from_entries(2, [0, 1], [0, 1], [1e300, 1.0])
        with pytest.warns(UserWarning) as caught:
            pagerank_decompose(huge, 0.85, uniform_vector(2))
        message = str(caught[0].message)
        assert "column 0 has L1 norm 1e+300" in message
        assert "np.float64" not in message

    def test_one_step_identity_on_all_cases(self):
        # a single power-iteration step on the full operator equals one
        # vector-level diffusion step plus offset bookkeeping when sigma(x)=1
        rng = np.random.default_rng(23)
        for name in BUILTIN_CASES:
            case = load_case(name)
            p = pagerank_matrix(case.q, case.d)
            x = rng.random(5)
            x /= x.sum()
            classical = step_pi(x, p)
            eq = pagerank_decompose(case.q, case.d, x)
            # one VLU step: H_1 = f0, so the reconstruction is f0 + x
            np.testing.assert_allclose(classical, eq.f0 + x, rtol=0, atol=1e-12)


class TestPagerankMatrix:
    def test_dense_structure(self, case1):
        p = pagerank_matrix(case1.q, case1.d)
        expected = 0.85 * case1.q.to_dense() + 0.15 / 5.0
        np.testing.assert_allclose(p.to_dense(), expected, rtol=0, atol=1e-15)

    def test_refuses_large_n(self):
        big = identity(1001)
        with pytest.raises(ValueError, match="refusing"):
            pagerank_matrix(big, 0.85)


class TestDenseSolveOracle:
    def test_zero_matrix_returns_b(self):
        b = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(dense_solve_oracle(SparseColumnMatrix.zero(3), b), b)

    def test_zero_b_returns_zero(self, case1):
        x = dense_solve_oracle(case1.q.scaled(case1.d), np.zeros(5))
        np.testing.assert_array_equal(x, np.zeros(5))

    def test_case1_pagerank_vector_sums_to_one(self, case1):
        x = dense_solve_oracle(case1.q.scaled(case1.d), 0.15 * uniform_vector(5))
        assert sigma(x) == pytest.approx(1.0, abs=1e-10)

    def test_singular_raises(self):
        with pytest.raises(ValueError, match="singular"):
            dense_solve_oracle(identity(3), np.ones(3))

    def test_size_limit(self):
        big = SparseColumnMatrix.zero(1001)
        with pytest.raises(ValueError, match="n <= 1000"):
            dense_solve_oracle(big, np.zeros(1001))


class TestVerifyEquivalence:
    def test_pi_case1_all_three_checks(self, p_full):
        report = verify_equivalence(SchemeSpec("PI", p_full, x0=uniform_vector(5)), 50)
        assert report.max_discrepancy <= 1e-12
        assert report.max_fluid_discrepancy <= 1e-12
        assert report.max_history_discrepancy <= 1e-12

    def test_gsa_case1_250_updates(self, case1):
        spec = SchemeSpec(
            "GSa",
            case1.q.scaled(case1.d),
            b=0.15 * uniform_vector(5),
            seq=UpdateSequence.round_robin(5),
        )
        report = verify_equivalence(spec, 250)
        assert report.steps == 250
        assert report.max_discrepancy <= 1e-12

    def test_zero_steps_boundary(self, p_full):
        report = verify_equivalence(SchemeSpec("PI", p_full, x0=uniform_vector(5)), 0)
        assert report.max_discrepancy == 0.0
        assert report.max_fluid_discrepancy == report.max_history_discrepancy == 0.0
        seq, e = UpdateSequence.round_robin(5), uniform_vector(5)
        for spec in (SchemeSpec("GSl", p_full, x0=e, seq=seq), SchemeSpec("Jac", p_full, b=e),
                     SchemeSpec("GSa", p_full, b=e, seq=seq)):
            report = verify_equivalence(spec, 0)
            assert (report.steps, report.max_discrepancy) == (0, 0.0)

    @pytest.mark.parametrize("kind", ["PI", "GSl", "Jac", "GSa"])
    def test_random_instances(self, kind):
        rng = np.random.default_rng(hash(kind) % 2**32)
        for _ in range(5):
            n = int(rng.integers(2, 11))
            m, _ = random_substochastic(rng, n)
            seq = UpdateSequence.round_robin(n)
            if kind in ("PI", "GSl"):
                spec = SchemeSpec(kind, m, x0=random_signed_vector(rng, n),
                                  seq=seq if kind == "GSl" else None)
            else:
                spec = SchemeSpec(kind, m, b=random_signed_vector(rng, n),
                                  seq=seq if kind == "GSa" else None)
            report = verify_equivalence(spec, 10 * n)
            assert report.max_discrepancy <= 1e-10


def _bits(report):
    """The report's discrepancies as exact hex strings (None where not reported)."""
    return [None if v is None else float(v).hex() for v in
            (report.max_discrepancy, report.max_fluid_discrepancy, report.max_history_discrepancy)]


class TestVerifyMatchesReference:
    """verify_equivalence reports the bits of the per-step lockstep loop, verify_reference."""

    @pytest.mark.parametrize("order", ["roundrobin", "permuted"])
    @pytest.mark.parametrize("n", [1, 2, 5, 7, 8, 9, 17, 129, 300])
    def test_bitwise_equal(self, clu_path, n, order):
        rng = np.random.default_rng(1000 * n + (order == "permuted"))
        m, _ = random_substochastic(rng, n, density=min(0.6, 8 / n))
        if order == "roundrobin":
            seq = UpdateSequence.round_robin(n)
        else:  # every coordinate, then repeats, shuffled
            idx = np.concatenate([np.arange(n), rng.integers(0, n, n // 2 + 1)])
            seq = UpdateSequence.explicit(n, rng.permutation(idx))
        block = 2**16 // n  # steps the implementation compares at once
        for kind in ("PI", "GSl", "Jac", "GSa"):
            v = random_signed_vector(rng, n)
            if kind in ("PI", "GSl"):
                spec = SchemeSpec(kind, m, x0=v, seq=seq if kind == "GSl" else None)
            else:
                spec = SchemeSpec(kind, m, b=v, seq=seq if kind == "GSa" else None)
            # several blocks where that stays cheap: GS at n >= 129, PI/Jac at n = 300
            steps = 4 * n if spec.coordinate_level else (block + 3 if n == 300 else 40)
            got = verify_equivalence(spec, steps)
            want = verify_reference(spec, steps)
            assert math.isfinite(want.max_discrepancy)
            assert (got.scheme, got.steps) == (kind, steps)
            assert _bits(got) == _bits(want), kind

    @pytest.mark.parametrize("kind, steps", [("Jac", 6), ("GSa", 12), ("PI", 6), ("GSl", 12)])
    def test_overflow_is_reported_not_agreement(self, clu_path, kind, steps):
        # the iterates reach inf and then NaN; folding with Python's max dropped the NaN
        m = SparseColumnMatrix.from_dense([[0.0, 1e300], [1e300, 0.0]])
        seq = UpdateSequence.round_robin(2) if kind in ("GSl", "GSa") else None
        if kind in ("PI", "GSl"):
            spec = SchemeSpec(kind, m, x0=[0.5, 0.5], seq=seq)
        else:
            spec = SchemeSpec(kind, m, b=[1.0, -1.0], seq=seq)
        with np.errstate(all="ignore"):
            report = verify_equivalence(spec, steps)
        assert not math.isfinite(report.max_discrepancy)
        assert not report.max_discrepancy <= 1e-10  # so `verify` flags it FAIL

    def test_memory_is_bounded_by_the_block(self):
        # 4n steps of GSa at n = 3000: snapshots of every step would take 290 MB per buffer
        n = 3000
        q = seeded_link_matrix(n, 1)
        spec = SchemeSpec("GSa", q.scaled(0.85), b=0.15 * uniform_vector(n),
                          seq=UpdateSequence.round_robin(n))
        verify_equivalence(spec, 1)  # build the kernel outside the measurement
        tracemalloc.start()
        try:
            report = verify_equivalence(spec, 4 * n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.max_discrepancy <= 1e-10
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_vector_level_memory_is_bounded_by_the_block(self, clu_path):
        # 20,000 Jacobi steps on case1: a trace row per step would add about 3 MB
        case = load_case("case1")
        spec = SchemeSpec("Jac", case.q.scaled(case.d), b=0.15 * uniform_vector(5))
        verify_equivalence(spec, 1)  # build the kernel outside the measurement
        tracemalloc.start()
        try:
            report = verify_equivalence(spec, 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.max_discrepancy <= 1e-10
        assert peak < 3 * 2**20, f"peak {peak / 2**20:.2f} MB"


def test_fixed_point_agreement_across_schemes():
    # quick version; the full sweep lives in the acceptance suite
    case = load_case("case2")
    m = case.q.scaled(case.d)
    b = 0.15 * uniform_vector(5)
    x_star = dense_solve_oracle(m, b)
    jac = run_scheme(SchemeSpec("Jac", m, b=b), StoppingRule(tol=1e-13, max_steps=10**4))
    gsa = run_scheme(
        SchemeSpec("GSa", m, b=b, seq=UpdateSequence.round_robin(5)),
        StoppingRule(tol=1e-13, max_steps=10**5),
    )
    assert l1_norm(jac.x - x_star) <= 1e-8
    assert l1_norm(gsa.x - x_star) <= 1e-8
