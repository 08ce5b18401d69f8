import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluidsolve import (
    SparseColumnMatrix,
    UpdateSequence,
    l1_norm,
    load_case,
    run_diffusion,
    sigma,
    uniform_vector,
)
from helpers import (
    dense_matvec,
    identity,
    perfbench_graphs,
    random_signed_vector,
    random_substochastic,
    seeded_link_matrix,
    take,
)


@st.composite
def matrix_and_vectors(draw, max_n=8, n_vectors=1):
    n = draw(st.integers(min_value=1, max_value=max_n))
    positions = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=n * n,
            unique=True,
        )
    )
    values = draw(
        st.lists(
            st.floats(-5.0, 5.0, allow_nan=False),
            min_size=len(positions),
            max_size=len(positions),
        )
    )
    rows, cols = np.array(positions, dtype=np.int64).reshape(-1, 2).T
    m = SparseColumnMatrix.from_entries(n, rows, cols, np.array(values))
    vectors = [
        np.array(draw(st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=n, max_size=n)))
        for _ in range(n_vectors)
    ]
    return m, vectors


class TestSparseColumnMatrix:
    def test_matvec_case1_against_uniform(self):
        q = load_case("case1").q
        got = q.matvec(uniform_vector(5))
        np.testing.assert_allclose(got, [0.1, 0.3, 0.2, 0.2, 0.2], rtol=0, atol=1e-15)
        # brute-force dense oracle on the same data
        np.testing.assert_allclose(got, dense_matvec(q.to_dense(), uniform_vector(5)), atol=1e-15)

    def test_matvec_zero_matrix(self):
        m = SparseColumnMatrix.zero(4)
        np.testing.assert_array_equal(m.matvec(np.ones(4)), np.zeros(4))

    def test_matvec_identity(self):
        m = identity(4)
        v = np.array([1.0, -2.0, 3.5, 0.0])
        np.testing.assert_array_equal(m.matvec(v), v)

    def test_matvec_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length 3"):
            identity(3).matvec(np.ones(4))

    @settings(max_examples=60, deadline=None)
    @given(matrix_and_vectors(n_vectors=2))
    def test_matvec_linearity_and_dense_agreement(self, data):
        m, (u, v) = data
        lhs = m.matvec(u + v)
        rhs = m.matvec(u) + m.matvec(v)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(m.matvec(u), dense_matvec(m.to_dense(), u), rtol=0, atol=1e-12)

    def test_construction_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            SparseColumnMatrix.from_entries(2, [2], [0], [1.0])

    def test_construction_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseColumnMatrix.from_entries(2, [0, 0], [1, 1], [1.0, 2.0])

    def test_construction_rejects_a_duplicated_stored_zero(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseColumnMatrix.from_entries(2, [0, 0], [1, 1], [0.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_construction_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite entry"):
            SparseColumnMatrix.from_entries(2, [0, 1], [0, 0], [1.0, bad])
        with pytest.raises(ValueError, match="non-finite entry"):
            SparseColumnMatrix.from_dense([[1.0, 0.0], [bad, 0.0]])

    @pytest.mark.parametrize("index", [[1.9], np.array([1.0])], ids=["list", "array"])
    def test_construction_rejects_float_indices(self, index):
        # a float index is rejected, not truncated: [1.9] once stored the entry at 1
        with pytest.raises(TypeError, match="integer dtype"):
            SparseColumnMatrix.from_entries(2, index, [0], [1.0])
        with pytest.raises(TypeError, match="integer dtype"):
            SparseColumnMatrix.from_entries(2, [0], index, [1.0])

    @pytest.mark.parametrize("rows, cols, vals", [
        ([0, 1], [0], [1.0]), ([0], [0, 1], [1.0]), ([0], [0], [1.0, 2.0]),
    ])
    def test_construction_rejects_mismatched_lengths(self, rows, cols, vals):
        with pytest.raises(ValueError, match="one length"):
            SparseColumnMatrix.from_entries(2, rows, cols, vals)

    @settings(max_examples=60, deadline=None)
    @given(matrix_and_vectors(), st.randoms(use_true_random=False))
    def test_build_matches_entry_loop(self, data, rnd):
        # The loop form is the reference for the vectorized build and dense round trip.
        m, _ = data
        dense = np.zeros((m.n, m.n))
        for j in range(m.n):
            for k in range(m.indptr[j], m.indptr[j + 1]):
                dense[m.rows[k], j] = m.vals[k]
        np.testing.assert_array_equal(m.to_dense(), dense)
        np.testing.assert_array_equal(m.column_l1_norms(), np.abs(dense).sum(axis=0))
        order = list(range(m.n * m.n))  # every position once, stored zeros included, shuffled
        rnd.shuffle(order)
        rows, cols = np.divmod(np.array(order, dtype=np.int64), m.n)
        for rebuilt in (SparseColumnMatrix.from_dense(dense),
                        SparseColumnMatrix.from_entries(m.n, rows, cols, dense[rows, cols])):
            for name in ("indptr", "rows", "cols", "vals"):
                np.testing.assert_array_equal(getattr(rebuilt, name), getattr(m, name), name)

    @pytest.mark.parametrize("seed", range(5))
    def test_build_sorts_as_lexsort(self, seed):
        # shuffled input with repeated positions; np.lexsort((rows, cols)) is the reference order
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        rows, cols = rng.integers(0, n, (2, 4 * n))
        vals = rng.uniform(-1.0, 1.0, rows.size)
        order = np.lexsort((rows, cols))
        r, c = rows[order], cols[order]
        dup = np.flatnonzero((np.diff(r) == 0) & (np.diff(c) == 0))
        assert dup.size
        message = f"duplicate entry at (row {r[dup[0]]}, col {c[dup[0]]})"
        with pytest.raises(ValueError, match=re.escape(message)):
            SparseColumnMatrix.from_entries(n, rows, cols, vals)
        keep = np.sort(np.unique(cols * n + rows, return_index=True)[1])  # first of each, unsorted
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        order = np.lexsort((rows, cols))
        m = SparseColumnMatrix.from_entries(n, rows, cols, vals)
        for got, want in ((m.rows, rows), (m.cols, cols), (m.vals, vals)):
            np.testing.assert_array_equal(got, want[order])

    def test_construction_rejects_a_dimension_whose_sort_key_overflows(self):
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError, match="overflow int64"):
            SparseColumnMatrix.from_entries(2**32, empty, empty, [])

    def test_construction_drops_stored_zeros(self):
        m = SparseColumnMatrix.from_entries(3, [0, 1], [0, 0], [0.0, 2.0])
        assert m.nnz == 1
        assert m.col_nnz(0) == 1

    def test_col_l1_and_column(self):
        q = load_case("case1").q
        assert q.column_l1_norms()[4] == 1.0
        rows, vals = q.column(4)
        np.testing.assert_array_equal(rows, [0, 1])
        np.testing.assert_array_equal(vals, [0.5, 0.5])

    def test_scaled(self):
        q = load_case("case1").q
        vals = q.vals.copy()
        m = q.scaled(0.85)
        np.testing.assert_allclose(m.to_dense(), 0.85 * q.to_dense(), rtol=0, atol=0)
        assert q.scaled(0.0).nnz == 0
        for name in ("indptr", "rows"):  # shared with the source, not copied
            assert np.shares_memory(getattr(m, name), getattr(q, name)), name
        np.testing.assert_array_equal(m.cols, q.cols)  # derived from the shared indptr
        assert not np.shares_memory(m.vals, q.vals)
        np.testing.assert_array_equal(q.vals, vals)
        np.testing.assert_array_equal(m.vals, 0.85 * vals)
        np.testing.assert_allclose(m.column_l1_norms(), 0.85 * q.column_l1_norms(),
                                   rtol=1e-15, atol=0)

    def test_scaled_allocates_only_vals(self):
        q = seeded_link_matrix(2000, 1)
        tracemalloc.start()
        try:
            m = q.scaled(0.85)
            allocated, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.nnz == q.nnz == 16000
        # one float64 per stored entry, plus the object itself; a copy of indptr or
        # rows would add another 16,008 or 128,000 bytes
        assert q.vals.nbytes <= allocated < q.vals.nbytes + 4096

    def test_matrix_keeps_only_its_column_arrays(self):
        rows, cols, vals = perfbench_graphs().link_matrix(2000, 1)
        SparseColumnMatrix.from_entries(2000, rows, cols, vals)  # first-call costs stay out
        tracemalloc.start()
        try:
            m = SparseColumnMatrix.from_entries(2000, rows, cols, vals)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # rows and vals, 8 bytes each a nonzero, and indptr, 8 bytes a column, plus the
        # objects; a stored column index would add another 8 bytes a nonzero
        assert kept <= 16 * m.nnz + 8 * m.n + 4096, f"{kept / m.nnz:.2f} bytes a nonzero"


class TestVectorHelpers:
    def test_uniform_vector(self):
        e = uniform_vector(5)
        assert sigma(e) == pytest.approx(1.0, abs=1e-15)
        assert l1_norm(e) == pytest.approx(1.0, abs=1e-15)

    def test_sign_cancellation(self):
        v = np.array([1.0, -1.0, 0.0, 0.0, 0.0])
        assert sigma(v) == 0.0
        assert l1_norm(v) == 2.0

    def test_zero_vector(self):
        z = np.zeros(3)
        assert sigma(z) == 0.0
        assert l1_norm(z) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=20))
    def test_l1_dominates_sigma(self, values):
        v = np.array(values)
        assert l1_norm(v) >= abs(sigma(v)) - 1e-9 * l1_norm(v)


class TestUpdateSequence:
    def test_round_robin_first_indices(self):
        seq = UpdateSequence.round_robin(5)
        assert take(seq, 6) == [0, 1, 2, 3, 4, 0]

    def test_explicit_replay(self):
        seq = UpdateSequence.explicit(3, [2, 0, 1])
        assert take(seq, 4) == [2, 0, 1, 2]

    def test_explicit_rejects_unfair_list(self):
        with pytest.raises(ValueError, match="unfair"):
            UpdateSequence.explicit(2, [0, 0])
        with pytest.raises(ValueError, match=r"unfair sequence: coordinates \[1, 3\] never appear"):
            UpdateSequence.explicit(4, [2, 0, 2])

    @pytest.mark.parametrize("indices", [[0, 1, 2.5], np.array([0.0, 1.0, 2.0])])
    def test_explicit_rejects_float_indices(self, indices):
        # a float index is rejected, not truncated: [0, 1, 2.5] once replayed as [0, 1, 2]
        with pytest.raises(TypeError, match="integer indices"):
            UpdateSequence.explicit(3, indices)

    def test_explicit_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="index 2 out of range for dimension 2"):
            UpdateSequence.explicit(2, [0, 2])
        with pytest.raises(ValueError, match="index -1 out of range"):
            UpdateSequence.explicit(2, [0, -1, 1])

    @pytest.mark.parametrize("period, error, match", [
        (np.array([-1, 0, 1, 2, 3]), ValueError, "index -1 out of range for dimension 5"),
        (np.array([0, 1]), ValueError, r"unfair sequence: coordinates \[2, 3, 4\] never appear"),
        (np.arange(5.0), TypeError, "integer indices"),
    ])
    def test_constructor_rejects_a_bad_period_on_either_path(self, clu_path, period, error, match):
        # raised before a run starts, so the kernel and the no-compiler path never see the period
        case = load_case("case1")
        with pytest.raises(error, match=match):
            seq = UpdateSequence(5, period)
            run_diffusion(case.q.scaled(case.d), uniform_vector(5), seq=seq)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 30))
    def test_round_robin_windows_are_permutations(self, n, start):
        seq = UpdateSequence.round_robin(n)
        out = take(seq, start + n)
        assert sorted(out[start : start + n]) == list(range(n))

    def test_iter_indices_is_restartable(self):
        seq = UpdateSequence.explicit(3, [1, 0, 2])
        assert take(seq, 3) == take(seq, 3)

    def test_period_is_one_cycle_as_int64(self):
        for seq, want in ((UpdateSequence.round_robin(4), [0, 1, 2, 3]),
                          (UpdateSequence.explicit(3, [2, 0, 2, 1]), [2, 0, 2, 1])):
            period = seq.period()
            assert period.dtype == np.int64 and period.tolist() == want
            assert take(seq, 2 * len(want)) == 2 * want


def test_random_instance_helper_is_substochastic():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m, dense = random_substochastic(rng, int(rng.integers(2, 11)))
        assert np.all(dense >= 0.0)
        assert np.all(dense.sum(axis=0) <= 0.95 + 1e-12)
        v = random_signed_vector(rng, m.n)
        np.testing.assert_allclose(m.matvec(v), dense @ v, rtol=0, atol=1e-12)
