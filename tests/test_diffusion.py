import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fluidsolve import (
    DiffusionState,
    SparseColumnMatrix,
    StoppingRule,
    UpdateSequence,
    aggregate_sweeps,
    dense_solve_oracle,
    diffuse_coordinate,
    diffuse_vector,
    l1_norm,
    load_case,
    run_diffusion,
    uniform_vector,
)
from fluidsolve import _clu
from fluidsolve.diffusion import TRACE_DTYPE, _bind, _run, _Trace
from helpers import (
    engine_clu,
    identity,
    iter_indices,
    random_signed_vector,
    random_substochastic,
    seeded_link_matrix,
)


@pytest.fixture
def case1_damped():
    case = load_case("case1")
    return case.q.scaled(case.d)


def dense_coordinate_step(dense, f, i):
    """Oracle: F + (P - I) @ J_i @ F evaluated with dense arrays."""
    picked = np.zeros_like(f)
    picked[i] = f[i]
    return f + (dense - np.eye(len(f))) @ picked


class TestCoordinateStep:
    def test_case1_hand_trace(self, case1_damped):
        f0 = 0.15 * uniform_vector(5)
        state = DiffusionState.start(f0)
        diffuse_coordinate(state, case1_damped, 0)
        np.testing.assert_allclose(state.f, [0.0, 0.0555, 0.03, 0.03, 0.03], rtol=0, atol=1e-16)
        np.testing.assert_allclose(state.h, [0.03, 0.0, 0.0, 0.0, 0.0], rtol=0, atol=0)
        rec = state.trace[-1]
        assert rec.contracted == pytest.approx(0.0045, abs=1e-15)
        assert rec.cancelled == 0.0
        # dense oracle for the fluid update
        np.testing.assert_allclose(
            state.f, dense_coordinate_step(case1_damped.to_dense(), f0, 0), rtol=0, atol=1e-16
        )

    def test_zero_fluid_is_a_counted_noop(self, case1_damped):
        f0 = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
        state = DiffusionState.start(f0)
        diffuse_coordinate(state, case1_damped, 0)
        assert state.step == 1
        np.testing.assert_array_equal(state.f, f0)
        np.testing.assert_array_equal(state.h, np.zeros(5))
        assert state.trace[-1].cancelled == 0.0
        assert state.trace[-1].contracted == 0.0

    def test_zero_matrix_absorbs_everything(self):
        m = SparseColumnMatrix.zero(3)
        state = DiffusionState.start(np.array([0.0, -0.7, 0.0]))
        diffuse_coordinate(state, m, 1)
        np.testing.assert_array_equal(state.f, np.zeros(3))
        np.testing.assert_array_equal(state.h, [0.0, -0.7, 0.0])
        assert state.trace[-1].contracted == pytest.approx(0.7)
        assert state.trace[-1].cancelled == 0.0

    def test_self_loop_redeposits_at_source(self):
        q = load_case("case4").q.scaled(0.85)
        f0 = np.zeros(5)
        f0[4] = 1.0
        state = DiffusionState.start(f0)
        diffuse_coordinate(state, q, 4)
        np.testing.assert_allclose(
            state.f, dense_coordinate_step(q.to_dense(), f0, 4), rtol=0, atol=1e-16
        )
        assert state.f[4] == pytest.approx(0.85 * 0.99)
        assert state.f[0] == pytest.approx(0.85 * 0.01)
        assert state.h[4] == 1.0

    def test_coordinate_out_of_range(self, case1_damped):
        state = DiffusionState.start(np.zeros(5))
        with pytest.raises(ValueError, match="coordinate 9"):
            diffuse_coordinate(state, case1_damped, 9)

    def test_dimension_mismatch(self, case1_damped):
        state = DiffusionState.start(np.zeros(4))
        with pytest.raises(ValueError, match="dimension"):
            diffuse_coordinate(state, case1_damped, 0)


class TestVectorStep:
    def test_case1_jacobi_contracts_by_d(self, case1_damped):
        state = DiffusionState.start(0.15 * uniform_vector(5))
        diffuse_vector(state, case1_damped)
        assert state.trace[-1].residual_l1 == pytest.approx(0.85 * 0.15, rel=1e-12)
        np.testing.assert_allclose(
            state.f, case1_damped.to_dense() @ (0.15 * uniform_vector(5)), rtol=0, atol=1e-16
        )
        np.testing.assert_allclose(state.h, 0.15 * uniform_vector(5), rtol=0, atol=0)

    def test_zero_fluid_noop(self, case1_damped):
        state = DiffusionState.start(np.zeros(5))
        diffuse_vector(state, case1_damped)
        assert state.step == 1
        np.testing.assert_array_equal(state.f, np.zeros(5))
        np.testing.assert_array_equal(state.h, np.zeros(5))

    def test_identity_matrix_moves_nothing_loses_nothing(self):
        m = identity(4)
        f0 = np.array([0.5, -0.25, 0.0, 1.0])
        state = DiffusionState.start(f0)
        for k in range(3):
            diffuse_vector(state, m)
            rec = state.trace[-1]
            assert rec.cancelled == 0.0
            assert rec.contracted == 0.0
        np.testing.assert_array_equal(state.f, f0)
        np.testing.assert_allclose(state.h, 3 * f0, rtol=0, atol=0)


class TestRunDiffusion:
    def test_vlu_residual_is_geometric(self, case1_damped):
        run = run_diffusion(
            case1_damped,
            0.15 * uniform_vector(5),
            stop=StoppingRule(tol=None, max_steps=50),
        )
        for rec in run.trace:
            expected = 0.15 * 0.85**rec.step
            assert rec.residual_l1 == pytest.approx(expected, rel=1e-12)

    def test_zero_f0_stops_immediately(self, case1_damped):
        run = run_diffusion(case1_damped, np.zeros(5))
        assert run.converged
        assert run.steps == 0
        np.testing.assert_array_equal(run.state.h, np.zeros(5))

    def test_clu_reaches_fixed_point_within_scaled_tolerance(self, case1_damped):
        b = 0.15 * uniform_vector(5)
        x_star = dense_solve_oracle(case1_damped, b)
        run = run_diffusion(
            case1_damped,
            b,
            seq=UpdateSequence.round_robin(5),
            stop=StoppingRule(tol=1e-10, max_steps=10**6),
        )
        assert run.converged
        assert l1_norm(run.state.h - x_star) <= 1e-10 / (1.0 - 0.85)

    def test_non_convergence_is_flagged_not_raised(self, case1_damped):
        run = run_diffusion(
            case1_damped,
            0.15 * uniform_vector(5),
            stop=StoppingRule(tol=1e-10, max_steps=3),
        )
        assert not run.converged
        assert run.status == "budget"
        assert run.steps == 3

    def test_argument_validation(self, case1_damped):
        with pytest.raises(ValueError, match="every must be positive"):
            run_diffusion(case1_damped, np.zeros(5), seq=UpdateSequence.round_robin(5), every=0)
        with pytest.raises(ValueError, match="every step"):
            run_diffusion(case1_damped, np.zeros(5), every=5)
        with pytest.raises(ValueError, match="sequence dimension 4 != matrix dimension 5"):
            run_diffusion(case1_damped, np.zeros(5), seq=UpdateSequence.round_robin(4))

    # Signed f0 * 1e3 on the benchmark's seeded graph: the running residual
    # drifts from l1(F) by more than tol. At n=200 it used to read converged
    # with l1(F) = 2.06e-10; at n=500 it stuck above tol while l1(F) fell to
    # 2.3e-51, and the run used its whole budget.
    @pytest.mark.parametrize("n, seed", [(200, 2), (500, 1)])
    def test_clu_converges_on_the_recomputed_residual(self, n, seed):
        m = seeded_link_matrix(n, seed).scaled(0.85)
        f0 = 1e3 * np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        stop = StoppingRule(tol=1e-10, max_steps=100_000)
        run = run_diffusion(m, f0, seq=UpdateSequence.round_robin(n), stop=stop)
        assert run.converged
        assert run.state.residual_l1() <= 1e-10
        assert run.trace[-1].residual_l1 == run.state.residual_l1()

    @pytest.mark.parametrize("mode, clu_path", [("clu", "kernel"), ("clu", "fallback"),
                                                ("vlu", "kernel"), ("vlu", "fallback")],
                             ids=["clu-kernel", "clu-fallback", "vlu-kernel", "vlu-fallback"],
                             indirect=["clu_path"])
    def test_overflow_is_non_finite_not_converged(self, mode, clu_path):
        # finite input whose iterates overflow: inf - inf = NaN inside F
        m = SparseColumnMatrix.from_dense(np.full((2, 2), 1e300))
        seq = UpdateSequence.round_robin(2) if mode == "clu" else None
        with np.errstate(over="ignore", invalid="ignore"):
            run = run_diffusion(m, [1.0, 2.0], seq=seq, stop=StoppingRule(tol=1e-10, max_steps=50))
        assert run.status == "non_finite"
        assert not run.converged
        assert run.steps <= 2
        assert not np.isfinite(run.state.residual_l1())

    def test_non_finite_start_is_reported(self, case1_damped, clu_path):
        f0 = np.array([np.nan, 0.0, 0.0, 0.0, 0.0])
        run = run_diffusion(case1_damped, f0, seq=UpdateSequence.round_robin(5))
        assert run.status == "non_finite" and run.steps == 0


class TestCoordinateDriver:
    """run_diffusion's coordinate-level driver against the per-step engine."""

    # the fixture only selects the step function; no example changes it
    @settings(derandomize=True, deadline=None, max_examples=80,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 16),  # from about 12 up, columns of 8+ entries are common
        every_key=st.sampled_from(["1", "3", "n", "2n"]),
        windows=st.integers(0, 6),
        mid_window=st.booleans(),
        signed=st.booleans(),
        explicit=st.booleans(),
        use_tol=st.booleans(),
    )
    @example(seed=1, n=4, every_key="n", windows=3, mid_window=False, signed=True, explicit=False, use_tol=False)
    @example(seed=2, n=5, every_key="3", windows=4, mid_window=True, signed=True, explicit=True, use_tol=False)
    @example(seed=3, n=6, every_key="2n", windows=2, mid_window=True, signed=False, explicit=True, use_tol=True)
    @example(seed=4, n=12, every_key="1", windows=40, mid_window=False, signed=True, explicit=False, use_tol=False)
    @example(seed=5, n=16, every_key="n", windows=6, mid_window=True, signed=True, explicit=True, use_tol=True)
    def test_matches_per_step_engine(self, clu_path, seed, n, every_key, windows, mid_window, signed,
                                     explicit, use_tol):
        rng = np.random.default_rng(seed)
        m, _ = random_substochastic(rng, n)  # random dense pattern: self-loops included
        f0 = random_signed_vector(rng, n) if signed else rng.random(n)
        if explicit:  # every coordinate once, plus repeats, shuffled
            order = np.concatenate((np.arange(n), rng.integers(0, n, int(rng.integers(0, n + 1)))))
            seq = UpdateSequence.explicit(n, rng.permutation(order).tolist())
        else:
            seq = UpdateSequence.round_robin(n)
        every = {"1": 1, "3": 3, "n": n, "2n": 2 * n}[every_key]
        max_steps = windows * every + (every // 2 + 1 if mid_window and every > 1 else 0)
        tol = 0.05 * l1_norm(f0) if use_tol else None

        run = run_diffusion(m, f0, seq=seq, stop=StoppingRule(tol=tol, max_steps=max_steps),
                            every=every)
        engine, exact = engine_clu(m, f0, seq, run.steps)

        assert run.state.f.tobytes() == engine.f.tobytes()
        assert run.state.h.tobytes() == engine.h.tobytes()
        assert run.state.delivered == engine.delivered
        if run.status == "budget":
            assert run.steps == max_steps
        else:
            assert run.status == "converged" and exact[run.steps] <= tol
        # it stops at the first step whose l1(F) is below tol by more than drift
        if tol is not None:
            assert all(exact[s] > tol * (1.0 - 1e-9) for s in range(run.steps))

        # every path adds each step's losses in column order and the steps in order
        expected = aggregate_sweeps(engine.trace, every)
        assert ([(r.step, r.cancelled.hex(), r.contracted.hex()) for r in run.trace]
                == [(r.step, r.cancelled.hex(), r.contracted.hex()) for r in expected])
        assert run.state.total_cancelled.hex() == engine.total_cancelled.hex()
        assert run.state.total_contracted.hex() == engine.total_contracted.hex()
        scale = l1_norm(f0)
        for got in run.trace:
            step = got.step * every
            if step % n == 0 or (step == run.steps and run.status == "converged"):
                assert got.residual_l1.hex() == exact[step].hex()  # recomputed exactly
            else:  # the running residual, which drifts by roundoff
                assert got.residual_l1 == pytest.approx(exact[step], rel=1e-12, abs=1e-15 * scale)
            if not signed:
                assert got.cancelled == 0.0


def random_sparse(rng, n, scale):
    """n x n matrix of up to 4n signed entries, its largest column L1 norm set to ``scale``."""
    pos = rng.choice(n * n, size=min(4 * n, n * n), replace=False)
    m = SparseColumnMatrix.from_entries(n, pos % n, pos // n, rng.uniform(-1.0, 1.0, pos.size))
    return m.scaled(scale / m.column_l1_norms().max())


class TestCoordinateRows:
    """The coordinate-level driver's rows, totals and exact residuals, bit for bit."""

    @staticmethod
    def bits(run):
        rows = [(r.step, r.residual_l1.hex(), r.cancelled.hex(), r.contracted.hex())
                for r in run.trace]
        state = run.state
        return (state.f.tobytes(), state.h.tobytes(), rows, state.total_cancelled.hex(),
                state.total_contracted.hex(), state.delivered, run.steps, run.status)

    @staticmethod
    def no_compiler(*args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_clu, "load", lambda: None)
            return run_diffusion(*args, **kwargs)

    # n straddles numpy's pairwise-sum blocks: a plain loop below 8, 8 accumulators
    # up to 128, halves split at a multiple of 8 above
    @pytest.mark.parametrize("end", ["converged", "budget", "rows", "non_finite"])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 1000, 8193])
    def test_matches_fallback_and_numpy_sum(self, clu_path, n, end):
        rng = np.random.default_rng(n)
        m = random_sparse(rng, n, 1e300 if end == "non_finite" else 0.9)
        f0 = 1e3 * random_signed_vector(rng, n)
        seq = UpdateSequence.round_robin(n)
        for every in sorted({1, 7, n}):
            # past a multiple of n, and mid-window for a window of 3 or more steps
            mid = max(every, n) + every // 2 + 1
            if end == "converged":  # on the exact l1(F) after step mid
                no_tol = StoppingRule(tol=None, max_steps=mid)
                tol = l1_norm(self.no_compiler(m, f0, seq=seq, stop=no_tol, every=every).state.f)
                stop = StoppingRule(tol=tol, max_steps=10 * mid)
            elif end == "rows":  # more than a buffer of rows, ending mid-window
                if every * _clu.STRETCH > 2**16:  # n = 1000, 8193: seconds without a compiler
                    continue
                stop = StoppingRule(tol=None, max_steps=(_clu.STRETCH + 1) * every + every // 2 + 1)
            else:
                stop = StoppingRule(tol=None, max_steps=mid)
            with np.errstate(over="ignore", invalid="ignore"):
                run = run_diffusion(m, f0, seq=seq, stop=stop, every=every)
                want = self.no_compiler(m, f0, seq=seq, stop=stop, every=every)
            assert run.status == {"rows": "budget"}.get(end, end), (every, run.status)
            assert self.bits(run) == self.bits(want), every
            if end == "rows":
                assert len(run.trace) > _clu.STRETCH + 1

            # every row at a multiple of n holds np.abs(F).sum() after that step
            state, exact = DiffusionState.start(f0), {0: np.abs(f0).sum()}
            with np.errstate(over="ignore", invalid="ignore"):
                for step in range(n, run.steps + 1, n):  # one state, resumed n steps at a time
                    _run(state, m, StoppingRule(tol=None, max_steps=step), seq.period(), n)
                    exact[step] = np.abs(state.f).sum()
            rows = [r for r in run.trace if r.step * every % n == 0]
            assert [r.residual_l1.hex() for r in rows] == [
                float(exact[r.step * every]).hex() for r in rows], every


class TestVectorDriver:
    """run_diffusion's vector-level driver against a loop of diffuse_vector, bit for bit."""

    @staticmethod
    def engine(m, f0, stop):
        state, status = DiffusionState.start(f0), "budget"
        while status == "budget" and state.step < stop.max_steps:
            diffuse_vector(state, m)
            residual = state.trace[-1].residual_l1
            if not np.isfinite(residual):
                status = "non_finite"
            elif stop.tol is not None and residual <= stop.tol:
                status = "converged"
        return state, status

    @staticmethod
    def bits(state, status):
        rows = [(r.step, r.residual_l1.hex(), r.cancelled.hex(), r.contracted.hex())
                for r in state.trace]
        return (state.f.tobytes(), state.h.tobytes(), rows, state.total_cancelled.hex(),
                state.total_contracted.hex(), state.delivered, state.step, status)

    # n straddles numpy's pairwise-sum blocks (8, 128) and the kernel's 256-step stretches
    def test_matches_per_step_engine(self, clu_path):
        rng = np.random.default_rng(11)
        for n in (1, 5, 7, 8, 9, 127, 128, 129, 1000, 8193):
            f0 = 1e3 * random_signed_vector(rng, n)
            for end, scale, stop in [
                ("converged", 0.9, StoppingRule(tol=1e-3 * l1_norm(f0), max_steps=10_000)),
                ("budget", 0.9, StoppingRule(tol=1e-300, max_steps=300)),
                ("budget", 0.9, StoppingRule(tol=None, max_steps=2 * _clu.STRETCH + 1)),
                ("non_finite", 1e300, StoppingRule(tol=None, max_steps=50)),
            ]:
                m = random_sparse(rng, n, scale)
                with np.errstate(over="ignore", invalid="ignore"):
                    run = run_diffusion(m, f0, stop=stop)
                    want = self.engine(m, f0, stop)
                assert run.status == end, (n, end)
                assert self.bits(run.state, run.status) == self.bits(*want), (n, end)

    def test_updates_f_in_place(self, clu_path):
        rng = np.random.default_rng(12)
        m = random_sparse(rng, 40, 0.9)
        f0 = random_signed_vector(rng, 40)
        want = np.bincount(m.rows, weights=m.vals * f0[m.cols], minlength=m.n)  # F after a step
        engine, driven = DiffusionState.start(f0), DiffusionState.start(f0)
        f_engine, f_driven = engine.f, driven.f
        diffuse_vector(engine, m)
        _run(driven, m, StoppingRule(tol=None, max_steps=1))
        assert engine.f is f_engine and driven.f is f_driven
        assert engine.f.tobytes() == driven.f.tobytes() == want.tobytes()


class TestSnapshots:
    """The run functions' snapshots: F and H after each row's step, bitwise the engine's."""

    @pytest.mark.parametrize("kind", ["clu, every 1", "clu, every n", "vlu"])
    @pytest.mark.parametrize("n", [1, 5, 8, 9, 129])
    def test_match_the_per_step_engine(self, clu_path, n, kind):
        rng = np.random.default_rng(n)
        m = random_sparse(rng, n, 0.9)
        f0 = random_signed_vector(rng, n)  # signed fluid on signed entries: cancellation
        order = None
        if kind != "vlu":  # every coordinate once, plus repeats, shuffled
            order = rng.permutation(np.concatenate((np.arange(n), rng.integers(0, n, n // 2 + 1))))
        every = n if kind == "clu, every n" else 1

        state = DiffusionState.start(f0)
        want, exact = [(state.f.copy(), state.h.copy())], [state.residual_l1()]
        for t in range(4 * n + 8):
            if order is None:
                diffuse_vector(state, m)
            else:
                diffuse_coordinate(state, m, int(order[t % order.size]))
            want.append((state.f.copy(), state.h.copy()))
            exact.append(state.residual_l1())
        # tol between the l1(F) of two steps, so the run ends on the later one: past two
        # windows and, for windows of n > 1 steps, in the middle of one
        end = next(s for s in range(2 * every + 1, len(exact))
                   if (every == 1 or s % every) and exact[s] < exact[s - 1] * (1.0 - 1e-6))
        tol = (exact[end] + exact[end - 1]) / 2

        got = DiffusionState.start(f0)
        snap = np.empty((3, 2, n))  # a few rows, so the run takes many calls
        steps, acc, run = _bind(m, got, order, every, snap)
        assert acc.tolist() == [exact[0], 0.0, 0.0, 0.0, 0.0] and run.tolist() == [0, 0, 0]
        while run[2] == 0 and run[0] < len(exact) - 1:
            before = int(run[0])
            rows = steps(len(exact) - 1, tol)
            ends = [s for s in range(before + 1, int(run[0]) + 1) if s % every == 0]
            assert len(rows) == len(ends) <= len(snap)
            for k, s in enumerate(ends):
                assert snap[k, 0].tobytes() == want[s][0].tobytes(), ("F", s)
                assert snap[k, 1].tobytes() == want[s][1].tobytes(), ("H", s)
        assert run.tolist()[::2] == [end, 1]  # converged at step end
        assert got.f.tobytes() == want[end][0].tobytes()
        assert got.h.tobytes() == want[end][1].tobytes()


class TestResume:
    """_run resumed on a state picks up where it stopped: _bind's acc and run come from the state."""

    @staticmethod
    def bits(state):
        rows = [(r.step, r.residual_l1.hex(), r.cancelled.hex(), r.contracted.hex())
                for r in state.trace]
        return (state.f.tobytes(), state.h.tobytes(), rows, state.total_cancelled.hex(),
                state.total_contracted.hex(), state.delivered, state.step)

    @pytest.mark.parametrize("kind", ["clu", "vlu"])
    def test_resumed_run_matches_one_uninterrupted_run(self, clu_path, kind):
        n, stride, total = 7, 3, 66  # ends at 3, 6, 9, ...: mostly not multiples of n
        rng = np.random.default_rng(41)
        m = random_sparse(rng, n, 0.9)  # every column contracts, so every step has losses
        f0 = random_signed_vector(rng, n)  # signed fluid on signed entries: cancellation
        order = None
        if kind == "clu":
            order = rng.permutation(np.concatenate((np.arange(n), rng.integers(0, n, 3))))
        every = stride if kind == "clu" else 1

        whole = DiffusionState.start(f0)
        assert _run(whole, m, StoppingRule(tol=None, max_steps=total), order, every) == "budget"
        resumed = DiffusionState.start(f0)
        for end in range(stride, total + 1, stride):  # a new bind at each window end
            assert _run(resumed, m, StoppingRule(tol=None, max_steps=end), order, every) == "budget"
        assert len(whole.trace) == total // every + 1
        assert self.bits(resumed) == self.bits(whole)


class TestExactRecord:
    """Engine rows hold the exact l1(F); NaN stays visible in every column."""

    @pytest.mark.parametrize("seed", range(3))
    def test_residual_contract_for_any_step_mix(self, seed):
        m = seeded_link_matrix(200, 2)
        rng = np.random.default_rng(seed)
        state = DiffusionState.start(1e3 * rng.uniform(-1.0, 1.0, m.n))
        assert state.trace[-1].residual_l1 == state.residual_l1()
        for _ in range(3 * m.n):
            if rng.random() < 0.1:
                diffuse_vector(state, m)
            else:
                diffuse_coordinate(state, m, int(rng.integers(m.n)))
            assert state.trace[-1].residual_l1 == state.residual_l1()
        assert state.total_cancelled == sum(r.cancelled for r in state.trace)
        assert state.total_contracted == sum(r.contracted for r in state.trace)

    def test_delivered_counts_entries_that_carry_fluid(self):
        # case4's d*Q is the cycle 0 -> 1 -> 2 -> 3 -> 4 plus a self-loop and a link back at 4
        m = load_case("case4").q.scaled(0.85)
        state = DiffusionState.start([1.0, 0.0, 0.0, 0.0, 0.0])
        for i in (1, 0, 2, 1):  # only the steps at 0 and then at 1 find fluid
            diffuse_coordinate(state, m, i)
        assert state.delivered == 2
        diffuse_vector(state, m)  # every stored entry, zero fluid or not
        assert state.delivered == 2 + m.nnz

    @pytest.mark.parametrize("mode, clu_path", [("clu", None), ("vlu", "kernel"),
                                                ("vlu", "fallback")],
                             ids=["clu", "vlu-kernel", "vlu-fallback"], indirect=["clu_path"])
    def test_engine_contracted_keeps_nan(self, mode, clu_path):
        m = SparseColumnMatrix.from_dense(np.array([[0.5, 0.25], [0.25, 0.5]]))
        state = DiffusionState.start([np.nan, 0.0])
        if mode == "clu":
            diffuse_coordinate(state, m, 0)
        else:  # run_diffusion stops at a NaN start, so its vector-level driver steps the state
            assert _run(state, m, StoppingRule(tol=None, max_steps=5)) == "non_finite"
            assert state.step == 1
        assert np.isnan(state.trace[-1].contracted)
        assert np.isnan(state.total_contracted)

    def test_driver_contracted_keeps_nan(self, clu_path):
        # step 2 overflows F to inf; step 3 collects inf and deposits inf: inf - inf
        m = SparseColumnMatrix.from_dense(np.full((3, 3), 1e300))
        stop = StoppingRule(tol=None, max_steps=10)
        with np.errstate(over="ignore", invalid="ignore"):
            run = run_diffusion(m, [1.0, 1.0, 1.0], seq=UpdateSequence.round_robin(3), stop=stop)
        assert run.status == "non_finite" and run.steps == 3
        assert [r.contracted for r in run.trace[1:3]] == [0.0, 0.0]  # -inf clamps to 0
        assert np.isnan(run.trace[3].contracted)
        assert np.isnan(run.state.total_contracted)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("mode", ["clu", "vlu"])
    def test_master_conservation(self, seed, mode):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        m, _ = random_substochastic(rng, n)
        f0 = random_signed_vector(rng, n)
        state = DiffusionState.start(f0)
        seq = iter_indices(UpdateSequence.round_robin(n))
        for _ in range(6 * n):
            if mode == "clu":
                diffuse_coordinate(state, m, next(seq))
            else:
                diffuse_vector(state, m)
            assert state.conservation_defect(m) <= 1e-10

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("mode", ["clu", "vlu"])
    def test_accounting_identity_per_step(self, seed, mode):
        # nonnegative substochastic matrix, mixed-sign fluid
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 10))
        m, _ = random_substochastic(rng, n)
        state = DiffusionState.start(random_signed_vector(rng, n))
        seq = iter_indices(UpdateSequence.round_robin(n))
        for _ in range(6 * n):
            before = l1_norm(state.f)
            if mode == "clu":
                diffuse_coordinate(state, m, next(seq))
            else:
                diffuse_vector(state, m)
            after = l1_norm(state.f)
            rec = state.trace[-1]
            assert before - after == pytest.approx(rec.cancelled + rec.contracted, abs=1e-10)
            assert rec.cancelled >= 0.0
            assert rec.contracted >= 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_positive_fluid_monotonicity(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 10))
        m, _ = random_substochastic(rng, n)
        state = DiffusionState.start(rng.random(n))
        seq = iter_indices(UpdateSequence.round_robin(n))
        prev_h = state.h.copy()
        for k in range(6 * n):
            if k % 2 == 0:
                diffuse_coordinate(state, m, next(seq))
            else:
                diffuse_vector(state, m)
            assert np.all(state.f >= 0.0)
            assert np.all(state.h >= prev_h - 1e-15)
            prev_h = state.h.copy()

    @pytest.mark.parametrize("seed", range(4))
    def test_contraction_bound(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 10))
        m, dense = random_substochastic(rng, n)
        d = float(dense.sum(axis=0).max())
        assert d < 1.0
        state = DiffusionState.start(random_signed_vector(rng, n))
        for _ in range(10):
            before = l1_norm(state.f)
            diffuse_vector(state, m)
            assert l1_norm(state.f) <= d * before + 1e-12
        # coordinate steps only promise monotone decrease for nonnegative m
        state = DiffusionState.start(random_signed_vector(rng, n))
        seq = iter_indices(UpdateSequence.round_robin(n))
        for _ in range(4 * n):
            before = l1_norm(state.f)
            diffuse_coordinate(state, m, next(seq))
            assert l1_norm(state.f) <= before + 1e-12


class TestTraceStorage:
    """A run's trace is one record array of rows; an item is an np.record."""

    @staticmethod
    def bits(records):
        return [(r.step, r.residual_l1.hex(), r.cancelled.hex(), r.contracted.hex())
                for r in records]

    @pytest.mark.parametrize("coordinate", [True, False])
    def test_items_slices_and_iteration_match_the_per_step_engine(self, clu_path, coordinate):
        # more rows than a kernel buffer and _Trace's first array; coordinate-level rows are
        # windows of n steps, whose residual is the exact one
        n, rows = 20, 2 * _clu.STRETCH + 45
        m = seeded_link_matrix(n, 3).scaled(0.85)
        f0 = random_signed_vector(np.random.default_rng(5), n)
        seq, every = (UpdateSequence.round_robin(n), n) if coordinate else (None, 1)
        stop = StoppingRule(tol=None, max_steps=rows * every)
        run = run_diffusion(m, f0, seq, stop, every)
        if coordinate:
            engine, exact = engine_clu(m, f0, seq, stop.max_steps)
            assert engine.trace.rows.residual_l1.tolist() == exact  # record stores what it is given
            want = aggregate_sweeps(engine.trace, n)
        else:
            engine = DiffusionState.start(f0)
            for _ in range(rows):
                diffuse_vector(engine, m)
            want = engine.trace.rows  # its steps are state.step
        trace = run.trace
        assert trace.rows.dtype.names == ("step", "residual_l1", "cancelled", "contracted")
        assert trace.rows.dtype.itemsize == 32
        assert len(trace) == len(want) == rows + 1
        assert self.bits(trace) == self.bits(want)
        assert trace.rows.residual_l1.tobytes() == want.residual_l1.tobytes()
        for k in (0, 1, rows, -1, -2, -(rows + 1)):  # perfbench/child.py reads trace[-1].residual_l1
            assert self.bits([trace[k]]) == self.bits([want[k]]), k
        for cut in (slice(1, None), slice(None, 5), slice(-3, None), slice(10, 2, -3),
                    slice(None, None, -1), slice(rows, rows + 9), slice(7, 3)):
            assert self.bits(trace[cut]) == self.bits(want[cut]), cut
        for k in (rows + 1, -(rows + 2)):
            with pytest.raises(IndexError):
                trace[k]

    def test_rows_grow_past_the_first_array_and_trim(self):
        # append keeps the step it is given; extend numbers its rows on from the row count
        trace = _Trace()
        for k in range(40):
            trace.append(10 * k, float(k), -0.0, 5e-324)
        trace.extend(np.full((3, 3), np.inf))
        assert len(trace) == 43 and trace.rows.base.shape == (64,)  # 16 rows, doubled twice
        trace.trim()
        assert trace.rows.base.shape == (43,)
        want = [(380, 38.0, -0.0, 5e-324), (390, 39.0, -0.0, 5e-324), (40, np.inf, np.inf, np.inf)]
        assert self.bits(trace[38:41]) == self.bits(np.rec.array(want, dtype=TRACE_DTYPE))

    @pytest.mark.parametrize("hand_step", [lambda state, m: diffuse_coordinate(state, m, 2),
                                           diffuse_vector], ids=["coordinate", "vector"])
    def test_hand_steps_record_the_state_step(self, clu_path, hand_step):
        # a windowed run numbers its rows by window; a hand step after it records state.step
        n = 10
        m, f0 = seeded_link_matrix(n, 2).scaled(0.85), uniform_vector(n)
        run = run_diffusion(m, f0, UpdateSequence.round_robin(n), StoppingRule(tol=None, max_steps=5 * n), n)
        hand_step(run.state, m)
        assert [r.step for r in run.trace] == [0, 1, 2, 3, 4, 5, 5 * n + 1]
        assert run.trace[-1].residual_l1 == run.state.residual_l1()
        # a state built at step 7 records step 8 as its first row
        built = DiffusionState(f0.copy(), np.zeros(n), f0, step=7)
        hand_step(built, m)
        assert [r.step for r in built.trace] == [8]

    def test_finished_run_keeps_32_bytes_a_row(self, clu_path):
        # windows of one coordinate step on the seeded n=200 graph; a namedtuple a row took
        # about 190 bytes a row. The rows arrive (STRETCH + 1) * 2**k at a time after the first,
        # so the last buffer just overflows an array of that size: untrimmed, it would double.
        n, steps = 200, (_clu.STRETCH + 1) * 2**8
        m, seq = seeded_link_matrix(n, 1).scaled(0.85), UpdateSequence.round_robin(n)
        f0 = 0.15 * uniform_vector(n)
        run_diffusion(m, f0, seq, StoppingRule(tol=None, max_steps=10))  # build the kernel first
        tracemalloc.start()
        try:
            run = run_diffusion(m, f0, seq, StoppingRule(tol=None, max_steps=steps))
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(run.trace) == steps + 1
        bound = 32 * len(run.trace) + 2**16  # the state's vectors and objects take about 30 KB
        assert kept < bound, f"kept {kept} B, bound {bound} B"


class TestAggregateSweeps:
    def test_windows_and_row0(self):
        trace = [(k, 1.0 / (k + 1), 0.1 * k, 0.01 * k) for k in range(8)]
        rows = aggregate_sweeps(trace, 3)
        assert rows.dtype == TRACE_DTYPE
        assert [r.step for r in rows] == [0, 1, 2]
        assert rows[0].residual_l1 == 1.0
        assert rows[1].residual_l1 == trace[3][1]
        assert rows[1].cancelled == pytest.approx(0.1 + 0.2 + 0.3)
        assert rows[2].contracted == pytest.approx(0.01 * (4 + 5 + 6))
        # the trailing partial window (step 7) is dropped

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            aggregate_sweeps([], 0)


def test_stopping_rule_validation():
    with pytest.raises(ValueError):
        StoppingRule(tol=0.0)
    with pytest.raises(ValueError):
        StoppingRule(tol=float("nan"))
    with pytest.raises(ValueError):
        StoppingRule(max_steps=-1)
    assert StoppingRule(tol=None).tol is None
