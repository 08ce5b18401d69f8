import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fluidsolve import (
    DiffusionState,
    EquivalenceReport,
    aggregate_sweeps,
    diffuse_vector,
    load_case,
    read_matrix_market,
    uniform_vector,
    write_trace_csv,
)
from fluidsolve import cli
from fluidsolve.cli import (
    EXIT_INPUT,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    cancellation_report,
    diffusion_form,
    main,
    make_sequence,
    run_custom,
    run_experiment,
    run_verification,
)
from helpers import ROOT, engine_clu, fit_log_slope, perfbench_graphs, read_trace_csv, take

CASE1_MM = """%%MatrixMarket matrix coordinate real general
5 5 6
2 1 1.0
3 2 1.0
4 3 1.0
5 4 1.0
1 5 0.5
2 5 0.5
"""


OVERFLOW_MM = """%%MatrixMarket matrix coordinate real general
2 2 4
1 1 1e300
1 2 1e300
2 1 1e300
2 2 1e300
"""


class TestMakeSequence:
    def test_round_robin_aliases(self):
        for spec in ("roundrobin", "round-robin", "Round_Robin"):
            assert take(make_sequence(spec, 4), 4) == [0, 1, 2, 3]

    def test_one_based_list(self):
        assert take(make_sequence("3,1,2", 3), 3) == [2, 0, 1]

    def test_rejects_junk_and_out_of_range(self):
        with pytest.raises(ValueError, match="bad sequence"):
            make_sequence("a,b", 3)
        with pytest.raises(ValueError, match="outside 1..3"):
            make_sequence("1,2,4", 3)


class TestDiffusionForm:
    def test_jacobi_default_b(self):
        case = load_case("case1")
        eq = diffusion_form(case.q, case.d, "Jac")
        assert eq.mode == "vlu"
        np.testing.assert_allclose(eq.f0, 0.15 * uniform_vector(5), rtol=1e-15)
        np.testing.assert_array_equal(eq.offset, np.zeros(5))

    @pytest.mark.parametrize("scheme", ["PI", "Jac"])
    def test_vector_level_schemes_reject_a_sequence(self, scheme):
        case = load_case("case1")
        with pytest.raises(ValueError, match="takes no sequence"):
            diffusion_form(case.q, case.d, scheme, seq=make_sequence("roundrobin", 5))

    @pytest.mark.parametrize("scheme", ["GSl", "GSa"])
    def test_gauss_seidel_needs_a_sequence(self, scheme):
        case = load_case("case1")
        with pytest.raises(ValueError, match=f"{scheme} needs an update sequence"):
            diffusion_form(case.q, case.d, scheme)

    @pytest.mark.parametrize("scheme, vector, match", [
        ("PI", "b", "PI solves x = P x and takes no b"),
        ("GSl", "b", "GSl solves x = P x and takes no b"),
        ("Jac", "x0", "Jac starts from zero; nonzero x0 rejected"),
        ("GSa", "x0", "GSa starts from zero; nonzero x0 rejected"),
    ])
    def test_rejects_a_vector_the_scheme_does_not_take(self, scheme, vector, match):
        case = load_case("case1")
        seq = make_sequence("roundrobin", 5) if scheme in ("GSl", "GSa") else None
        with pytest.raises(ValueError, match=match):
            diffusion_form(case.q, case.d, scheme, seq=seq, **{vector: np.ones(5)})

    def test_gsa_is_coordinate_level(self):
        case = load_case("case1")
        seq = make_sequence("roundrobin", 5)
        eq = diffusion_form(case.q, case.d, "GSa", seq=seq)
        assert eq.mode == "clu"
        assert eq.seq is seq

    def test_linear_schemes_decompose(self):
        case = load_case("case1")
        seq = make_sequence("roundrobin", 5)
        pi = diffusion_form(case.q, case.d, "PI")
        gsl = diffusion_form(case.q, case.d, "GSl", seq=seq)
        assert pi.mode == "vlu" and gsl.mode == "clu"
        assert pi.seq is None and gsl.seq is seq
        np.testing.assert_allclose(pi.f0, gsl.f0, rtol=0, atol=0)
        assert pi.f0[0] == pytest.approx(-0.085, abs=1e-15)
        np.testing.assert_array_equal(pi.offset, uniform_vector(5))


@pytest.fixture(scope="module")
def case1_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("case1")
    cfg = RunConfig(iterations=200, tol=1e-10, output_dir=out)
    return run_experiment(load_case("case1"), cfg)


class TestRunExperiment:
    def test_all_schemes_emit_csv_and_plot(self, case1_result):
        assert set(case1_result.traces) == {"PI", "GSl", "Jac", "GSa"}
        for trace in case1_result.traces.values():
            assert trace.csv_path.exists()
        assert case1_result.plot_path.exists()
        script = case1_result.plot_path.read_text()
        assert "set logscale y" in script
        assert "case1_Jac.csv" in script

    def test_jacobi_ratio_is_exactly_d(self, case1_result):
        rows = read_trace_csv(case1_result.traces["Jac"].csv_path)
        for (_, prev, _, _), (_, cur, _, _) in zip(rows[:20], rows[1:21]):
            assert cur / prev == pytest.approx(0.85, abs=1e-12)

    def test_gsa_speedup_over_jacobi(self, case1_result):
        jac = [r[1] for r in read_trace_csv(case1_result.traces["Jac"].csv_path)]
        gsa = [r[1] for r in read_trace_csv(case1_result.traces["GSa"].csv_path)]
        ratio = fit_log_slope(gsa, 2, 10) / fit_log_slope(jac, 2, 10)
        assert 4.0 <= ratio <= 6.0

    def test_gsl_first_iteration_jump(self, case1_result):
        resid = [r[1] for r in read_trace_csv(case1_result.traces["GSl"].csv_path)]
        factors = [resid[k - 1] / resid[k] for k in range(1, 11)]
        assert all(factors[0] > f for f in factors[1:])

    def test_positive_fluid_rows_monotone_and_accounted(self, case1_result):
        for scheme in ("Jac", "GSa"):
            rows = read_trace_csv(case1_result.traces[scheme].csv_path)
            for (s0, r0, _, _), (s1, r1, cancelled, contracted) in zip(rows, rows[1:]):
                assert r1 <= r0 + 1e-15
                assert r0 - r1 == pytest.approx(cancelled + contracted, abs=1e-10)

    def test_deterministic_bytes(self, tmp_path):
        cfg_a = RunConfig(output_dir=tmp_path / "a")
        cfg_b = RunConfig(output_dir=tmp_path / "b")
        res_a = run_experiment(load_case("case2"), cfg_a)
        res_b = run_experiment(load_case("case2"), cfg_b)
        for scheme in res_a.traces:
            assert (
                res_a.traces[scheme].csv_path.read_bytes()
                == res_b.traces[scheme].csv_path.read_bytes()
            )

    def test_empty_or_repeated_scheme_selection_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="scheme PI selected more than once"):
            RunConfig(schemes=("PI", "GSa", "PI"), output_dir=tmp_path)
        with pytest.raises(ValueError, match="no schemes selected"):
            RunConfig(schemes=(), output_dir=tmp_path)

    @pytest.mark.parametrize("setting, message", [
        ({"iterations": 0}, "iterations must be >= 1"),
        ({"tol": 0.0}, "tol must be positive"),
        ({"sample_every": 0}, "sample_every must be >= 1"),
    ])
    def test_out_of_range_setting_rejected(self, tmp_path, setting, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(output_dir=tmp_path, **setting)

    def test_solution_reconstruction(self, case1_result):
        from fluidsolve import dense_solve_oracle

        case = load_case("case1")
        x_star = dense_solve_oracle(case.q.scaled(case.d), 0.15 * uniform_vector(5))
        for trace in case1_result.traces.values():
            assert np.abs(trace.solution() - x_star).sum() <= 1e-8


class TestRunCustom:
    def test_matches_builtin_byte_for_byte(self, tmp_path):
        mm = tmp_path / "case1.mtx"
        mm.write_text(CASE1_MM)
        cfg_custom = RunConfig(output_dir=tmp_path / "custom")
        cfg_builtin = RunConfig(output_dir=tmp_path / "builtin")
        custom = run_custom(mm, cfg_custom, name="case1")
        builtin = run_experiment(load_case("case1"), cfg_builtin)
        for scheme in builtin.traces:
            assert (
                custom.traces[scheme].csv_path.read_bytes()
                == builtin.traces[scheme].csv_path.read_bytes()
            )

    def test_empty_matrix_file_is_parse_error(self, tmp_path):
        from fluidsolve import ParseError

        bad = tmp_path / "bad.mtx"
        bad.write_text("")
        with pytest.raises(ParseError):
            run_custom(bad, RunConfig(output_dir=tmp_path))

    def test_dimension_mismatch(self, tmp_path):
        mm = tmp_path / "small.mtx"
        mm.write_text("%%MatrixMarket matrix coordinate real general\n3 3 1\n2 1 1.0\n")
        b = tmp_path / "b.txt"
        b.write_text("1\n2\n3\n4\n5\n")
        with pytest.raises(ValueError, match="5 entries but the matrix is 3x3"):
            run_custom(mm, RunConfig(output_dir=tmp_path), b_path=b)


class TestCustomX0:
    """``fluidsolve custom --x0`` on a seeded 50-node graph."""

    N = 50

    @pytest.fixture(scope="class")
    def graph(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("graph") / "g.mtx"
        perfbench_graphs().make_graph(path, self.N, 1)
        return path

    def _custom(self, graph, out, *extra):
        return main(["custom", "--matrix", str(graph), "--out", str(out), *extra])

    def test_uniform_x0_gives_the_default_output(self, graph, tmp_path):
        x0 = tmp_path / "x0.txt"
        x0.write_text(f"{1 / self.N!r}\n" * self.N)
        default, given = tmp_path / "default", tmp_path / "x0"
        assert self._custom(graph, default) == EXIT_OK
        assert self._custom(graph, given, "--x0", str(x0)) == EXIT_OK
        names = sorted(p.name for p in default.iterdir())
        assert names == sorted(p.name for p in given.iterdir())
        assert len(names) == 5  # a trace per scheme and the plot script
        for name in names:
            assert (default / name).read_bytes() == (given / name).read_bytes(), name

    @pytest.mark.parametrize("entries, message", [
        (["0.02"] * 49, "x0 has 49 entries but the matrix is 50x50"),
        (["1.0"] * 50, "decomposition needs sigma(x0) = 1"),
    ])
    def test_bad_x0_exits_2(self, graph, tmp_path, capsys, entries, message):
        x0 = tmp_path / "x0.txt"
        x0.write_text("\n".join(entries) + "\n")
        assert self._custom(graph, tmp_path / "out", "--x0", str(x0)) == EXIT_INPUT
        assert message in capsys.readouterr().err


class TestCancellationReport:
    def test_jacobi_never_cancels(self):
        summary = cancellation_report(load_case("case1"), "Jac", 30)
        assert summary.cumulative_cancelled == 0.0
        assert summary.cumulative_fraction == 0.0

    def test_case4_power_iteration_split(self):
        summary = cancellation_report(load_case("case4"), "PI", 10)
        # the negative fluid meets the self-loop mass at the fifth classical update
        assert summary.fraction_at_update(5) == pytest.approx(0.84, abs=0.05)
        assert summary.cumulative_fraction < 0.6

    def test_zero_fluid_reports_nan_sentinel(self):
        # coordinates 3-5 of case1 start with zero fluid, so these updates deliver nothing
        summary = cancellation_report(load_case("case1"), "GSl", 3, seq_spec="5,4,3,2,1")
        assert summary.cumulative_cancelled == summary.cumulative_contracted == 0.0
        assert math.isnan(summary.cumulative_fraction)
        assert all(math.isnan(frac) for _, _, _, frac in summary.per_step)

    @pytest.mark.parametrize("name, scheme, seq", [
        ("case4", "PI", "roundrobin"), ("case1", "GSl", "5,4,3,2,1")])  # the second is all 0/0
    def test_per_step_items_are_python_numbers(self, name, scheme, seq):
        summary = cancellation_report(load_case(name), scheme, 10, seq_spec=seq)
        assert len(summary.per_step) == 10
        for item in summary.per_step:
            assert type(item) is tuple and list(map(type, item)) == [int, float, float, float]
        json.dumps(summary.per_step)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            cancellation_report(load_case("case1"), "SOR", 5)

    def test_no_steps(self):
        with pytest.raises(ValueError, match="n_steps must be >= 1"):
            cancellation_report(load_case("case1"), "PI", 0)


class TestVerificationSuite:
    def test_reports_cover_cases_and_schemes(self, tmp_path):
        cfg = RunConfig(iterations=20, output_dir=tmp_path)
        reports = run_verification(cfg, tmp_path / "verify.csv")
        assert len(reports) == 16
        assert max(r.max_discrepancy for r in reports) <= 1e-10
        lines = (tmp_path / "verify.csv").read_text().splitlines()
        assert lines[0] == "scheme,steps,max_discrepancy"
        assert len(lines) == 17


class TestMainExitCodes:
    def test_case_run_ok(self, tmp_path, capsys):
        code = main(["case", "case1", "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "converged" in out
        assert (tmp_path / "case1_PI.csv").exists()
        assert (tmp_path / "case1_plot.gp").exists()

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["case", "case9"])
        assert exc.value.code == EXIT_USAGE

    def test_bad_scheme_name_is_input_error(self, tmp_path):
        code = main(["case", "case1", "--schemes", "FOO", "--out", str(tmp_path)])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("command", [["case", "case1"], ["verify"]])
    def test_repeated_scheme_is_input_error(self, tmp_path, capsys, command):
        code = main([*command, "--schemes", "PI,PI", "--out", str(tmp_path)])
        assert code == EXIT_INPUT
        assert "scheme PI selected more than once" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_verify_takes_no_tol(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--tol", "1e-3", "--out", str(tmp_path)])
        assert exc.value.code == EXIT_USAGE

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("not a matrix\n")
        code = main(["custom", "--matrix", str(bad), "--out", str(tmp_path)])
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_non_convergence_exits_3(self, tmp_path, capsys):
        code = main(["case", "case1", "--iters", "3", "--out", str(tmp_path)])
        assert code == EXIT_NOT_CONVERGED
        assert "NOT CONVERGED" in capsys.readouterr().out

    def test_verify_subcommand(self, tmp_path, capsys):
        code = main(["verify", "--iters", "10", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert (tmp_path / "verify.csv").exists()
        assert "max discrepancy" in capsys.readouterr().out

    @pytest.mark.parametrize("command, schemes", [
        (["case", "case1"], "PI"), (["verify"], "PI,Jac"), (["cancel-report", "case1"], None)])
    def test_seq_is_parsed_only_for_gauss_seidel(self, tmp_path, command, schemes):
        # index 9 is outside 1..5: an error for GSl/GSa, never read by PI or Jac
        select = ["--scheme", "PI"] if schemes is None else ["--schemes", schemes]
        outputs = []
        for extra, out in (([], tmp_path / "plain"), (["--seq", "9"], tmp_path / "seq9")):
            assert main([*command, *select, *extra, "--out", str(out)]) == EXIT_OK
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outputs[0] and outputs[0] == outputs[1]
        gauss = ["--scheme", "GSa"] if schemes is None else ["--schemes", "GSa"]
        bad = tmp_path / "bad"
        assert main([*command, *gauss, "--seq", "9", "--out", str(bad)]) == EXIT_INPUT

    def test_verify_fails_on_a_nan_discrepancy(self, tmp_path, capsys, monkeypatch):
        def nan_report(spec, n_steps):
            return EquivalenceReport(spec.kind, n_steps, math.nan if spec.kind == "Jac" else 0.0)

        monkeypatch.setattr(cli, "verify_equivalence", nan_report)
        code = main(["verify", "--out", str(tmp_path)])
        assert code == EXIT_NOT_CONVERGED
        out = capsys.readouterr().out
        assert out.count("[FAIL]") == 4 and out.count("[ok]") == 12

    def test_cancel_report_subcommand(self, tmp_path, capsys):
        code = main(["cancel-report", "case4", "--scheme", "PI", "--steps", "10",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert (tmp_path / "case4_PI_cancellation.csv").exists()
        assert "fraction at classical update 5" in capsys.readouterr().out

    def test_cancel_report_csv_round_trips(self, tmp_path):
        code = main(["cancel-report", "case4", "--scheme", "PI", "--steps", "10",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        lines = (tmp_path / "case4_PI_cancellation.csv").read_text().splitlines()
        assert lines[0] == "step,cancelled,contracted,fraction"
        assert lines[1] == "1,0,0.050490000000000035,0"
        summary = cancellation_report(load_case("case4"), "PI", 10)
        assert len(lines) == 1 + len(summary.per_step)
        for line, (step, cancelled, contracted, frac) in zip(lines[1:], summary.per_step):
            fields = line.split(",")
            assert int(fields[0]) == step
            assert float(fields[1]) == cancelled and float(fields[2]) == contracted
            assert float(fields[3]) == frac or (math.isnan(frac) and fields[3] == "nan")

    @pytest.mark.parametrize("d", ["1.5", "-1", "0", "1"])
    @pytest.mark.parametrize("scheme", ["PI", "GSl", "Jac", "GSa"])
    def test_damping_checked_for_every_scheme(self, tmp_path, capsys, scheme, d):
        mm = tmp_path / "m.mtx"
        mm.write_text(CASE1_MM)
        code = main(["custom", "--matrix", str(mm), "--schemes", scheme, f"--d={d}",
                     "--out", str(tmp_path)])
        assert code == EXIT_INPUT
        assert "damping factor must lie in (0, 1)" in capsys.readouterr().err

    def test_non_finite_input_exits_2(self, tmp_path, capsys):
        mm = tmp_path / "nan.mtx"
        mm.write_text(CASE1_MM.replace("2 5 0.5", "2 5 nan"))
        code = main(["custom", "--matrix", str(mm), "--schemes", "GSl,GSa", "--out", str(tmp_path)])
        assert code == EXIT_INPUT
        assert "non-finite value 'nan'" in capsys.readouterr().err
        ok = tmp_path / "ok.mtx"
        ok.write_text(CASE1_MM)
        b = tmp_path / "b.txt"
        b.write_text("0.03\n0.03\ninf\n0.03\n0.03\n")
        code = main(["custom", "--matrix", str(ok), "--b", str(b), "--schemes", "GSa",
                     "--out", str(tmp_path)])
        assert code == EXIT_INPUT
        assert "b.txt:3: non-finite value 'inf'" in capsys.readouterr().err

    def test_overflow_exits_3_as_non_finite(self, tmp_path, capsys):
        mm = tmp_path / "big.mtx"
        mm.write_text(OVERFLOW_MM)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.warns(UserWarning, match="not column-stochastic"):
            code = main(["custom", "--matrix", str(mm), "--out", str(tmp_path)])
        assert code == EXIT_NOT_CONVERGED
        lines = capsys.readouterr().out.splitlines()
        for scheme in ("PI", "GSl", "Jac", "GSa"):
            line = next(ln for ln in lines if ln.startswith(f"big {scheme:>3}:"))
            assert "NOT CONVERGED (non_finite)" in line
            assert "residual 0.000e+00" not in line

    def test_custom_subcommand_end_to_end(self, tmp_path):
        mm = tmp_path / "m.mtx"
        mm.write_text(CASE1_MM)
        code = main(["custom", "--matrix", str(mm), "--schemes", "Jac,GSa",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert (tmp_path / "m_Jac.csv").exists()


class TestWindowedTraceRows:
    """Coordinate-level runs keep one trace row per window, not one per step."""

    N = 200

    @pytest.fixture(scope="class")
    def graph(self, tmp_path_factory):
        graphs = perfbench_graphs()
        path = tmp_path_factory.mktemp("graph") / "g.mtx"
        graphs.write_matrix_market(path, self.N, *graphs.link_matrix(self.N, 1))
        return path

    def test_one_row_per_sweep_and_vector_level_bytes_unchanged(self, graph, tmp_path):
        result = run_custom(graph, RunConfig(output_dir=tmp_path))
        for scheme in ("GSl", "GSa"):
            run = result.traces[scheme].run
            assert run.converged
            assert len(run.trace) == run.steps // self.N + 1
            assert len(read_trace_csv(result.traces[scheme].csv_path)) == len(run.trace)
        for scheme in ("PI", "Jac"):  # against the per-step engine
            trace = result.traces[scheme]
            state = DiffusionState.start(trace.equivalent.f0)
            while state.trace[-1].residual_l1 > 1e-10:
                diffuse_vector(state, trace.equivalent.matrix)
            reference = tmp_path / f"reference_{scheme}.csv"
            write_trace_csv(reference, state.trace)
            assert trace.csv_path.read_bytes() == reference.read_bytes()

    def test_sample_every_rows_match_aggregate_sweeps(self, graph, tmp_path):
        cfg = RunConfig(schemes=("GSl", "GSa"), sample_every=7, output_dir=tmp_path)
        result = run_custom(graph, cfg)
        for scheme in cfg.schemes:
            trace = result.traces[scheme]
            equiv = trace.equivalent
            engine, exact = engine_clu(equiv.matrix, equiv.f0, equiv.seq, trace.run.steps)
            expected = aggregate_sweeps(engine.trace, 7)
            rows = read_trace_csv(trace.csv_path)
            assert [r[0] for r in rows] == [r.step for r in expected]
            for (step, resid, cancelled, contracted), want in zip(rows, expected):
                assert cancelled == pytest.approx(want.cancelled, rel=1e-12, abs=1e-16)
                assert contracted == pytest.approx(want.contracted, rel=1e-12, abs=1e-16)
                assert resid == pytest.approx(exact[7 * step], rel=1e-12, abs=1e-16)


def _custom_on_substochastic(tmp_path, schemes: str = "PI,GSl") -> subprocess.CompletedProcess:
    """``python -m fluidsolve custom --schemes schemes`` on sub.mtx, whose column 0 sums to 0.5.

    The kernel cache starts empty, so the run builds the kernel (or fails to)
    between the PI and the GSl warning, as a first run does.
    """
    path = tmp_path / "sub.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n2 1 0.5\n1 2 0.5\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}  # the default filter
    env["PYTHONPATH"] = str(ROOT / "src")
    env["XDG_CACHE_HOME"] = str(tmp_path / "cache")
    proc = subprocess.run(
        [sys.executable, "-m", "fluidsolve", "custom", "--matrix", str(path), "--schemes", schemes,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    return proc


def test_column_sum_warning_shows_once(tmp_path):
    proc = _custom_on_substochastic(tmp_path)
    assert proc.stderr.count("not column-stochastic") == 1, proc.stderr


def test_column_sum_warning_names_the_matrix_file(tmp_path):
    proc = _custom_on_substochastic(tmp_path)
    assert f"{tmp_path / 'sub.mtx'}:0: UserWarning: matrix is not column-stochastic" in proc.stderr
    assert "<frozen" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("schemes", ["Jac", "GSa", "PI,GSl,Jac,GSa"])
def test_column_sum_warning_does_not_depend_on_the_schemes(tmp_path, schemes):
    proc = _custom_on_substochastic(tmp_path, schemes)
    assert proc.stderr.count("not column-stochastic") == 1, proc.stderr
    assert f"{tmp_path / 'sub.mtx'}:0: UserWarning: matrix is not column-stochastic" in proc.stderr


def test_module_entry_point_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        proc = subprocess.run(
            [sys.executable, "-m", "fluidsolve", "case", "case3", "--out", str(out)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert proc.returncode == EXIT_OK, proc.stderr
    for name in ("case3_PI.csv", "case3_GSl.csv", "case3_Jac.csv", "case3_GSa.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
