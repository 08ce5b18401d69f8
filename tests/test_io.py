import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fluidsolve import (
    EquivalenceReport,
    ParseError,
    SparseColumnMatrix,
    StoppingRule,
    UpdateSequence,
    load_case,
    read_matrix_market,
    read_vector,
    run_diffusion,
    uniform_vector,
    write_trace_csv,
)
from fluidsolve import cli
from fluidsolve.cli import EXIT_OK, RunConfig, cancellation_report, main, run_verification
from fluidsolve.diffusion import _Trace
from fluidsolve.io import CSV_CHUNK, STEP_ROW, TRACE_HEADER, write_csv
from helpers import perfbench_graphs, seeded_link_matrix

HEADER = "%%MatrixMarket matrix coordinate real general\n"
CASE1_MM = """%%MatrixMarket matrix coordinate real general
% five-node cycle with a split at node 5
5 5 6
2 1 1.0
3 2 1.0
4 3 1.0
5 4 1.0
1 5 0.5
2 5 0.5
"""


class TestMatrixMarket:
    def test_round_trip_matches_builtin_case(self, tmp_path):
        path = tmp_path / "case1.mtx"
        path.write_text(CASE1_MM)
        m = read_matrix_market(path)
        np.testing.assert_array_equal(m.to_dense(), load_case("case1").q.to_dense())

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.mtx"
        path.write_text("")
        with pytest.raises(ParseError, match=r":1: empty file"):
            read_matrix_market(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1 2\n")
        with pytest.raises(ParseError, match=r":1: unsupported format"):
            read_matrix_market(path)

    def test_missing_size_line(self, tmp_path):
        path = tmp_path / "nosize.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n% only comments\n")
        with pytest.raises(ParseError, match="missing size line"):
            read_matrix_market(path)

    @pytest.mark.parametrize("size, message", [
        ("2 2 2 x", "size line must be 'rows cols nnz'"),
        ("2 x 2", "non-integer size line '2 x 2'"),
        ("2 2 -1", "dimensions must be positive"),
    ])
    def test_bad_size_line_reports_line(self, tmp_path, size, message):
        path = tmp_path / "size.mtx"
        path.write_text(f"{HEADER}% c\n{size}\n1 1 1.0\n")
        with pytest.raises(ParseError, match=rf"size.mtx:3: {message}"):
            read_matrix_market(path)

    def test_non_square(self, tmp_path):
        path = tmp_path / "rect.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n")
        with pytest.raises(ParseError, match=r":2: matrix must be square"):
            read_matrix_market(path)

    def test_entry_out_of_range_reports_line(self, tmp_path):
        path = tmp_path / "range.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n")
        with pytest.raises(ParseError, match=r":3: entry \(3, 1\)"):
            read_matrix_market(path)

    def test_duplicate_entry_reports_both_lines(self, tmp_path):
        path = tmp_path / "dup.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1 1 2.0\n"
        )
        with pytest.raises(ParseError, match=r":4: duplicate entry \(1, 1\), first seen on line 3"):
            read_matrix_market(path)

    def test_wrong_entry_count(self, tmp_path):
        path = tmp_path / "short.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n")
        with pytest.raises(ParseError, match="expected 2 entries, found 1"):
            read_matrix_market(path)

    def test_too_many_entries(self, tmp_path):
        path = tmp_path / "long.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 1.0\n"
        )
        with pytest.raises(ParseError, match="more than the declared 1"):
            read_matrix_market(path)

    def test_malformed_entry(self, tmp_path):
        path = tmp_path / "junk.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n")
        with pytest.raises(ParseError, match=r":3: malformed entry"):
            read_matrix_market(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        path = tmp_path / "nan.mtx"
        path.write_text(
            f"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 1 {value}\n"
        )
        with pytest.raises(ParseError, match=rf"nan.mtx:4: non-finite value '{value}'"):
            read_matrix_market(path)

    def _read(self, tmp_path, text: str):
        path = tmp_path / "m.mtx"
        path.write_bytes(text.encode())
        return read_matrix_market(path)

    def test_crlf_line_endings(self, tmp_path):
        m = self._read(tmp_path, CASE1_MM.replace("\n", "\r\n"))
        np.testing.assert_array_equal(m.to_dense(), load_case("case1").q.to_dense())

    def test_comment_and_blank_lines_between_entries(self, tmp_path):
        text = HEADER + "% c\n\n3 3 2\n  % between\n1 1 1.0\n\n \t \n%x\n3 2 0.5\n% last"
        m = self._read(tmp_path, text)
        np.testing.assert_array_equal(m.to_dense(), [[1.0, 0, 0], [0, 0, 0], [0, 0.5, 0]])

    @pytest.mark.parametrize("between, reads", [(" \n\t\n\n", 1), ("% note\n \n  %\n", 2)])
    def test_lines_between_entries_give_the_matrix_without_them(self, tmp_path, monkeypatch,
                                                                 between, reads):
        # blank lines are read straight from the file; a comment line sends the
        # entries to a second read without the blank and comment lines
        path = tmp_path / "g.mtx"
        perfbench_graphs().make_graph(path, 200, 1)
        want = read_matrix_market(path)
        header, size, *entries = path.read_text().splitlines(keepends=True)
        text = header + size + between + "".join(
            line + (between if k % 10 == 9 else "") for k, line in enumerate(entries))
        real_loadtxt, calls = np.loadtxt, []

        def counting_loadtxt(*args, **kwargs):
            calls.append(None)
            return real_loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
        got = self._read(tmp_path, text)
        assert len(calls) == reads
        for name in ("indptr", "rows", "vals"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_tabs_as_separators(self, tmp_path):
        m = self._read(tmp_path, HEADER + "2\t2\t2\n1\t1\t1.0\n \t2 \t1\t 0.5\t\n")
        np.testing.assert_array_equal(m.to_dense(), [[1.0, 0.0], [0.5, 0.0]])

    def test_no_entries_is_silent(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = self._read(tmp_path, HEADER + "3 3 0\n\n% nothing stored\n")
        assert m.n == 3 and m.nnz == 0

    def test_trailing_comment_on_entry_line_is_rejected(self, tmp_path):
        with pytest.raises(ParseError, match=r":4: entry line must be 'row col value'"):
            self._read(tmp_path, HEADER + "2 2 2\n1 1 1.0\n2 1 0.5 % note\n")

    @pytest.mark.parametrize(
        "entry", ["1_0 1 1.0", "1.0 1 1.0", "2.5 1 1.0", "1 1e0 1.0", "99999999999999999999 1 1.0"]
    )
    def test_index_that_is_not_an_int64_is_malformed(self, tmp_path, entry):
        # n = 20, so an index read as 10, 1 or 2 would lie inside the matrix
        with pytest.raises(ParseError, match=rf":3: malformed entry '{entry}'"):
            self._read(tmp_path, HEADER + f"20 20 1\n{entry}\n")

    def test_index_numpy_would_truncate_is_malformed(self, tmp_path, monkeypatch):
        # numpy releases from 1.23 read "2.5" into an int64 field as 2 and only emit a
        # DeprecationWarning; when that warning is an error they raise ValueError instead
        real_loadtxt = np.loadtxt

        def truncating_loadtxt(lines, *args, **kwargs):
            rows = [line.split() for line in lines]
            if any("." in tok for row in rows for tok in row[:2]):
                try:
                    warnings.warn("loadtxt(): Parsing an integer via a float", DeprecationWarning)
                except DeprecationWarning as exc:
                    raise ValueError("could not convert string to int64") from exc
            rows = [[str(int(float(t))) for t in row[:2]] + row[2:] for row in rows]
            return real_loadtxt([" ".join(row) for row in rows], *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
        with pytest.raises(ParseError, match=r":4: malformed entry '2.5 1 1.0'"):
            self._read(tmp_path, HEADER + "3 3 2\n1 1 1.0\n2.5 1 1.0\n")
        m = self._read(tmp_path, HEADER + "3 3 2\n1 1 1.0\n2 1 1.0\n")
        np.testing.assert_array_equal(m.to_dense()[:, 0], [1.0, 1.0, 0.0])

    def test_first_of_two_bad_lines_is_named(self, tmp_path):
        with pytest.raises(ParseError, match=r":4: entry \(3, 1\) outside 1..2"):
            self._read(tmp_path, HEADER + "2 2 3\n1 1 1.0\n3 1 1.0\n1 x 2.0\n")

    @pytest.mark.parametrize("bad, message", [("991 x 1.0", "malformed entry '991 x 1.0'"),
                                              ("991 991 nan", "non-finite value 'nan'")])
    def test_bad_entry_is_located_with_few_parses(self, tmp_path, monkeypatch, bad, message):
        entries = [f"{k} {k} 1.0" for k in range(1, 1001)]
        entries[990] = bad  # on line 993
        real_loadtxt, calls = np.loadtxt, []

        def counting_loadtxt(*args, **kwargs):
            calls.append(None)
            return real_loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
        with pytest.raises(ParseError, match=rf":993: {message}"):
            self._read(tmp_path, HEADER + "1000 1000 1000\n" + "\n".join(entries) + "\n")
        assert len(calls) <= 16

    def test_duplicate_stored_zero_is_rejected(self, tmp_path):
        with pytest.raises(ParseError, match=r":4: duplicate entry \(1, 1\), first seen on line 3"):
            self._read(tmp_path, HEADER + "2 2 2\n1 1 0.0\n1 1 2.0\n")

    def test_seeded_graph_reads_back_bitwise(self, tmp_path):
        graphs = perfbench_graphs()
        rows, cols, vals = graphs.make_graph(tmp_path / "g.mtx", 2000, 1)
        m = read_matrix_market(tmp_path / "g.mtx")
        ref = SparseColumnMatrix.from_entries(2000, rows, cols, vals)
        for name in ("indptr", "rows", "vals"):
            got, want = getattr(m, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    def test_seeded_graph_read_peaks_below_56_bytes_a_nonzero(self, tmp_path):
        graphs = perfbench_graphs()
        graphs.write_matrix_market(tmp_path / "g.mtx", 2000, *graphs.link_matrix(2000, 1))
        read_matrix_market(tmp_path / "g.mtx")  # first-call costs stay out of the peak
        tracemalloc.start()
        try:
            m = read_matrix_market(tmp_path / "g.mtx")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 48.5 bytes a nonzero: loadtxt's records with copies of their fields, then the
        # fields with the sort key, its order and the sorted key; a build that kept its
        # temporaries to the end, over the records, peaked at 82.6
        assert peak < 56 * m.nnz, f"peak {peak / m.nnz:.1f} bytes a nonzero"


class TestVectorFile:
    def test_reads_one_real_per_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("0.2\n-1.5\n\n3e-2\n")
        np.testing.assert_array_equal(read_vector(path), [0.2, -1.5, 0.03])

    def test_bad_line_number(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("1.0\nnope\n")
        with pytest.raises(ParseError, match=r":2: not a number"):
            read_vector(path)

    def test_empty_vector_file(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("\n")
        with pytest.raises(ParseError, match="empty vector file"):
            read_vector(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        path = tmp_path / "v.txt"
        path.write_text(f"1.0\n\n{value}\n")
        with pytest.raises(ParseError, match=rf"v.txt:3: non-finite value '{value}'"):
            read_vector(path)


def step_csv(header, rows):
    """A step-and-three-doubles CSV as ``str`` and ``format(x, ".17g")`` render it."""
    lines = [",".join([str(int(k))] + [format(float(x), ".17g") for x in rest]) for k, *rest in rows]
    return "\n".join([header, *lines]) + "\n"


class TestTraceCsv:
    def test_header_and_full_precision(self, tmp_path):
        records = [(0, 0.15, 0.0, 0.0), (1, 0.1275, 1.0 / 3.0, 0.0045)]
        path = tmp_path / "trace.csv"
        write_trace_csv(path, records)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,residual_l1,cancelled,contracted"
        assert lines[1] == "0,0.14999999999999999,0,0"
        fields = lines[2].split(",")
        assert fields[0] == "1"
        assert float(fields[2]) == 1.0 / 3.0  # 17 significant digits round-trip

    def test_trace_row_format_on_edge_values(self, tmp_path):
        values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 1e16, 0.1]
        records = [(k, x, values[-1 - k], -x) for k, x in enumerate(values)]
        records += [(np.int64(8), np.float64(0.1), np.float64(-0.0), np.float64(5e-324)),
                    (10**12, 1.0 / 3.0, 2.5e-300, 123456789.0)]
        write_trace_csv(tmp_path / "trace.csv", records)
        expected = step_csv("step,residual_l1,cancelled,contracted", records)
        assert (tmp_path / "trace.csv").read_text() == expected
        lines = expected.splitlines()
        assert lines[1] == "0,nan,0.10000000000000001,nan"
        assert lines[4] == "3,-0,4.9406564584124654e-324,0"

    @pytest.mark.parametrize("count", [1, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1, 2 * CSV_CHUNK + 1])
    def test_trace_array_bytes_across_chunks(self, tmp_path, count):
        edges = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1.0 / 3.0]
        rows = np.array(edges * (3 * count // len(edges) + 1))[:3 * count].reshape(count, 3)
        trace = _Trace()
        trace.extend(rows)
        write_trace_csv(tmp_path / "trace.csv", trace)
        want = "".join(STEP_ROW % (k, *row) + "\n" for k, row in enumerate(rows.tolist()))
        assert (tmp_path / "trace.csv").read_bytes() == (TRACE_HEADER + "\n" + want).encode()

    def test_trace_writing_memory_does_not_grow_with_rows(self, clu_path, tmp_path):
        # 100,000 rows; the whole text and its row strings took about 16 MB
        n, steps = 200, 100_000
        m, seq = seeded_link_matrix(n, 1).scaled(0.85), UpdateSequence.round_robin(n)
        run = run_diffusion(m, 0.15 * uniform_vector(n), seq, StoppingRule(tol=None, max_steps=steps))
        tracemalloc.start()
        try:
            write_trace_csv(tmp_path / "trace.csv", run.trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(run.trace) == steps + 1
        # a chunk's row strings, text and encoded bytes and 4,096 rows as Python numbers:
        # about 260 bytes a row
        bound = 400 * CSV_CHUNK
        assert peak < bound, f"peak {peak / 2**20:.2f} MB, bound {bound / 2**20:.2f} MB"
        assert (tmp_path / "trace.csv").read_text().count("\n") == steps + 2

    def test_verify_csv_format(self, tmp_path, monkeypatch):
        peaks = {"PI": 0.1, "GSl": math.nan, "Jac": 5e-324, "GSa": 0.0}

        def report(spec, n_steps):
            return EquivalenceReport(spec.kind, n_steps, np.float64(peaks[spec.kind]))

        monkeypatch.setattr(cli, "verify_equivalence", report)
        reports = run_verification(RunConfig(iterations=3), tmp_path / "verify.csv")
        expected = ["scheme,steps,max_discrepancy"]
        expected += [f"{r.scheme},{str(int(r.steps))},{format(float(r.max_discrepancy), '.17g')}"
                     for r in reports]
        assert len(expected) == 17
        assert (tmp_path / "verify.csv").read_text() == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("name, scheme, seq", [
        ("case4", "PI", "roundrobin"), ("case1", "GSl", "5,4,3,2,1")])  # the second is all 0/0
    def test_cancel_report_format(self, tmp_path, name, scheme, seq):
        args = ["cancel-report", name, "--scheme", scheme, "--steps", "10", "--seq", seq]
        assert main([*args, "--out", str(tmp_path)]) == EXIT_OK
        summary = cancellation_report(load_case(name), scheme, 10, seq_spec=seq)
        text = (tmp_path / f"{name}_{scheme}_cancellation.csv").read_text()
        assert text == step_csv("step,cancelled,contracted,fraction", summary.per_step)
        assert any(math.isnan(frac) for *_, frac in summary.per_step) == (scheme == "GSl")

    def test_doubles_round_trip(self, tmp_path):
        bits = np.random.default_rng(0).integers(0, 2**64, size=2000, dtype=np.uint64)
        values = [x for x in bits.view(np.float64).tolist() if math.isfinite(x)]
        values += [0.1, 1.0 / 3.0, 1e-300, 123456.789, 0.0, -0.0, 5e-324, 1.7976931348623157e308]
        write_csv(tmp_path / "doubles.csv", "x", "%.17g", [(x,) for x in values])
        lines = (tmp_path / "doubles.csv").read_text().splitlines()
        assert lines[0] == "x" and len(lines) == 1 + len(values)
        for line, x in zip(lines[1:], values):
            assert float(line).hex() == x.hex()
