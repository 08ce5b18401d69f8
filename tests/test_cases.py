import numpy as np
import pytest

from fluidsolve import BUILTIN_CASES, cases, load_case


def test_builtin_names():
    assert BUILTIN_CASES == ("case1", "case2", "case3", "case4")


def test_case1_structure():
    q = load_case("case1").q
    rows, vals = q.column(0)
    np.testing.assert_array_equal(rows, [1])
    np.testing.assert_array_equal(vals, [1.0])
    rows, vals = q.column(4)
    np.testing.assert_array_equal(rows, [0, 1])
    np.testing.assert_array_equal(vals, [0.5, 0.5])


def test_case4_structure():
    q = load_case("case4").q
    rows, vals = q.column(4)
    np.testing.assert_array_equal(rows, [0, 4])
    np.testing.assert_array_equal(vals, [0.01, 0.99])
    # the chain 1->2->3->4->5
    for j in range(4):
        rows, vals = q.column(j)
        np.testing.assert_array_equal(rows, [j + 1])
        np.testing.assert_array_equal(vals, [1.0])


@pytest.mark.parametrize("name", BUILTIN_CASES)
def test_columns_sum_to_exactly_one(name):
    q = load_case(name).q
    for j in range(q.n):
        _, vals = q.column(j)
        assert float(vals.sum()) == 1.0


@pytest.mark.parametrize("name", BUILTIN_CASES)
def test_damping_and_description(name):
    case = load_case(name)
    assert case.d == 0.85
    assert f"* {name} -- " in cases.__doc__  # the module docstring describes every case


def test_unknown_case():
    with pytest.raises(ValueError, match="unknown case"):
        load_case("case9")
