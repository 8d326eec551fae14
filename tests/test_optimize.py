"""Golden-section search: results and the tolerance check."""

import math

import pytest

from ibreg import ArgumentError
from ibreg.optimize import golden_max, golden_min


def _bounded_parabola(limit=10_000):
    # -(x - 0.3)^2, which raises after ``limit`` evaluations, so that a
    # search that would never end fails instead of hanging the test run
    calls = [0]

    def fun(x):
        calls[0] += 1
        if calls[0] > limit:
            raise RuntimeError("golden section did not stop")
        return -(x - 0.3) ** 2

    return fun


def test_golden_max_and_min_find_the_extremum():
    x, v = golden_max(_bounded_parabola(), 0.0, 1.0, tol=1e-10)
    assert x == pytest.approx(0.3, abs=1e-9)
    assert v == pytest.approx(0.0, abs=1e-18)
    fun = _bounded_parabola()
    x, v = golden_min(lambda t: -fun(t), 0.0, 1.0, tol=1e-10)
    assert x == pytest.approx(0.3, abs=1e-9)


@pytest.mark.parametrize("solver", [golden_max, golden_min])
@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
def test_golden_rejects_bad_tol(solver, tol):
    # NaN and inf ended the loop at once with the bracket's midpoint; 0 and
    # -1 never ended it
    with pytest.raises(ArgumentError, match="tol"):
        solver(_bounded_parabola(), 0.0, 1.0, tol=tol)
