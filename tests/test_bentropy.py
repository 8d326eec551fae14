"""Scalar binary-entropy utilities.

Frozen reference values were computed independently with 50-digit
arithmetic (mpmath) from the defining expressions.
"""

import math

import numpy as np
import pytest

from ibreg import DomainError, gerber_bound, h2, h2_arr, h2_inv, star
from ibreg.bentropy import _h2, _star, _xlog2x

H2_01 = 0.46899559358928122      # h2(0.1)
H2_018 = 0.68007704572827984     # h2(0.18)
H2INV_0468996 = 0.10000012820834888
GERBER_0469_01 = 0.68007947849069621

# repr of h2, h2_inv and the kernel _h2 as printed when _h2 looped over
# (x, 1 - x); the loop-free kernel must reproduce them bit for bit
H2_FROZEN = [
    (0.1, 0.4689955935892812),
    (0.3, 0.8812908992306927),
    (1e-05, 0.00018052328301819962),
    (0.77, 0.7780113035465376),
]
H2_INV_FROZEN = [
    (0.3, 0.05323904077679681),
    (0.468996, 0.10000012820834886),
    (0.9, 0.31601934632360773),
    (1e-06, 3.834490369734704e-08),
]
H2_KERNEL_EDGES_FROZEN = [
    (0.0, 0.0),
    (0.5, 1.0),
    (1.0, 0.0),
    (5e-324, 5.306e-321),               # smallest subnormal; 1 - x rounds to 1
    (1e-300, 9.965784284662087e-298),
    (1.0 - 2.0 ** -53, 6.0443533557040756e-15),  # largest float below 1
]


def test_h2_endpoints_and_midpoint():
    assert h2(0.5) == 1.0
    assert h2(0.0) == 0.0
    assert h2(1.0) == 0.0
    assert h2(0.1) == pytest.approx(H2_01, abs=1e-15)
    assert h2(0.9) == pytest.approx(H2_01, abs=1e-15)  # symmetry


def test_h2_domain():
    with pytest.raises(DomainError):
        h2(-0.01)
    with pytest.raises(DomainError):
        h2(1.01)


def test_h2_arr_matches_scalar():
    xs = np.linspace(0.0, 1.0, 101)
    assert np.allclose(h2_arr(xs), [h2(x) for x in xs], atol=1e-15)


def _ref_h2_arr(x):
    # h2_arr before it was built on bentropy._xlog2x
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for v in (x, 1.0 - x):
        m = v > 0.0
        out -= np.where(m, v * np.log2(np.where(m, v, 1.0)), 0.0)
    return out


def test_h2_arr_equals_reference_bytes():
    edges = [0.0, 1.0, 0.5, 5e-324, 1e-300, 1.0 - 2.0 ** -53]
    draws = np.random.default_rng(8).uniform(0.0, 1.0, 2000)
    xs = np.concatenate([edges, draws])
    assert h2_arr(xs).tobytes() == _ref_h2_arr(xs).tobytes()
    # no 0 or 1: x and 1 - x both take _xlog2x's unmasked path
    assert 0.0 < draws.min() and draws.max() < 1.0
    assert h2_arr(draws).tobytes() == _ref_h2_arr(draws).tobytes()
    for x in edges:
        got, ref = h2_arr(x), _ref_h2_arr(x)
        assert got.shape == ref.shape == ()
        assert got.tobytes() == ref.tobytes()


def _masked_xlog2x(m):
    # _xlog2x's masked path, which every input took before the unmasked one
    out = np.zeros_like(m)
    np.log2(m, out=out, where=m > 0.0)
    return m * out


def test_xlog2x_unmasked_path_equals_masked_bytes():
    rng = np.random.default_rng(9)
    arrays = [rng.uniform(1e-300, 1.0, n) for n in range(1, 70)]
    arrays += [rng.dirichlet(np.ones(7), size=(50, 2, 3)),
               np.array([5e-324, 1e-300, 0.5, 1.0, 3.0, np.inf]),
               np.asarray(0.25)]
    for m in arrays:
        assert m.min() > 0.0
        assert _xlog2x(m).tobytes() == _masked_xlog2x(m).tobytes()
    # a zero or NaN keeps the masked path: 0 log 0 = 0, NaN stays NaN
    m = np.array([0.0, 0.25, np.nan, 1.0])
    out = _xlog2x(m)
    assert out[0] == 0.0 and out[1] == -0.5 and np.isnan(out[2]) and out[3] == 0.0


@pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)])
def test_h2_arr_empty(shape):
    # an empty array has no min; it takes the masked path
    assert h2_arr(np.empty(shape)).shape == shape
    assert _xlog2x(np.empty(shape)).shape == shape
    assert h2_arr([]).shape == (0,)


@pytest.mark.parametrize("x", [math.nan, [0.25, math.nan], 2.0, -1.0, math.inf, -math.inf,
                               [0.25, 1.0 + 1e-11]],
                         ids=["nan", "nan-entry", "2", "-1", "inf", "-inf", "past-spill"])
def test_h2_arr_rejects_non_probabilities(x):
    # NaN gave NaN, 2.0 and -1.0 gave -2.0, inf gave NaN with a numpy warning
    with pytest.raises(DomainError):
        h2_arr(x)


def test_h2_arr_clamps_rounding_spill():
    # the probability rule of h2: a spill of up to 1e-12 is clamped
    assert h2_arr(1.0 + 1e-13) == h2_arr(-1e-13) == 0.0
    got = h2_arr([-1e-13, 0.25, 1.0 + 1e-12])
    assert got.tobytes() == h2_arr([0.0, 0.25, 1.0]).tobytes()
    assert got[1] == h2(0.25)


def test_h2_inv_round_trip():
    for x in np.linspace(0.0, 0.5, 57):
        assert h2_inv(h2(x)) == pytest.approx(x, abs=1e-9)
    # 0.468996 is h2(0.1) rounded to 6 digits: its true preimage is not 0.1
    assert h2_inv(0.468996) == pytest.approx(H2INV_0468996, abs=1e-9)
    assert abs(h2(h2_inv(0.3)) - 0.3) <= 1e-12


def test_h2_inv_domain():
    with pytest.raises(DomainError):
        h2_inv(1.5)
    with pytest.raises(DomainError):
        h2_inv(-0.2)


def test_star_special_values():
    for b in (0.0, 0.2, 0.5, 0.9):
        assert star(0.5, b) == pytest.approx(0.5, abs=1e-15)
        assert star(0.0, b) == b
        assert star(1.0, b) == pytest.approx(1.0 - b, abs=1e-15)


def test_star_commutative_and_associative(rng):
    for _ in range(200):
        a, b, c = rng.random(3)
        assert star(a, b) == pytest.approx(star(b, a), abs=1e-12)
        assert star(a, star(b, c)) == pytest.approx(star(star(a, b), c), abs=1e-12)


def test_star_domain():
    with pytest.raises(DomainError):
        star(1.2, 0.1)


def test_gerber_bound_endpoints():
    # deterministic input: bound collapses to the channel entropy
    assert gerber_bound(0.0, 0.1) == pytest.approx(h2(0.1), abs=1e-12)
    # uniform input: output stays uniform
    assert gerber_bound(1.0, 0.1) == pytest.approx(1.0, abs=1e-12)
    assert gerber_bound(0.469, 0.1) == pytest.approx(GERBER_0469_01, abs=1e-9)
    # at H = h2(q) exactly the bound is h2(q * p)
    assert gerber_bound(h2(0.1), 0.1) == pytest.approx(H2_018, abs=1e-10)


def test_gerber_bound_range():
    for hh in np.linspace(0.0, 1.0, 41):
        v = gerber_bound(hh, 0.1)
        assert h2(0.1) - 1e-12 <= v <= 1.0 + 1e-12


def test_gerber_bound_domain():
    with pytest.raises(DomainError):
        gerber_bound(0.5, 0.7)
    with pytest.raises(DomainError):
        gerber_bound(1.2, 0.1)


def test_bits_are_log2():
    # convention check: a fair coin is exactly one bit
    assert h2(0.5) == 1.0
    assert math.log2(2.0) == 1.0


def test_kernels_equal_public_twins():
    # the unchecked kernels hold the only copy of each formula: on in-domain
    # input the public function must return exactly the kernel's value
    xs = np.concatenate([[0.0, 1e-300, 0.5, 1.0], np.linspace(0.0, 1.0, 257)])
    for x in xs:
        x = float(x)
        assert _h2(x) == h2(x)
        for b in (0.0, 1e-300, 0.1, 0.5, 1.0):
            assert _star(x, b) == star(x, b)


def test_frozen_bits():
    for x, expected in H2_FROZEN:
        assert h2(x) == expected
    for y, expected in H2_INV_FROZEN:
        assert h2_inv(y) == expected
    for x, expected in H2_KERNEL_EDGES_FROZEN:
        assert _h2(x) == expected


@pytest.mark.parametrize("fn,args", [
    pytest.param(h2, (math.nan,), id="h2"),
    pytest.param(star, (math.nan, 0.1), id="star-a"),
    pytest.param(star, (0.1, math.nan), id="star-b"),
    pytest.param(h2_inv, (math.nan,), id="h2_inv"),
    pytest.param(gerber_bound, (math.nan, 0.1), id="gerber_bound-h"),
    pytest.param(gerber_bound, (0.5, math.nan), id="gerber_bound-p"),
])
def test_nan_rejected(fn, args):
    with pytest.raises(DomainError):
        fn(*args)
