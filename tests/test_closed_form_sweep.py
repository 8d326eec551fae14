"""Closed forms over a seeded sweep of valid models: a finite float or an
``IbregError``, never a raw ``ValueError`` or ``ZeroDivisionError``.

Each closed form divides by a difference that is positive below its limit
and takes the log of a ratio, so rounding near the limit, or an exact Markov
chain, can leave that difference or the numerator at 0.  The sweep draws
valid models with those edges made likely: two-way sides that are exactly
Markov, correlations near 0 and 1, relevances up to the float just below
their limit, and binary crossovers q down to 1e-19 (and 5e-324 for f at
r = 1).  The draws are seeded, so every run checks the same calls.
"""

import math

import numpy as np

from ibreg import binary, gaussian, h2
from ibreg.errors import IbregError


def _finite_or_ibreg_error(fn, *args):
    """``fn(*args)``, which must be a finite float (or a record whose floats
    are finite), or None for an ``IbregError``."""
    try:
        v = fn(*args)
    except IbregError:
        return None
    values = [v] if isinstance(v, float) else [x for x in vars(v).values()
                                               if isinstance(x, float)]
    assert all(math.isfinite(x) for x in values), (fn.__name__, args, v)
    return v


def _correlation(rng):
    """A correlation in (-1, 1) drawn from the bulk, near 0 or near +-1."""
    kind = rng.integers(3)
    if kind == 0:
        v = rng.uniform(0.02, 0.98)
    elif kind == 1:
        v = 10.0 ** rng.uniform(-9.0, -1.0)
    else:
        v = 1.0 - 10.0 ** rng.uniform(-15.0, -2.0)
    return float(v if rng.integers(2) else -v)


def _relevances(limit, rng):
    """Relevances from 0 up to the float just below ``limit``."""
    top = math.nextafter(limit, 0.0)
    return [0.0, limit * float(rng.uniform()), limit * (1.0 - 1e-9),
            math.nextafter(top, 0.0), top]


def _twcib_models(rng, n):
    """``n`` valid two-way models; two in three have a Markov side."""
    models = []
    while len(models) < n:
        a, b1, c1, b2, c2 = (_correlation(rng) for _ in range(5))
        markov = rng.integers(3)
        if markov in (1, 2):
            c1 = a * b1        # Y1 - X1 - X2 on side 2
        if markov == 2:
            c2 = a * b2        # Y2 - X2 - X1 on side 1
        try:
            models.append(gaussian.GaussianTwcibModel(a, b1, c1, b2, c2))
        except IbregError:
            continue
    return models


def test_twcib_rate_for_relevance_sweep():
    rng = np.random.default_rng(20261019)
    zeros = 0
    for m in _twcib_models(rng, 1500):
        for which in (1, 2):
            limit = gaussian.twcib_relevance_limit(m, which)
            for mu in _relevances(limit, rng):
                rate = _finite_or_ibreg_error(gaussian.twcib_rate_for_relevance, m, which, mu)
                assert rate is None or rate >= 0.0
                zeros += rate == 0.0
    assert zeros > 1500   # the Markov sides need no rate at any relevance


def test_cdib_x1x2y_r2_sweep():
    rng = np.random.default_rng(20261020)
    for _ in range(1500):
        m = gaussian.GaussianCdibModel.chain_x1_x2_y(_correlation(rng), _correlation(rng))
        for rate1 in (0.0, float(rng.uniform(0.0, 3.0)), 60.0, math.inf):
            for mu in _relevances(m.i_y_x2(), rng):
                rate2 = _finite_or_ibreg_error(gaussian.cdib_x1x2y_r2, m, rate1, mu)
                assert rate2 is None or rate2 >= 0.0


def _crossovers(rng, n):
    """``n`` (p, q) pairs with q from the bulk down to 1e-19, and the two
    pairs where R_c rounds to 0 and where f's first form divided by 0 at
    r = 1."""
    ps = rng.uniform(0.005, 0.495, n)
    qs = np.where(rng.integers(2, size=n) == 1, rng.uniform(0.005, 0.495, n),
                  10.0 ** rng.uniform(-19.0, -2.0, n))
    return [(float(p), float(q)) for p, q in zip(ps, qs)] + [(0.1, 1e-19), (0.1, 5e-324)]


def test_binary_closed_forms_sweep():
    rng = np.random.default_rng(20261021)
    for p, q in _crossovers(rng, 120):
        _finite_or_ibreg_error(binary.critical_point, p, q)
        hq = h2(q)
        for rate in (0.0, 1e-25, hq * float(rng.uniform()), math.nextafter(hq, 0.0)):
            assert _finite_or_ibreg_error(binary.mu_d, rate, p, q) is not None
            assert _finite_or_ibreg_error(binary.optimal_channel, rate, p, q) is not None
        for r in (0.0, float(rng.uniform()), 0.5, math.nextafter(1.0, 0.0), 1.0):
            assert _finite_or_ibreg_error(binary.f, r, p, q) is not None


