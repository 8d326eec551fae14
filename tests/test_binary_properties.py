"""Property checks of the binary curves and oracles over continuous (p, q, rate).

The fixed grids elsewhere test a few (p, q) pairs; here hypothesis draws
them from [0.02, 0.48]^2 with the rate anywhere in [0, h2(q)] (or beyond,
where the curves saturate).  Runs are derandomized (same examples every
run) and keep no example database.
"""

from hypothesis import given, settings, strategies as st

from ibreg import f, g, h2, mu_d, mu_d_dual, mu_d_timeshare_oracle, mu_ed

crossover = st.floats(0.02, 0.48)
fraction = st.floats(0.0, 1.0)


def _settings(n):
    return settings(max_examples=n, derandomize=True, deadline=None, database=None)


@_settings(80)
@given(crossover, crossover, fraction)
def test_mu_d_dual_agrees_with_mu_d(p, q, u):
    rate = u * h2(q)
    assert abs(mu_d(rate, p, q) - mu_d_dual(rate, p, q)) <= 1e-6


@_settings(40)
@given(crossover, crossover, fraction)
def test_timeshare_oracle_below_mu_d(p, q, u):
    rate = u * h2(q)
    assert mu_d_timeshare_oracle(rate, p, q) <= mu_d(rate, p, q) + 1e-9


@_settings(150)
@given(crossover, crossover, st.floats(0.0, 1.2))
def test_mu_d_below_mu_ed(p, q, u):
    # u > 1 puts the rate beyond h2(q), where both curves saturate
    rate = u * h2(q)
    assert mu_d(rate, p, q) <= mu_ed(rate, p, q) + 1e-12


@_settings(100)
@given(crossover, crossover, fraction)
def test_f_and_g_symmetric_about_one_half(p, q, r):
    assert abs(f(r, p, q) - f(1.0 - r, p, q)) <= 1e-12
    assert abs(g(r, q) - g(1.0 - r, q)) <= 1e-12


@_settings(60)
@given(crossover, crossover, st.floats(0.0, 1.2), st.floats(0.0, 1.2), fraction)
def test_mu_d_nondecreasing_and_concave_in_the_rate(p, q, u, v, t):
    # rates up to 1.2 h2(q) take in the saturated part
    lo, hi = sorted((u * h2(q), v * h2(q)))
    mid = lo + t * (hi - lo)
    m_lo, m_mid, m_hi = mu_d(lo, p, q), mu_d(mid, p, q), mu_d(hi, p, q)
    assert m_lo <= m_mid + 1e-12 and m_mid <= m_hi + 1e-12
    assert m_mid >= (1.0 - t) * m_lo + t * m_hi - 1e-9


@_settings(100)
@given(crossover, crossover, st.floats(0.0, 1.2))
def test_mu_d_below_its_saturation(p, q, u):
    assert mu_d(u * h2(q), p, q) <= 1.0 - h2(p)
