"""Property checks of the binary oracles over continuous (p, q, rate).

The fixed grids elsewhere test a few (p, q) pairs; here hypothesis draws
them from [0.02, 0.48]^2 with the rate anywhere in [0, h2(q)].  Runs are
derandomized (same examples every run) and keep no example database.
"""

from hypothesis import given, settings, strategies as st

from ibreg import h2, mu_d, mu_d_dual, mu_d_timeshare_oracle, mu_ed

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
