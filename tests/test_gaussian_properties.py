"""Property checks of the Gaussian bounds over random models.

Criterion 6 and the frozen cases check the outer bound against the additive
inner bound on one chain (correlations 0.8 and 0.6); here hypothesis draws
both correlations, signs included, and the rate pair.  The outer frontier,
the inner bound and the X1 - X2 - Y relevance are each nondecreasing in
each rate.  The X1 - X2 - Y rate R2 needed for a
relevance falls as R1 grows and rises with the relevance.  Runs are
derandomized (same examples every run) and keep no example database.
"""

from hypothesis import given, settings, strategies as st

from ibreg import (
    GaussianCdibModel,
    cdib_x1x2y_mu,
    cdib_x1x2y_r2,
    cdib_x1yx2_inner,
    cdib_x1yx2_outer_frontier,
)

correlation = st.floats(0.05, 0.95) | st.floats(-0.95, -0.05)
rate = st.floats(0.0, 2.5)
step = st.floats(0.0, 1.0)
derandomized = settings(max_examples=25, derandomize=True, deadline=None, database=None)

# each quantity with the chain constructor of its models
BOUNDS = {
    "outer": (cdib_x1yx2_outer_frontier, GaussianCdibModel.chain_x1_y_x2),
    "x1x2y": (cdib_x1x2y_mu, GaussianCdibModel.chain_x1_x2_y),
    "inner": (cdib_x1yx2_inner, GaussianCdibModel.chain_x1_y_x2),
}


@derandomized
@given(correlation, correlation, rate, rate)
def test_outer_frontier_dominates_inner(rho_x1y, rho_x2y, rate1, rate2):
    m = GaussianCdibModel.chain_x1_y_x2(rho_x1y, rho_x2y)
    outer = cdib_x1yx2_outer_frontier(m, rate1, rate2)
    inner = cdib_x1yx2_inner(m, rate1, rate2)
    assert outer >= inner - 1e-9


def _nondecreasing(name, rho_a, rho_b, rate1, rate2, step1, step2):
    fun, chain = BOUNDS[name]
    m = chain(rho_a, rho_b)
    here = fun(m, rate1, rate2)
    assert fun(m, rate1 + step1, rate2) >= here - 1e-9
    assert fun(m, rate1, rate2 + step2) >= here - 1e-9


@derandomized
@given(correlation, correlation, rate, rate, step, step)
def test_outer_frontier_nondecreasing_in_each_rate(rho_x1y, rho_x2y, rate1, rate2,
                                                   step1, step2):
    _nondecreasing("outer", rho_x1y, rho_x2y, rate1, rate2, step1, step2)


@derandomized
@given(correlation, correlation, rate, rate, step, step)
def test_x1x2y_mu_nondecreasing_in_each_rate(rho_x1x2, rho_x2y, rate1, rate2,
                                             step1, step2):
    _nondecreasing("x1x2y", rho_x1x2, rho_x2y, rate1, rate2, step1, step2)


@derandomized
@given(correlation, correlation, rate, rate, step, step)
def test_inner_nondecreasing_in_each_rate(rho_x1y, rho_x2y, rate1, rate2, step1, step2):
    _nondecreasing("inner", rho_x1y, rho_x2y, rate1, rate2, step1, step2)


@derandomized
@given(correlation, correlation, rate, step, st.floats(0.0, 0.999), st.floats(0.0, 1.0))
def test_x1x2y_r2_falls_with_r1_and_rises_with_mu(rho_x1x2, rho_x2y, rate1, step1, u, t):
    # relevances u * I(Y;X2) and a larger one, both below the limit
    m = GaussianCdibModel.chain_x1_x2_y(rho_x1x2, rho_x2y)
    mu = u * m.i_y_x2()
    here = cdib_x1x2y_r2(m, rate1, mu)
    assert cdib_x1x2y_r2(m, rate1 + step1, mu) <= here + 1e-12
    assert cdib_x1x2y_r2(m, rate1, mu + t * (0.999 * m.i_y_x2() - mu)) >= here - 1e-12
