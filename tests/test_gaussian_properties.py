"""Property check of the Gaussian X1 - Y - X2 bounds over random models.

Criterion 6 and the frozen cases check the outer bound against the additive
inner bound on one chain (correlations 0.8 and 0.6); here hypothesis draws
both correlations, signs included, and the rate pair.  Runs are derandomized
(same examples every run) and keep no example database.
"""

from hypothesis import given, settings, strategies as st

from ibreg import GaussianCdibModel, cdib_x1yx2_inner, cdib_x1yx2_outer_frontier

correlation = st.floats(0.05, 0.95) | st.floats(-0.95, -0.05)
rate = st.floats(0.0, 2.5)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(correlation, correlation, rate, rate)
def test_outer_frontier_dominates_inner(rho_x1y, rho_x2y, rate1, rate2):
    m = GaussianCdibModel.chain_x1_y_x2(rho_x1y, rho_x2y)
    outer = cdib_x1yx2_outer_frontier(m, rate1, rate2)
    inner = cdib_x1yx2_inner(m, rate1, rate2)
    assert outer >= inner - 1e-9
