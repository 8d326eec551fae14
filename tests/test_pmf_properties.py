"""Property checks of the pmf algebra over random joint pmfs.

Hypothesis draws three-axis pmfs (alphabets of 2 to 4 symbols, Dirichlet
tables, some entries exactly zero) and channels.  Conditional quantities
are rebuilt from ``condition``, slice by slice, so each chain rule checks
the entropy and mutual-information functions against a second route, not
against their own algebra.  Runs are derandomized (same examples every run)
and keep no example database.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from ibreg import (
    Axis,
    Channel,
    JointPmf,
    compose_markov,
    condition,
    conditional_mutual_information as cmi,
    entropy,
    mutual_information as mi,
)

NAMES = ("a", "b", "c")
derandomized = settings(max_examples=40, derandomize=True, deadline=None, database=None)


@st.composite
def pmfs(draw):
    """A pmf on axes a, b, c; a small Dirichlet concentration skews it, and
    a zero mask leaves some entries exactly 0."""
    cards = draw(st.tuples(*[st.integers(2, 4)] * 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    t = rng.dirichlet(np.full(int(np.prod(cards)), draw(st.sampled_from([0.3, 1.0]))))
    if draw(st.booleans()):
        t[rng.random(t.size) < 0.25] = 0.0
        t[rng.integers(t.size)] += 1e-3   # never all zero
        t /= t.sum()
    return JointPmf(tuple(Axis(n, k) for n, k in zip(NAMES, cards)), t.reshape(cards))


orders = st.permutations(NAMES)


def _given(p, axis, fun):
    """sum over v of p(axis = v) * fun(p given axis = v), events of mass 0
    skipped."""
    masses = p.table.sum(axis=tuple(i for i in range(3) if NAMES[i] != axis))
    return sum(m * fun(condition(p, axis, v)) for v, m in enumerate(masses) if m > 1e-15)


@derandomized
@given(pmfs(), orders)
def test_entropy_chain_rule(p, order):
    # H(X, Y, Z) = H(X) + H(Y, Z | X), and H(X, Y) = H(X) + H(Y | X)
    x, y, z = order
    hx = entropy(p, [x])
    assert abs(entropy(p, NAMES) - hx - _given(p, x, lambda q: entropy(q, [y, z]))) <= 1e-12
    assert abs(entropy(p, [x, y]) - hx - _given(p, x, lambda q: entropy(q, [y]))) <= 1e-12


@derandomized
@given(pmfs(), orders)
def test_mutual_information_chain_rule(p, order):
    # I(X; Y, Z) = I(X; Z) + I(X; Y | Z), the last averaged over Z's slices
    x, y, z = order
    by_slices = _given(p, z, lambda q: mi(q, [x], [y]))
    assert abs(mi(p, [x], [y, z]) - mi(p, [x], [z]) - by_slices) <= 1e-12
    assert abs(cmi(p, [x], [y], [z]) - by_slices) <= 1e-12


@derandomized
@given(pmfs(), orders, st.integers(2, 4), st.integers(0, 2 ** 32 - 1))
def test_data_processing_through_compose_markov(p, order, card, seed):
    # V drawn from Y alone: I(X; V) <= I(X; Y), and I(X; V | Y) = 0
    x, y, _ = order
    rows = np.random.default_rng(seed).dirichlet(np.ones(card), size=p.card(y))
    q = compose_markov(p, Channel((y,), Axis("v", card), rows))
    assert mi(q, [x], ["v"]) <= mi(q, [x], [y]) + 1e-12
    assert cmi(q, [x], ["v"], [y]) <= 1e-12


@derandomized
@given(pmfs(), orders, st.integers(0, 2 ** 32 - 1))
def test_mutual_information_unchanged_by_relabelling(p, order, seed):
    # permuting the symbols of one axis leaves every information quantity
    x, y, z = order
    i = NAMES.index(x)
    perm = np.random.default_rng(seed).permutation(p.card(x))
    relabelled = JointPmf(p.axes, np.take(p.table, perm, axis=i))
    for a, b in (([x], [y]), ([y], [x, z]), ([y], [z])):
        assert abs(mi(relabelled, a, b) - mi(p, a, b)) <= 1e-12
    assert abs(cmi(relabelled, [y], [z], [x]) - cmi(p, [y], [z], [x])) <= 1e-12
