import numpy as np
import pytest

from ibreg import Axis, Channel, JointPmf, binary, gaussian


@pytest.fixture(autouse=True)
def _fresh_model_memos():
    # mu_d_dual's memo and the inner bound's first round outlive a call:
    # start every test without them, so that no test's evaluation counts or
    # values depend on which tests ran before
    binary._dual_memo.cache_clear()
    gaussian._inner_first_round.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240521)


def random_pmf(rng, cards, names=None):
    """Dirichlet-random joint pmf over the given cardinalities."""
    names = names or [f"a{i}" for i in range(len(cards))]
    t = rng.dirichlet(np.ones(int(np.prod(cards)))).reshape(cards)
    return JointPmf(tuple(Axis(n, c) for n, c in zip(names, cards)), t)


def random_channel(rng, input_axes, input_cards, out_name, out_card):
    t = rng.dirichlet(np.ones(out_card), size=tuple(input_cards))
    return Channel(tuple(input_axes), Axis(out_name, out_card), t)
