"""Finite-alphabet probability algebra and information functionals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ibreg import (
    ArgumentError,
    Axis,
    AxisError,
    Channel,
    DegenerateEventError,
    DomainError,
    JointPmf,
    compose_markov,
    condition,
    conditional_mutual_information as cmi,
    entropy,
    h2,
    marginalize,
    mutual_information as mi,
)
from conftest import random_channel, random_pmf

H2_01 = 0.46899559358928122
MU0 = 0.31992295427172016          # 1 - h2(0.18)
CMI_X1_Y_GIVEN_X2 = 0.21108145213899862   # h2(0.18) - h2(0.1)


def dsbs(crossover):
    """Doubly symmetric binary pair with the given crossover."""
    r = crossover
    t = 0.5 * np.array([[1 - r, r], [r, 1 - r]])
    return JointPmf((Axis("a", 2), Axis("b", 2)), t)


def binary_chain(q, p):
    """x2 -> x1 -> y chain: X1 = X2 xor Bern(q), Y = X1 xor Bern(p)."""
    t = np.zeros((2, 2, 2))
    for x2 in range(2):
        for x1 in range(2):
            for y in range(2):
                pz = q if x1 != x2 else 1 - q
                pw = p if y != x1 else 1 - p
                t[x1, x2, y] = 0.5 * pz * pw
    return JointPmf((Axis("x1", 2), Axis("x2", 2), Axis("y", 2)), t)


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------


def test_construction_renormalises_small_deviation():
    t = np.array([0.5, 0.5]) * (1 + 2e-10)
    p = JointPmf((Axis("a", 2),), t)
    assert p.table.sum() == pytest.approx(1.0, abs=1e-12)


def test_construction_rejects_large_deviation():
    with pytest.raises(DomainError):
        JointPmf((Axis("a", 2),), np.array([0.6, 0.5]))


def test_construction_rejects_negative_and_bad_shape():
    with pytest.raises(DomainError):
        JointPmf((Axis("a", 2),), np.array([1.1, -0.1]))
    with pytest.raises(ArgumentError):
        JointPmf((Axis("a", 3),), np.array([0.5, 0.5]))


def _ref_joint_table(table):
    # JointPmf's table check and renormalisation before JointPmf and Channel
    # shared one helper
    table = np.asarray(table, dtype=float)
    total = float(table.sum())
    if abs(total - 1.0) > 1e-9:
        raise DomainError("sum")
    if abs(total - 1.0) > 1e-15:
        table = table / total
    return np.ascontiguousarray(table, dtype=float)


def _ref_channel_table(table):
    # Channel's, from the same commit
    table = np.asarray(table, dtype=float)
    sums = table.sum(axis=-1)
    worst = float(np.abs(sums - 1.0).max())
    if worst > 1e-9:
        raise DomainError("sum")
    if worst > 1e-15:
        table = table / sums[..., None]
    return np.ascontiguousarray(table, dtype=float)


_ULP = math.ulp(1.0)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=3),
       st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, _ULP, 1e-12, 1e-10, 1e-8]),
       st.booleans())
def test_table_check_equals_reference_bits(cards, seed, dev, transpose):
    # the joint table's mass and each channel slice's mass are off by +-dev;
    # transposed (non-contiguous) inputs, with the channel's output axis
    # kept last, take the same path
    rng = np.random.default_rng(seed)
    cards = tuple(cards)
    base = rng.dirichlet(np.ones(cards[-1]), size=cards[:-1])
    raw = base * (1.0 + dev * rng.choice([-1.0, 1.0], size=cards[:-1] + (1,)))
    joint = base * ((1.0 + dev * rng.choice([-1.0, 1.0])) / float(np.prod(cards[:-1])))
    if transpose:
        raw = raw.transpose(*range(raw.ndim - 2, -1, -1), raw.ndim - 1)
        joint = joint.T
    names = [f"a{i}" for i in range(raw.ndim)]
    cases = [
        (_ref_joint_table, lambda t: JointPmf(tuple(zip(names, t.shape)), t), joint),
        (_ref_channel_table, lambda t: Channel(tuple(names[:-1]), (names[-1], t.shape[-1]), t),
         raw),
    ]
    for ref, build, table in cases:
        # each build gets a copy in the input's memory order, so transposed
        # inputs reach the constructors non-contiguous
        if dev > 1e-9:
            with pytest.raises(DomainError):
                build(table.copy(order="K"))
            with pytest.raises(DomainError):
                ref(table)
            continue
        got = build(table.copy(order="K")).table
        want = ref(table)
        assert got.shape == want.shape and not got.flags.writeable
        assert got.tobytes() == want.tobytes()


def test_constructors_leave_the_callers_array_alone():
    # the check froze a contiguous float input in place and kept it as the table
    t = np.array([0.25, 0.75])
    pmf = JointPmf((Axis("a", 2),), t)
    c = np.array([[0.2, 0.8], [0.5, 0.5]])
    ch = Channel(("a",), Axis("v", 2), c)
    for mine, table in ((t, pmf.table), (c, ch.table)):
        assert mine.flags.writeable and table is not mine
        assert not table.flags.writeable
        before = table.copy()
        mine[...] = 0.0
        assert table.tobytes() == before.tobytes()


@pytest.mark.parametrize("shape", [(0, 2), (2, 0, 3), (0, 0, 1)])
def test_channel_rejects_zero_length_input_axis(shape):
    # a zero-size table reached numpy's max of an empty array (ValueError)
    inputs = tuple(f"a{i}" for i in range(len(shape) - 1))
    with pytest.raises(DomainError, match="zero-length"):
        Channel(inputs, Axis("v", shape[-1]), np.zeros(shape))


def test_duplicate_axis_names_rejected():
    with pytest.raises(AxisError):
        JointPmf((Axis("a", 2), Axis("a", 2)), np.full((2, 2), 0.25))


def test_tables_are_immutable():
    p = dsbs(0.2)
    with pytest.raises(ValueError):
        p.table[0, 0] = 0.3


def test_json_round_trip(rng):
    p = random_pmf(rng, (2, 3, 2))
    q = JointPmf.from_json(p.to_json())
    assert q.axis_names == p.axis_names
    assert np.allclose(q.table, p.table, atol=1e-15)


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_uniform_binary():
    p = JointPmf((Axis("a", 2),), np.array([0.5, 0.5]))
    assert entropy(p, ["a"]) == pytest.approx(1.0, abs=1e-15)


def test_entropy_point_mass():
    p = JointPmf((Axis("a", 3),), np.array([0.0, 1.0, 0.0]))
    assert entropy(p, ["a"]) == 0.0


def test_entropy_bern01_marginal():
    p = JointPmf((Axis("a", 2), Axis("b", 2)),
                 np.outer([0.1, 0.9], [0.5, 0.5]))
    assert entropy(p, ["a"]) == pytest.approx(H2_01, abs=1e-12)


def test_entropy_errors():
    p = dsbs(0.2)
    with pytest.raises(AxisError):
        entropy(p, ["nope"])
    with pytest.raises(ArgumentError):
        entropy(p, [])


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------


def test_mi_product_is_zero(rng):
    pa = rng.dirichlet(np.ones(3))
    pb = rng.dirichlet(np.ones(4))
    p = JointPmf((Axis("a", 3), Axis("b", 4)), np.outer(pa, pb))
    assert mi(p, ["a"], ["b"]) == pytest.approx(0.0, abs=1e-12)


def test_mi_copied_axis_equals_entropy():
    marg = np.array([0.2, 0.3, 0.5])
    t = np.diag(marg)
    p = JointPmf((Axis("a", 3), Axis("b", 3)), t)
    assert mi(p, ["a"], ["b"]) == pytest.approx(entropy(p, ["a"]), abs=1e-12)


def test_mi_dsbs_018():
    assert mi(dsbs(0.18), ["a"], ["b"]) == pytest.approx(MU0, abs=1e-12)


def test_mi_overlap_rejected():
    p = binary_chain(0.1, 0.1)
    with pytest.raises(ArgumentError):
        mi(p, ["x1", "x2"], ["x2"])


# ---------------------------------------------------------------------------
# conditional mutual information
# ---------------------------------------------------------------------------


def test_cmi_empty_conditioner_degenerates_to_mi(rng):
    p = random_pmf(rng, (2, 3))
    assert cmi(p, ["a0"], ["a1"], []) == mi(p, ["a0"], ["a1"])


def test_mi_equals_cmi_with_empty_conditioner(rng):
    # mutual_information delegates to conditional_mutual_information; the
    # values must be those of I(A;B) = H(A) + H(B) - H(A,B) bit for bit
    for cards in ((2, 2), (2, 3, 2), (3, 1, 4), (2, 2, 2, 3)):
        for _ in range(10):
            p = random_pmf(rng, cards)
            names = p.axis_names
            a, b = names[:1], names[1:]
            got = mi(p, a, b)
            assert got == cmi(p, a, b, ())
            raw = entropy(p, a) + entropy(p, b) - entropy(p, a + b)
            assert got == (0.0 if -1e-10 < raw < 0.0 else raw)
            assert mi(p, b, a) == cmi(p, b, a, ())


def test_cmi_markov_chain_is_zero():
    p = binary_chain(0.1, 0.1)
    # x2 - x1 - y is a Markov chain
    assert cmi(p, ["x2"], ["y"], ["x1"]) <= 1e-12


def test_cmi_binary_chain_value():
    p = binary_chain(0.1, 0.1)
    # independent oracle: brute-force sum over the 8-cell joint table
    t = p.table
    brute = 0.0
    for x1 in range(2):
        for x2 in range(2):
            for y in range(2):
                pj = t[x1, x2, y]
                if pj == 0:
                    continue
                pc = t[:, x2, :].sum()
                pac = t[x1, x2, :].sum()
                pbc = t[:, x2, y].sum()
                brute += pj * math.log2(pj * pc / (pac * pbc))
    got = cmi(p, ["x1"], ["y"], ["x2"])
    assert got == pytest.approx(brute, abs=1e-12)
    assert got == pytest.approx(CMI_X1_Y_GIVEN_X2, abs=1e-12)


def test_cmi_overlap_rejected():
    p = binary_chain(0.1, 0.1)
    with pytest.raises(ArgumentError):
        cmi(p, ["x1"], ["x2"], ["x1"])


def test_chain_rule_random(rng):
    for _ in range(100):
        p = random_pmf(rng, tuple(rng.integers(2, 4, size=3)))
        a, b, c = [[n] for n in p.axis_names]
        lhs = mi(p, a, b + c)
        rhs = mi(p, a, c) + cmi(p, a, b, c)
        assert lhs == pytest.approx(rhs, abs=1e-9)
        assert lhs >= 0.0 and cmi(p, a, b, c) >= 0.0


# ---------------------------------------------------------------------------
# channel composition
# ---------------------------------------------------------------------------


def test_compose_identity_copies():
    p = dsbs(0.2)
    q = compose_markov(p, Channel.bsc("a", "v", 0.0))
    assert mi(q, ["v"], ["a"]) == pytest.approx(entropy(p, ["a"]), abs=1e-12)


def test_compose_constant_is_independent():
    p = dsbs(0.2)
    q = compose_markov(p, Channel.constant([("a", 2)], "v"))
    assert mi(q, ["v"], ["a"]) == 0.0
    assert mi(q, ["v"], ["b"]) == 0.0


def test_compose_bsc_closed_form():
    p = dsbs(0.3)  # a is Bern(1/2)
    for r in (0.05, 0.2, 0.45):
        q = compose_markov(p, Channel.bsc("a", "v", r))
        assert mi(q, ["a"], ["v"]) == pytest.approx(1.0 - h2(r), abs=1e-12)


def test_compose_rejects_name_collision():
    p = dsbs(0.2)
    with pytest.raises(AxisError):
        compose_markov(p, Channel.bsc("a", "b", 0.1))


def test_compose_preserves_marginal_and_markov(rng):
    for _ in range(50):
        cards = tuple(rng.integers(2, 4, size=3))
        p = random_pmf(rng, cards)
        inputs = [p.axis_names[0]]
        ch = random_channel(rng, inputs, [cards[0]], "v", int(rng.integers(2, 5)))
        q = compose_markov(p, ch)
        back = marginalize(q, p.axis_names)
        assert np.abs(back.table - p.table).max() <= 2e-15
        others = [n for n in p.axis_names if n not in inputs]
        assert cmi(q, ["v"], others, inputs) <= 1e-10


def test_channel_slice_normalisation():
    with pytest.raises(DomainError):
        Channel(("a",), Axis("v", 2), np.array([[0.7, 0.7], [0.5, 0.5]]))


# ---------------------------------------------------------------------------
# marginalize / condition
# ---------------------------------------------------------------------------


def test_marginalize_all_axes_is_identity(rng):
    p = random_pmf(rng, (2, 3))
    q = marginalize(p, p.axis_names)
    assert np.array_equal(q.table, p.table)


def test_marginalize_product_factor(rng):
    pa = rng.dirichlet(np.ones(3))
    pb = rng.dirichlet(np.ones(2))
    p = JointPmf((Axis("a", 3), Axis("b", 2)), np.outer(pa, pb))
    assert np.allclose(marginalize(p, ["b"]).table, pb, atol=1e-15)


def test_condition_uniform_pair():
    p = JointPmf((Axis("a", 2), Axis("b", 2)), np.full((2, 2), 0.25))
    q = condition(p, "a", 0)
    assert q.axis_names == ("b",)
    assert np.allclose(q.table, [0.5, 0.5], atol=1e-15)


def test_condition_zero_probability_event():
    p = JointPmf((Axis("a", 2), Axis("b", 2)),
                 np.array([[0.5, 0.5], [0.0, 0.0]]))
    with pytest.raises(DegenerateEventError):
        condition(p, "a", 1)


def test_condition_bad_value():
    p = dsbs(0.2)
    with pytest.raises(DomainError):
        condition(p, "a", 5)


@pytest.mark.parametrize("card", [2.5, math.nan, math.inf, -math.inf])
def test_axis_rejects_non_integral_card(card):
    # 2.5 became card 2 silently, and NaN raised a bare ValueError
    with pytest.raises(ArgumentError, match="cardinality"):
        Axis("x", card)


def test_axis_accepts_integral_card():
    for card in (3, 3.0, np.int64(3)):
        axis = Axis("x", card)
        assert axis.card == 3 and type(axis.card) is int


@pytest.mark.parametrize("value", [1.7, 0.5, math.nan, math.inf])
def test_condition_rejects_non_integral_value(value):
    # 1.7 conditioned on value 1 silently
    with pytest.raises(DomainError, match="value"):
        condition(dsbs(0.2), "a", value)


def test_condition_accepts_integral_value():
    p = dsbs(0.2)
    ref = condition(p, "a", 1)
    for value in (1.0, np.int64(1)):
        assert np.array_equal(condition(p, "a", value).table, ref.table)


def _many_axes(n):
    return JointPmf(tuple(Axis(f"a{i}", 1) for i in range(n)), np.ones((1,) * n))


@pytest.mark.parametrize("call, error, message", [
    (lambda: Axis("", 2), AxisError, "nonempty string"),
    (lambda: JointPmf((Axis("a", 2),), np.array([math.nan, 1.0])), DomainError, "non-finite"),
    (lambda: Channel(("a", "a"), Axis("v", 2), np.full((2, 2, 2), 0.5)), AxisError,
     "duplicate channel input"),
    (lambda: Channel(("a",), Axis("v", 2), np.full((2, 2, 2), 0.5)), ArgumentError, "dims"),
    (lambda: Channel(("a",), Axis("v", 3), np.full((2, 2), 0.5)), ArgumentError,
     "last table dim"),
    (lambda: Channel.bsc("a", "v", 1.5), DomainError, "crossover"),
    (lambda: Channel.bsc("a", "v", 0.1, 1), DomainError, "at least two"),
    (lambda: entropy(dsbs(0.2), ["a", "a"]), ArgumentError, "repeated axis"),
    (lambda: cmi(dsbs(0.2), [], ["b"]), ArgumentError, "nonempty A"),
    (lambda: compose_markov(JointPmf((Axis("a", 3),), np.full(3, 1 / 3)),
                            Channel.bsc("a", "v", 0.1)), ArgumentError, "channel expects"),
    (lambda: compose_markov(_many_axes(52), Channel.constant([("a0", 1)], "v")),
     ArgumentError, "too many axes"),
    (lambda: marginalize(dsbs(0.2), []), ArgumentError, "nonempty axis subset"),
], ids=["empty-axis-name", "non-finite-table", "duplicate-channel-inputs",
        "channel-table-ndim", "channel-last-dim", "bsc-crossover", "bsc-one-symbol",
        "repeated-axis", "cmi-empty-a", "compose-card-mismatch", "compose-too-many-axes",
        "marginalize-empty"])
def test_malformed_input_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("out_card", [2.5, math.nan, math.inf, 0, -1])
@pytest.mark.parametrize("make", [
    lambda c: Channel.bsc("x1", "v", 0.1, out_card=c),
    lambda c: Channel.constant([("x1", 2)], "v", out_card=c),
], ids=["bsc", "constant"])
def test_channel_constructors_reject_bad_out_card(make, out_card):
    # the table was sized before the output axis was checked: 2.5 and NaN
    # raised TypeError, 0 an IndexError
    with pytest.raises(ArgumentError, match="cardinality"):
        make(out_card)
