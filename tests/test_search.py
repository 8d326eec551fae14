"""Channel-stack evaluators, corner points, envelope, and the seeded search."""

import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import ibreg
from ibreg import (
    ArgumentError,
    Axis,
    AxisError,
    BinaryModel,
    CardinalityError,
    Channel,
    ComparisonError,
    DomainError,
    EnvelopePoint,
    RegionCurve,
    RoundSchedule,
    StructureError,
    check_inclusion,
    corner_points_outer,
    envelope_value,
    evaluate_cdib_inner,
    evaluate_twcib,
    f,
    g,
    h2,
    mu_d,
    mu_ed,
    optimal_channel,
    search_mu_int,
    search_mu_int_detailed,
    upper_concave_envelope,
)
from ibreg.pmf import (
    compose_markov,
    conditional_mutual_information as cmi,
    entropy,
    mutual_information as mi,
)
from ibreg.search import (
    _ROW_BLOCK,
    _baseline_block,
    _drawn_blocks,
    _evaluate_blocks,
    _int_source,
    _pairwise_sum,
)
from conftest import random_channel, random_pmf

P = Q = 0.1
MU0 = 0.31992295427172016
TOP = 0.53100440641071878
MODEL = BinaryModel(P, Q)


def _evaluate_batch(q0, chans):
    # the search kernel on a (B, |x2|, |v1|, |v2|) array of channel tables,
    # each block of rows copied once into its batch-last layout
    b = len(chans)
    blocks = (np.ascontiguousarray(chans[lo:lo + _ROW_BLOCK].transpose(1, 2, 3, 0))
              for lo in range(0, b, _ROW_BLOCK))
    return _evaluate_blocks(q0, blocks, b)


def _baseline_chans():
    # the baseline rates and their channels as a contiguous (B, |x2|, |v1|,
    # |v2|) array: the reference kernel's einsum sums in an order that
    # follows the layout
    rs, block = _baseline_block(3)
    return rs, np.ascontiguousarray(block.transpose(3, 0, 1, 2))


def bsc_stack(r, out_card_v1=2):
    v1 = Channel.bsc("x1", "v1", r, out_card_v1)
    v2 = Channel.constant([("x2", 2), ("v1", out_card_v1)], "v2")
    return RoundSchedule(1, (v1, v2))


# ---------------------------------------------------------------------------
# schedule validation
# ---------------------------------------------------------------------------


def test_schedule_accepts_valid_two_rounds(rng):
    v11 = random_channel(rng, ["x1"], [2], "v11", 3)
    v21 = random_channel(rng, ["x2", "v11"], [2, 3], "v21", 4)
    v12 = random_channel(rng, ["x1", "v11", "v21"], [2, 3, 4], "v12", 5)
    v22 = random_channel(rng, ["x2", "v11", "v21", "v12"], [2, 3, 4, 5], "v22", 7)
    sched = RoundSchedule(2, (v11, v21, v12, v22))
    assert sched.description_names() == ("v11", "v21", "v12", "v22")


def test_schedule_rejects_wrong_inputs(rng):
    v1 = random_channel(rng, ["x2"], [2], "v1", 2)  # encoder 1 must see x1
    v2 = random_channel(rng, ["x2", "v1"], [2, 2], "v2", 2)
    with pytest.raises(StructureError):
        RoundSchedule(1, (v1, v2))


def test_schedule_rejects_missing_history(rng):
    v1 = random_channel(rng, ["x1"], [2], "v1", 2)
    v2 = random_channel(rng, ["x2"], [2], "v2", 2)  # must also condition on v1
    with pytest.raises(StructureError):
        RoundSchedule(1, (v1, v2))


def test_duplicate_description_names_rejected(rng):
    # a repeated description name collides with the conditioning set of a
    # later channel that sees it, so the error surfaces at channel construction
    with pytest.raises(AxisError):
        random_channel(rng, ["x2", "v"], [2, 2], "v", 2)


_V1 = Channel.constant([("x1", 2)], "v1")


@pytest.mark.parametrize("channels, error, message", [
    ((_V1,), ArgumentError, "2K"),
    ((Channel.constant([("x1", 2)], "v"), Channel.constant([("x2", 2)], "v")),
     AxisError, "duplicate"),
    ((_V1, Channel.constant([("x2", 2), ("v1", 1)], "x1")), AxisError, "collide"),
    ((_V1, Channel.constant([("x2", 2), ("v1", 3)], "v2")), StructureError,
     r"expects \|v1\| = 3"),
], ids=["channel-count", "duplicate-names", "source-axis-name", "description-card"])
def test_schedule_rejects_malformed(channels, error, message):
    with pytest.raises(error, match=message):
        RoundSchedule(1, channels)


def test_evaluator_cardinality_bounds(rng):
    # K=1: |v1| <= |x1| + 3 = 5 and |v2| <= |x2||v1| + 1 in both regions.
    # The schedule is built either way; the evaluator applies the bound
    tw, bc = MODEL.twcib_source(), MODEL.half_round_source()
    v1 = random_channel(rng, ["x1"], [2], "v1", 6)
    sched = RoundSchedule(1, (v1, random_channel(rng, ["x2", "v1"], [2, 6], "v2", 2)))
    for evaluate, src in ((evaluate_twcib, tw), (evaluate_cdib_inner, bc)):
        with pytest.raises(CardinalityError, match=r"\|v1\| = 6 exceeds bound 5"):
            evaluate(src, sched)
    v1 = random_channel(rng, ["x1"], [2], "v1", 2)
    sched = RoundSchedule(1, (v1, random_channel(rng, ["x2", "v1"], [2, 2], "v2", 6)))
    for evaluate, src in ((evaluate_twcib, tw), (evaluate_cdib_inner, bc)):
        with pytest.raises(CardinalityError, match=r"\|v2\| = 6 exceeds bound 5"):
            evaluate(src, sched)
    sched = RoundSchedule(1, (v1, random_channel(rng, ["x2", "v1"], [2, 2], "v2", 5)))
    evaluate_twcib(tw, sched)
    evaluate_cdib_inner(bc, sched)


def test_each_evaluator_applies_its_own_bound(rng):
    # K=2: a first-round |v11| = 6 is past the two-way bound |x1| + 3 = 5 and
    # within the broadcast bound |x1| + 4 = 6
    v11 = random_channel(rng, ["x1"], [2], "v11", 6)
    v21 = random_channel(rng, ["x2", "v11"], [2, 6], "v21", 2)
    v12 = random_channel(rng, ["x1", "v11", "v21"], [2, 6, 2], "v12", 2)
    v22 = random_channel(rng, ["x2", "v11", "v21", "v12"], [2, 6, 2, 2], "v22", 2)
    sched = RoundSchedule(2, (v11, v21, v12, v22))
    with pytest.raises(CardinalityError, match=r"\|v11\| = 6 exceeds bound 5"):
        evaluate_twcib(MODEL.twcib_source(), sched)
    src = MODEL.half_round_source()
    pt = evaluate_cdib_inner(src, sched)
    q = src
    for ch in sched.channels:
        q = compose_markov(q, ch)
    assert pt.mu == mi(q, ["y"], ["v11", "v21", "v12", "v22"])


# ---------------------------------------------------------------------------
# two-way evaluator
# ---------------------------------------------------------------------------


def test_twcib_constant_channels():
    src = MODEL.twcib_source()
    v1 = Channel.constant([("x1", 2)], "v1")
    v2 = Channel.constant([("x2", 2), ("v1", 1)], "v2")
    pt = evaluate_twcib(src, RoundSchedule(1, (v1, v2)))
    assert pt.r1 == pytest.approx(0.0, abs=1e-12)
    assert pt.r2 == pytest.approx(0.0, abs=1e-12)
    assert pt.mu1 == pytest.approx(mi(src, ["y1"], ["x1"]), abs=1e-12)
    assert pt.mu2 == pytest.approx(mi(src, ["y2"], ["x2"]), abs=1e-12)


def test_twcib_identity_limit():
    src = MODEL.twcib_source()
    pt = evaluate_twcib(src, bsc_stack(0.0))
    # full description: R1 = H(X1|X2) = h2(q)
    h_x1_given_x2 = entropy(src, ["x1", "x2"]) - entropy(src, ["x2"])
    assert h_x1_given_x2 == pytest.approx(h2(Q), abs=1e-12)
    assert pt.r1 == pytest.approx(h_x1_given_x2, abs=1e-9)
    assert pt.mu2 == pytest.approx(mi(src, ["y2"], ["x1", "x2"]), abs=1e-12)


def test_twcib_bsc_matches_f_g():
    src = MODEL.twcib_source()
    for r in np.linspace(0.01, 0.5, 25):
        pt = evaluate_twcib(src, bsc_stack(float(r)))
        assert pt.r1 == pytest.approx(g(r, Q), abs=1e-9)
        assert pt.mu2 == pytest.approx(MU0 + f(r, P, Q), abs=1e-9)
        assert pt.r2 == pytest.approx(0.0, abs=1e-10)


def test_twcib_relabeling_invariance(rng):
    src = MODEL.twcib_source()
    t1 = rng.dirichlet(np.ones(3), size=2)
    t2 = rng.dirichlet(np.ones(4), size=(2, 3))
    v1 = Channel(("x1",), Axis("v1", 3), t1)
    v2 = Channel(("x2", "v1"), Axis("v2", 4), t2)
    base = evaluate_twcib(src, RoundSchedule(1, (v1, v2)))
    # permute v1's symbols consistently (output columns and downstream slices)
    perm = [2, 0, 1]
    v1p = Channel(("x1",), Axis("v1", 3), t1[:, perm])
    v2p = Channel(("x2", "v1"), Axis("v2", 4), t2[:, perm, :])
    pt = evaluate_twcib(src, RoundSchedule(1, (v1p, v2p)))
    for a, b in ((base.r1, pt.r1), (base.r2, pt.r2),
                 (base.mu1, pt.mu1), (base.mu2, pt.mu2)):
        assert a == pytest.approx(b, abs=1e-12)


def test_twcib_data_processing(rng):
    src = MODEL.twcib_source()
    cap1 = mi(src, ["y1"], ["x1", "x2"])
    cap2 = mi(src, ["y2"], ["x1", "x2"])
    for _ in range(10):
        v1 = random_channel(rng, ["x1"], [2], "v1", int(rng.integers(2, 5)))
        v2 = random_channel(rng, ["x2", "v1"], [2, v1.output.card], "v2",
                            int(rng.integers(2, 5)))
        pt = evaluate_twcib(src, RoundSchedule(1, (v1, v2)))
        assert pt.mu1 <= cap1 + 1e-10
        assert pt.mu2 <= cap2 + 1e-10


# ---------------------------------------------------------------------------
# broadcast inner evaluator
# ---------------------------------------------------------------------------


def test_cdib_constant_channels():
    src = MODEL.half_round_source()
    v1 = Channel.constant([("x1", 2)], "v1")
    v2 = Channel.constant([("x2", 2), ("v1", 1)], "v2")
    pt = evaluate_cdib_inner(src, RoundSchedule(1, (v1, v2)))
    assert (pt.r1, pt.r2, pt.sum_rate, pt.mu) == (0.0, 0.0, 0.0, 0.0)


def test_cdib_k1_matches_remark_form(rng):
    src = MODEL.half_round_source()
    for _ in range(10):
        v1 = random_channel(rng, ["x1"], [2], "v1", 3)
        v2 = random_channel(rng, ["x2", "v1"], [2, 3], "v2", 4)
        pt = evaluate_cdib_inner(src, RoundSchedule(1, (v1, v2)))
        q = compose_markov(compose_markov(src, v1), v2)
        assert pt.r2 == pytest.approx(cmi(q, ["x2"], ["v2"], ["v1"]), abs=1e-10)
        assert pt.r1 == pytest.approx(cmi(q, ["x1"], ["v1", "v2"], ["x2"]), abs=1e-10)
        assert pt.sum_rate >= max(pt.r1, pt.r2) - 1e-10
        assert pt.mu == pytest.approx(mi(q, ["y"], ["v1", "v2"]), abs=1e-12)


def test_cdib_sum_rate_dominates_on_random_sources(rng):
    for _ in range(10):
        src = random_pmf(rng, (2, 2, 2), names=["x1", "x2", "y"])
        v1 = random_channel(rng, ["x1"], [2], "v1", 2)
        v2 = random_channel(rng, ["x2", "v1"], [2, 2], "v2", 2)
        pt = evaluate_cdib_inner(src, RoundSchedule(1, (v1, v2)))
        assert pt.sum_rate >= pt.r1 - 1e-10


# ---------------------------------------------------------------------------
# corner points
# ---------------------------------------------------------------------------


def test_corner_points_constants():
    src = MODEL.half_round_source()
    u1 = Channel.constant([("x1", 2)], "u1")
    u2 = Channel.constant([("u1", 1), ("x2", 2)], "u2")
    pts = corner_points_outer(src, u1, u2)
    for pt in pts:
        assert abs(pt.r1) <= 1e-12 and abs(pt.r2) <= 1e-12 and abs(pt.mu) <= 1e-12


def test_corner_points_structure(rng):
    src = MODEL.half_round_source()
    u1 = random_channel(rng, ["x1"], [2], "u1", 3)
    u2 = random_channel(rng, ["u1", "x2"], [3, 2], "u2", 3)
    q1, q2, q3, q4 = corner_points_outer(src, u1, u2)
    assert q1.mu == q2.mu                        # shared relevance coordinate
    assert q3.r2 == 0.0 and q4.r2 == 0.0
    # independent evaluation path for the fourth corner's relevance
    q = compose_markov(compose_markov(src, u1), u2)
    expect = (cmi(q, ["x1"], ["u1"], ["x2"])
              - cmi(q, ["u1", "u2"], ["x1", "x2"], ["y"]))
    assert q4.mu == pytest.approx(expect, abs=1e-9)


def _ref_corner_points(source, u1, u2):
    # the corner expressions as written before each term was computed once
    q = compose_markov(compose_markov(source, u1), u2)
    a, b = u1.output.name, u2.output.name
    x1, x2, y = ["x1"], ["x2"], ["y"]
    mu12 = mi(q, y, [a, b])
    return (
        (cmi(q, x1, [a], x2), mi(q, [a, b], x2),
         cmi(q, x1, [a], x2) + mi(q, [a, b], x2), mu12),
        (mi(q, x1, [a]), cmi(q, x2, [b], [a]),
         mi(q, x1, [a]) + cmi(q, x2, [b], [a]), mu12),
        (mi(q, x1, [a]), 0.0, mi(q, x1, [a]),
         mi(q, y, [a]) - cmi(q, x2, [b], [a] + y)),
        (cmi(q, x1, [a], x2), 0.0, cmi(q, x1, [a], x2),
         cmi(q, x1, [a], x2) - cmi(q, [a, b], x1 + x2, y)),
    )


def test_corner_points_equal_reference_bits(rng):
    for i in range(20):
        if i % 2:
            src = random_pmf(rng, (2, 2, 2), names=["x1", "x2", "y"])
        else:
            src = MODEL.half_round_source()
        u1_card, u2_card = (int(k) for k in rng.integers(1, 5, size=2))
        u1 = random_channel(rng, ["x1"], [2], "u1", u1_card)
        u2 = random_channel(rng, ["u1", "x2"], [u1_card, 2], "u2", u2_card)
        got = [(pt.r1, pt.r2, pt.sum_rate, pt.mu)
               for pt in corner_points_outer(src, u1, u2)]
        assert got == list(_ref_corner_points(src, u1, u2))


def test_corner_points_take_unbounded_auxiliaries(rng):
    # |u1| = 7 and |u2| = 20 are past both regions' one-round bounds,
    # |x1| + 3 = 5 and |x2| |u1| + 1 = 15
    src = MODEL.half_round_source()
    u1 = random_channel(rng, ["x1"], [2], "u1", 7)
    u2 = random_channel(rng, ["u1", "x2"], [7, 2], "u2", 20)
    got = [(pt.r1, pt.r2, pt.sum_rate, pt.mu) for pt in corner_points_outer(src, u1, u2)]
    assert got == list(_ref_corner_points(src, u1, u2))


def test_corner_points_reject_bad_structure(rng):
    src = MODEL.half_round_source()
    # U1 on x2, then a U2 on x2 alone
    for u1_inputs, u2_inputs in ((["x2"], ["u1", "x2"]), (["x1"], ["x2"])):
        u1 = random_channel(rng, u1_inputs, [2], "u1", 2)
        u2 = random_channel(rng, u2_inputs, [2] * len(u2_inputs), "u2", 2)
        with pytest.raises(StructureError):
            corner_points_outer(src, u1, u2)


def test_evaluators_reject_a_source_without_their_axes():
    # the half-round source has axes (x1, x2, y): no y1/y2 for the two-way
    # evaluator
    with pytest.raises(AxisError, match="y1"):
        evaluate_twcib(MODEL.half_round_source(), bsc_stack(0.1))


# ---------------------------------------------------------------------------
# upper concave envelope
# ---------------------------------------------------------------------------


def test_envelope_collinear():
    pts = [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (0.25, 0.25)]
    env = upper_concave_envelope(pts)
    assert [(p.x, p.y) for p in env] == [(0.0, 0.0), (1.0, 1.0)]


def test_envelope_concave_curve_keeps_all():
    xs = np.linspace(0.0, 1.0, 20)
    pts = list(zip(xs, np.sqrt(xs)))
    env = upper_concave_envelope(pts)
    assert len(env) == 20


def test_envelope_random_clouds_vs_bruteforce(rng):
    for _ in range(30):
        xs = rng.random(100)
        ys = rng.random(100)
        env = upper_concave_envelope(zip(xs, ys))
        # every point lies on or below the envelope
        assert np.all(ys <= envelope_value(env, xs) + 1e-12)
        # quadratic oracle: a point is a vertex iff no chord of the cloud
        # passes strictly above it at its abscissa
        ex = np.array([p.x for p in env])
        ey = np.array([p.y for p in env])
        assert np.all(np.diff(ex) > 0.0)
        slopes = np.diff(ey) / np.diff(ex)
        assert np.all(np.diff(slopes) < 0.0)
        for vx, vy in zip(ex, ey):
            above = 0
            for i in range(100):
                for j in range(i + 1, 100):
                    if xs[i] == xs[j]:
                        continue
                    lo, hi = sorted((xs[i], xs[j]))
                    if lo <= vx <= hi:
                        t = (vx - xs[i]) / (xs[j] - xs[i])
                        if ys[i] + t * (ys[j] - ys[i]) > vy + 1e-9:
                            above += 1
            assert above == 0


def test_envelope_idempotent(rng):
    pts = list(zip(rng.random(50), rng.random(50)))
    env1 = upper_concave_envelope(pts)
    env2 = upper_concave_envelope([(p.x, p.y) for p in env1])
    assert [(p.x, p.y) for p in env1] == [(p.x, p.y) for p in env2]


def test_envelope_value_flat_beyond_ends_and_nan_rejected():
    env = upper_concave_envelope([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)])
    assert envelope_value(env, -5.0) == 0.0 and envelope_value(env, 7.0) == 1.0
    assert list(envelope_value(env, [-np.inf, 0.5, np.inf])) == [0.0, 0.5, 1.0]
    # NaN passed through as NaN
    for x in (np.nan, [0.5, np.nan]):
        with pytest.raises(DomainError):
            envelope_value(env, x)


def test_envelope_argument_errors():
    with pytest.raises(ArgumentError):
        upper_concave_envelope([(0.0, 0.0)])
    with pytest.raises(ArgumentError):
        upper_concave_envelope([(0.0, 0.0), (0.0, 1.0)])
    with pytest.raises(ArgumentError):
        upper_concave_envelope([(0.0, np.nan), (1.0, 0.0)])
    env = upper_concave_envelope([(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(ArgumentError, match="at least one point"):
        envelope_value([], 0.5)
    with pytest.raises(ArgumentError, match="array of numbers"):   # a ragged nesting
        envelope_value(env, [[0.1], [0.2, 0.3]])
    # hand-built envelopes: a non-finite point gave nan or inf, and the
    # unsorted (1, 0), (0, 1) gave 1.0 at x = 0.5
    for bad in ([(0.0, 0.0), (1.0, np.nan)], [(0.0, 0.0), (np.inf, 1.0)],
                [(0.0, -np.inf), (1.0, 1.0)], [(1.0, 0.0), (0.0, 1.0)],
                [(0.0, 0.0), (0.0, 1.0)], [(0.0, 0.0), ("1", 1.0)]):
        with pytest.raises(ArgumentError, match="envelope"):
            envelope_value([EnvelopePoint(x, y) for x, y in bad], 0.5)


# ---------------------------------------------------------------------------
# seeded search
# ---------------------------------------------------------------------------


GRID = np.linspace(0.0, h2(Q), 16)


def test_search_endpoints_and_bounds():
    pts = search_mu_int(MODEL, GRID, budget=4000, seed=11)
    assert pts[0].y == pytest.approx(MU0, abs=1e-12)
    assert pts[-1].y == pytest.approx(TOP, abs=1e-10)
    for pt in pts:
        assert pt.y <= mu_ed(pt.x, P, Q) + 1e-9


def test_search_deterministic_and_thread_invariant():
    a = search_mu_int(MODEL, GRID, budget=3000, seed=5)
    b = search_mu_int(MODEL, GRID, budget=3000, seed=5)
    c = search_mu_int(MODEL, GRID, budget=3000, seed=5, threads=3)
    assert [(p.x, p.y) for p in a] == [(p.x, p.y) for p in b]
    assert [(p.x, p.y) for p in a] == [(p.x, p.y) for p in c]


def test_search_budget_monotone():
    # a budget prefix keeps a subset of the sampled cloud, so its envelope
    # never lies above the larger budget's; the budgets cross the edges of
    # the 8,192-row sampling chunks
    for p, q in ((P, Q), (0.05, 0.3), (0.2, 0.45)):
        model, grid = BinaryModel(p, q), np.linspace(0.0, h2(q), 16)
        prev = None
        for budget in (1, 8191, 8193, 20_000, 50_001):
            ys = [pt.y for pt in search_mu_int(model, grid, budget=budget, seed=5)]
            if prev is not None:
                assert all(b >= a - 1e-15 for a, b in zip(prev, ys)), (p, q, budget)
            prev = ys


def test_search_records():
    # a record's origin names its channel: evaluating the batch it came from
    # again gives the record's rate and relevance bit for bit
    budget = 10_000
    pts, recs = search_mu_int_detailed(MODEL, GRID, budget=budget, seed=5)
    assert recs[0].origin == "anchor:constant"
    v1 = optimal_channel(h2(Q), P, Q).to_channel("v1", out_card=3)
    q0 = compose_markov(_int_source(MODEL), v1).table
    base_rs, base_block = _baseline_block(3)
    baseline = _evaluate_blocks(q0, (base_block,), len(base_rs))
    chunks = {}
    for r in recs[1:]:
        kind, _, where = r.origin.partition(":")
        if kind == "sample":
            j, k = map(int, where.split("/"))
            if j not in chunks:
                chunks[j] = _evaluate_batch(q0, _sample_chunk(5, j)[:budget - j * 8192])
            rates, rels = chunks[j]
        else:
            assert kind == "baseline"
            k = [f"r={x:.6g}" for x in base_rs].index(where)
            rates, rels = baseline
        assert (rates[k], rels[k]) == (r.rate, r.relevance)
    assert sorted(chunks) == [0, 1]


def test_search_frees_each_chunk_once_evaluated():
    # keeping every 2.75 MB chunk of draws until the end of the search
    # peaked at 25.8 MiB here, and drawing each chunk whole at 4.89 MiB;
    # drawing one 1,024-row block at a time peaks at 2.64 MiB
    search_mu_int(MODEL, GRID, budget=8192, seed=5)   # warm-up: caches and imports
    tracemalloc.start()
    try:
        search_mu_int(MODEL, GRID, budget=8 * 8192, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2 ** 20


def _search_peak(budget):
    tracemalloc.start()
    try:
        search_mu_int(MODEL, GRID, budget=budget, seed=5, threads=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_search_memory_does_not_grow_with_budget():
    # holding every chunk's rates and relevances until the last chunk was in
    # grew the peak by 3.5 MiB from 4 to 32 chunks; a pool's workers run
    # ahead of the absorb, so this holds at one thread only
    search_mu_int(MODEL, GRID, budget=8192, seed=5)   # warm-up: caches and imports
    small, large = _search_peak(4 * 8192), _search_peak(32 * 8192)
    assert large - small < 2 ** 19


def test_search_argument_errors():
    with pytest.raises(ArgumentError):
        search_mu_int(MODEL, GRID, budget=0, seed=1)
    with pytest.raises(ArgumentError):
        search_mu_int(MODEL, [0.2, 0.1], budget=10, seed=1)


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), float("-inf"), 2.5, 1000.25])
def test_search_rejects_bad_budget(budget):
    # NaN passed `budget < 1` and a non-integral budget reached range():
    # both raised TypeError instead of an ArgumentError
    with pytest.raises(ArgumentError, match="budget"):
        search_mu_int(MODEL, [0.0, 0.2], budget, 1)


@pytest.mark.parametrize("budget", [2 ** 26 + 1, 1e308, 10 ** 400])
def test_search_rejects_budget_above_ceiling(budget):
    # 1e308 was accepted, and the search held 16 B per sample until every
    # chunk was absorbed, so it ran until memory ran out
    with pytest.raises(ArgumentError, match="at most"):
        search_mu_int(MODEL, [0.0, 0.2], budget, 1)


def test_search_integral_float_budget():
    a = search_mu_int(MODEL, GRID, budget=2000.0, seed=5)
    b = search_mu_int(MODEL, GRID, budget=2000, seed=5)
    assert [(p.x, p.y) for p in a] == [(p.x, p.y) for p in b]


def _kernel_oracle(q0, chans):
    # independent route: compose the full joint, then generic (C)MI
    rates, rels = [], []
    for c in chans:
        ch = Channel(("x2", "v1"), Axis("v2", c.shape[-1]), c)
        q = compose_markov(q0, ch)
        rates.append(cmi(q, ["x2"], ["v2"], ["x1", "v1"]))
        rels.append(mi(q, ["y1"], ["v2", "x1"]))
    return np.array(rates), np.array(rels)


def _assert_kernel_matches_oracle(v1, chans):
    q0 = compose_markov(_int_source(MODEL), v1)
    rate, rel = _evaluate_batch(q0.table, chans)
    want_rate, want_rel = _kernel_oracle(q0, chans)
    assert np.all(rate >= 0.0) and np.all(rel >= 0.0)
    assert np.max(np.abs(rate - want_rate)) <= 1e-12
    assert np.max(np.abs(rel - want_rel)) <= 1e-12


@pytest.mark.parametrize("r1_rate", [h2(Q), 0.2])
def test_search_kernel_random_channels(rng, r1_rate):
    v1 = optimal_channel(r1_rate, P, Q).to_channel("v1", out_card=3)
    chans = rng.dirichlet(np.ones(7), size=(64, 2, 3))
    _assert_kernel_matches_oracle(v1, chans)


def test_search_kernel_baseline_channels():
    # r = 0 holds exact zeros (0 log 0 = 0), r = 1/2 carries nothing
    v1 = optimal_channel(h2(Q), P, Q).to_channel("v1", out_card=3)
    rs, chans = _baseline_chans()
    assert rs[0] == 0.0 and rs[-1] == 0.5
    _assert_kernel_matches_oracle(v1, chans)
    q0 = compose_markov(_int_source(MODEL), v1).table
    rate, rel = _evaluate_batch(q0, chans[[0, -1]])
    assert rate[0] == pytest.approx(h2(Q), abs=1e-12)
    assert rate[1] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("table", [
    [[0.7, 0.3, 0.0], [0.2, 0.8, 0.0]],   # v1 = 2 never occurs
    [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]],   # exact zeros inside rows
])
def test_search_kernel_v1_with_zeros(rng, table):
    v1 = Channel(("x1",), Axis("v1", 3), np.array(table))
    chans = rng.dirichlet(np.ones(7), size=(32, 2, 3))
    chans[:8, ..., :3] = 0.0           # channel rows with exact zeros
    chans[:8] /= chans[:8].sum(axis=-1, keepdims=True)
    _assert_kernel_matches_oracle(v1, chans)
    _, base = _baseline_chans()
    _assert_kernel_matches_oracle(v1, base[::16])


def test_baseline_block_equals_per_rate_tables_bytes():
    # the baselines were built one rate at a time as (B, |x2|, |v1|, |v2|)
    # tables and copied to the batch-last layout; the block holds their bytes
    rs, block = _baseline_block(3)
    assert len(rs) == 159 and block.flags.c_contiguous   # 0.5 is on both grids
    chans = np.zeros((len(rs), 2, 3, 7))
    for i, r in enumerate(rs):
        for x2 in (0, 1):
            chans[i, x2, :, x2] = 1.0 - r
            chans[i, x2, :, 1 - x2] = r
    assert block.tobytes() == np.ascontiguousarray(chans.transpose(1, 2, 3, 0)).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_search_rejects_non_finite_grid(bad):
    grid = np.array(GRID)
    grid[3] = bad
    with pytest.raises(ArgumentError):
        search_mu_int(MODEL, grid, budget=10, seed=1)
    with pytest.raises(ArgumentError):
        search_mu_int(MODEL, [bad], budget=10, seed=1)


# ---------------------------------------------------------------------------
# inclusion checks
# ---------------------------------------------------------------------------


def _curve(method, fun, rates):
    return RegionCurve({"kind": "binary", "p": P, "q": Q}, method, None,
                       tuple((float(r), float(fun(r))) for r in rates))


def test_inclusion_self():
    rates = np.linspace(0.0, h2(Q), 40)
    c = _curve("mu_d", lambda r: mu_d(r, P, Q), rates)
    v = check_inclusion(c, c, tol=0.0)
    assert v.holds and v.worst_gap <= 0.0


def test_inclusion_mu_d_inside_mu_ed():
    rates = np.linspace(0.0, h2(Q), 80)
    inner = _curve("mu_d", lambda r: mu_d(r, P, Q), rates)
    outer = _curve("mu_ed", lambda r: mu_ed(r, P, Q), rates)
    assert check_inclusion(inner, outer, tol=1e-9).holds


def test_inclusion_violation_witness():
    rates = np.linspace(0.0, h2(Q), 80)
    inner = _curve("mu_ed", lambda r: mu_ed(r, P, Q), rates)
    outer = _curve("mu_d", lambda r: mu_d(r, P, Q), rates)
    v = check_inclusion(inner, outer, tol=1e-9)
    assert not v.holds
    assert 0.0 < v.worst_rate < h2(Q)
    assert v.worst_gap > 0.005


def test_inclusion_disjoint_ranges():
    a = _curve("mu_d", lambda r: mu_d(r, P, Q), [0.0, 0.1])
    b = _curve("mu_d", lambda r: mu_d(r, P, Q), [0.3, 0.4])
    with pytest.raises(ComparisonError):
        check_inclusion(a, b, tol=0.0)
    # a one-point outer curve, and overlapping ranges with no inner sample
    # inside the common one, [4, 5]
    for inner_rates, outer_rates, message in (([0.0, 0.1], [0.05], "two points"),
                                              ([0.0, 10.0], [4.0, 5.0], "no inner sample")):
        a = _curve("flat", lambda r: 0.1, inner_rates)
        b = _curve("flat", lambda r: 0.2, outer_rates)
        with pytest.raises(ComparisonError, match=message):
            check_inclusion(a, b, tol=0.0)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
def test_inclusion_rejects_non_finite_tol(tol):
    rates = np.linspace(0.0, h2(Q), 10)
    c = _curve("mu_d", lambda r: mu_d(r, P, Q), rates)
    with pytest.raises(ArgumentError):
        check_inclusion(c, c, tol=tol)


# ---------------------------------------------------------------------------
# multi-round schedules
# ---------------------------------------------------------------------------


def test_two_round_twcib_evaluation(rng):
    src = MODEL.twcib_source()
    v11 = random_channel(rng, ["x1"], [2], "v11", 2)
    v21 = random_channel(rng, ["x2", "v11"], [2, 2], "v21", 2)
    v12 = random_channel(rng, ["x1", "v11", "v21"], [2, 2, 2], "v12", 2)
    v22 = random_channel(rng, ["x2", "v11", "v21", "v12"], [2, 2, 2, 2], "v22", 2)
    sched = RoundSchedule(2, (v11, v21, v12, v22))
    pt = evaluate_twcib(src, sched)
    # direct recomputation on the composed joint
    q = src
    for ch in sched.channels:
        q = compose_markov(q, ch)
    w = ["v11", "v21", "v12", "v22"]
    assert pt.r1 == pytest.approx(cmi(q, ["x1"], w, ["x2"]), abs=1e-12)
    assert pt.mu1 == pytest.approx(mi(q, ["y1"], w + ["x1"]), abs=1e-12)
    assert pt.mu1 <= mi(src, ["y1"], ["x1", "x2"]) + 1e-10


def test_two_round_cdib_rate_decomposition(rng):
    src = MODEL.half_round_source()
    v11 = random_channel(rng, ["x1"], [2], "v11", 2)
    v21 = random_channel(rng, ["x2", "v11"], [2, 2], "v21", 2)
    v12 = random_channel(rng, ["x1", "v11", "v21"], [2, 2, 2], "v12", 2)
    v22 = random_channel(rng, ["x2", "v11", "v21", "v12"], [2, 2, 2, 2], "v22", 2)
    sched = RoundSchedule(2, (v11, v21, v12, v22))
    pt = evaluate_cdib_inner(src, sched)
    q = src
    for ch in sched.channels:
        q = compose_markov(q, ch)
    w2k = ["v11", "v21", "v12"]
    expect_r2 = cmi(q, ["x2"], ["v22"], w2k) + cmi(q, ["x2"], w2k, ["x1"])
    assert pt.r2 == pytest.approx(expect_r2, abs=1e-12)
    assert pt.sum_rate == pytest.approx(mi(q, ["x1", "x2"], w2k + ["v22"]), abs=1e-12)


def test_search_ignores_threads_env(monkeypatch):
    # the library reads no environment; only the CLI reads IBREG_THREADS
    monkeypatch.delenv("IBREG_THREADS", raising=False)
    unset = search_mu_int_detailed(MODEL, GRID, budget=3000, seed=9)
    monkeypatch.setenv("IBREG_THREADS", "abc")
    assert search_mu_int_detailed(MODEL, GRID, budget=3000, seed=9) == unset
    assert search_mu_int(MODEL, GRID, budget=3000, seed=9) == unset[0]


@pytest.mark.parametrize("rounds", [float("nan"), 1.5, float("inf")])
def test_schedule_rejects_non_integral_rounds(rounds):
    # NaN raised a bare ValueError and 1.5 was truncated to one round
    v1 = Channel.bsc("x1", "v1", 0.1)
    v2 = Channel.constant([("x2", 2), ("v1", 2)], "v2")
    with pytest.raises(ArgumentError, match="rounds"):
        RoundSchedule(rounds, (v1, v2))


def test_schedule_accepts_integral_rounds():
    v1 = Channel.bsc("x1", "v1", 0.1)
    v2 = Channel.constant([("x2", 2), ("v1", 2)], "v2")
    for rounds in (1.0, np.int64(1)):
        assert RoundSchedule(rounds, (v1, v2)).description_names() == ("v1", "v2")


@pytest.mark.parametrize("seed", [-1, 1.5, float("nan"), float("inf")])
def test_search_rejects_bad_seed(seed):
    # -1 ended in a numpy ValueError from the seed sequence
    with pytest.raises(ArgumentError, match="seed"):
        search_mu_int(MODEL, [0.0, 0.2], 100, seed)


def test_search_integral_float_seed():
    a = search_mu_int(MODEL, GRID, budget=2000, seed=5.0)
    b = search_mu_int(MODEL, GRID, budget=2000, seed=np.int64(5))
    c = search_mu_int(MODEL, GRID, budget=2000, seed=5)
    assert [(p.x, p.y) for p in a] == [(p.x, p.y) for p in b] == [(p.x, p.y) for p in c]


@pytest.mark.parametrize("threads", [0, -1])
def test_search_rejects_threads_below_one(threads):
    # both ran serially without a word
    with pytest.raises(ArgumentError, match="threads"):
        search_mu_int(MODEL, [0.0, 0.2], 100, 1, threads=threads)


def test_import_leaves_concurrent_futures_unloaded():
    # one thread runs the chunks in a plain loop; only more than one imports
    # concurrent.futures, and with it logging
    src = str(pathlib.Path(ibreg.__file__).parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ibreg; "
            "print('concurrent.futures' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True)
    assert run.stdout.strip() == "False"


def _ref_xlog2x(m):
    # bentropy._xlog2x before its unmasked path
    out = np.zeros_like(m)
    np.log2(m, out=out, where=m > 0.0)
    return m * out


def _ref_evaluate_v2_batch(q0, chans):
    # the kernel before it ran in row blocks and summed the (x1, v1, v2)
    # marginal as contiguous products: one pass and one einsum over the
    # whole batch
    b = chans.shape[0]
    n_x1, n_x2, n_y1, n_v1 = q0.shape
    p_x1x2v1 = q0.sum(axis=2)
    h_x1v1 = -_ref_xlog2x(p_x1x2v1.sum(axis=1)).sum()
    h_y1 = -_ref_xlog2x(q0.sum(axis=(0, 1, 3))).sum()
    m_x1v1v2 = np.einsum("acv,bcvw->bavw", p_x1x2v1, chans)
    h_rows = -_ref_xlog2x(chans).sum(axis=3).reshape(b, -1)
    rate = (-_ref_xlog2x(m_x1v1v2).reshape(b, -1).sum(axis=1) - h_x1v1
            - h_rows @ p_x1x2v1.sum(axis=0).ravel())
    m_x1y1v2 = np.matmul(
        q0.transpose(0, 2, 1, 3).reshape(n_x1 * n_y1, n_x2 * n_v1),
        chans.reshape(b, n_x2 * n_v1, -1))
    m_x1v2 = m_x1v1v2.sum(axis=2)
    rel = (h_y1 - _ref_xlog2x(m_x1v2).reshape(b, -1).sum(axis=1)
           + _ref_xlog2x(m_x1y1v2).reshape(b, -1).sum(axis=1))
    return np.maximum(rate, 0.0), np.maximum(rel, 0.0)


def _sample_chunk(seed, j):
    # the draws of a full search chunk j; a last chunk of `take` rows draws
    # the first `take` of them
    rng = np.random.default_rng([seed, j])
    return rng.dirichlet(np.ones(7), size=(8192, 2, 3))


@pytest.mark.parametrize("take", [1, 100, 3392, 8191])
def test_search_last_chunk_draws_a_prefix(take):
    # the search draws only the rows a partial last chunk uses; Dirichlet
    # draws fill rows in order, so those are the full chunk's first rows
    # (test_search_records evaluates them through the search)
    for seed, j in ((20240917, 24), (5, 1)):
        rng = np.random.default_rng([seed, j])
        part = rng.dirichlet(np.ones(7), size=(take, 2, 3))
        assert part.tobytes() == _sample_chunk(seed, j)[:take].tobytes()


@pytest.mark.parametrize("take", [8192, 3392, 1])
@pytest.mark.parametrize("seed", [5, 7, 20240917])
def test_search_block_draws_equal_dirichlet_bytes(seed, take):
    # the search draws each block's exponentials into one buffer and scales
    # the batch-last copy by 1 / (sum over v2), which gives the bytes of one
    # rng.dirichlet call over the chunk; 3,392 rows end a 200,000 budget
    j = 24 if take == 3392 else 1
    blocks = list(_drawn_blocks(seed, j, take, 3))
    assert [c.shape for c in blocks] == [
        (2, 3, 7, min(_ROW_BLOCK, take - lo)) for lo in range(0, take, _ROW_BLOCK)]
    assert all(c.flags.c_contiguous for c in blocks)
    want = np.random.default_rng([seed, j]).dirichlet(np.ones(7), size=(take, 2, 3))
    got = np.concatenate([c.transpose(3, 0, 1, 2) for c in blocks])
    assert got.tobytes() == want.tobytes()
    v1 = optimal_channel(h2(Q), P, Q).to_channel("v1", out_card=3)
    q0 = compose_markov(_int_source(MODEL), v1).table
    for a, b in zip(_evaluate_blocks(q0, iter(blocks), take), _evaluate_batch(q0, want)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("width", [1, 1025])
def test_pairwise_sum_equals_numpy_sum_bytes(width):
    # the kernel's written-out reduction order against numpy's own, for every
    # row length it covers, on magnitudes from 1e-300 to 1e3 of both signs,
    # exact zeros and -0.0; rows of -0.0 alone sum to +0.0
    rng = np.random.default_rng(20240917)
    for n in range(1, 129):
        rows = rng.choice([-1.0, 1.0], (width, n)) * 10.0 ** rng.uniform(-300, 3, (width, n))
        rows[rng.random((width, n)) < 0.1] = 0.0
        rows[rng.random((width, n)) < 0.1] = -0.0
        rows[rng.random((width, n)) < 0.05] = 1e-300
        for a in (rows, np.full((width, n), -0.0)):
            assert _pairwise_sum(a.T).tobytes() == a.sum(axis=1).tobytes(), n


@pytest.mark.parametrize("n", [1, 2, 7, 1024, 2048])
def test_one_gemm_equals_stacked_matmul_bytes(n):
    # the kernel forms the (x1 y1, v2) marginal of a block as one gemm on
    # the batch-last channels instead of one matmul per row
    v1 = optimal_channel(h2(Q), P, Q).to_channel("v1", out_card=3)
    q0 = compose_markov(_int_source(MODEL), v1).table
    q = q0.transpose(0, 2, 1, 3).reshape(4, 6)
    c = _sample_chunk(3, 0)[:n]
    one = q @ np.ascontiguousarray(c.transpose(1, 2, 3, 0)).reshape(6, -1)
    stacked = np.matmul(q, c.reshape(n, 6, 7))
    assert one.reshape(4, 7, n).tobytes() == np.ascontiguousarray(
        stacked.transpose(1, 2, 0)).tobytes()


@pytest.mark.parametrize("p, q", [(0.1, 0.1), (0.2, 0.05), (0.3, 0.3), (0.45, 0.01)])
@pytest.mark.parametrize("share", [1.0, 0.5, 0.0])
def test_search_kernel_equals_reference_bytes(p, q, share):
    v1 = optimal_channel(share * h2(q), p, q).to_channel("v1", out_card=3)
    q0 = compose_markov(_int_source(BinaryModel(p, q)), v1).table
    _assert_kernel_equals_reference_bytes(q0)


@pytest.mark.parametrize("table", [
    [[0.7, 0.3, 0.0], [0.2, 0.8, 0.0]],   # v1 = 2 has no mass
    [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]],   # v1 = 1 and 2 only from x1 = 1
    [[0.5, 0.25, 0.25], [0.25, 0.25, 0.5]],
])
def test_search_kernel_equals_reference_bytes_any_v1(table):
    v1 = Channel(("x1",), Axis("v1", 3), np.array(table))
    _assert_kernel_equals_reference_bytes(compose_markov(_int_source(MODEL), v1).table)


def _assert_kernel_equals_reference_bytes(q0):
    full = _sample_chunk(20240917, 0)
    zeros = _sample_chunk(7, 1)[:600].copy()    # channel rows with exact zeros
    zeros[::3, ..., :4] = 0.0
    zeros[1::3, 0, 1] = [1.0, 0, 0, 0, 0, 0, 0]
    zeros /= zeros.sum(axis=-1, keepdims=True)
    batches = [
        full,                                   # a full chunk
        _sample_chunk(20240917, 24)[:3392],     # the last chunk of a 200k budget
        full[:1],
        full[:2],
        full[:1025],                            # the last row block has one row
        _baseline_chans()[1],
        zeros,
    ]
    assert 3392 % _ROW_BLOCK and 200_000 - 24 * 8192 == 3392
    for chans in batches:
        rate, rel = _evaluate_batch(q0, chans)
        want_rate, want_rel = _ref_evaluate_v2_batch(q0, chans)
        assert rate.tobytes() == want_rate.tobytes()
        assert rel.tobytes() == want_rel.tobytes()
