"""Single-letter region evaluation over explicit auxiliary-channel stacks.

Evaluators for the two-way and broadcast regions of arbitrary discrete
sources, each checking a :class:`RoundSchedule` of auxiliary channels
against its own region's cardinality bound; the four corner points induced
by a fixed pair of auxiliaries, the seeded stochastic search for the
interactive binary curve, upper concave envelopes, and curve inclusion checks.

Axis conventions: sources for the two-way evaluator carry axes
``x1, x2, y1, y2``; broadcast sources carry ``x1, x2, y``.  A schedule's
channels alternate encoder 1 / encoder 2 and each channel conditions on the
observer's source axis plus every previously generated description.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import guards
from .bentropy import _xlog2x, h2
from .binary import BinaryModel, optimal_channel
from .curves import RegionCurve
from .errors import (
    ArgumentError,
    AxisError,
    CardinalityError,
    ComparisonError,
    StructureError,
)
from .pmf import (
    Channel,
    JointPmf,
    compose_markov,
    conditional_mutual_information as cmi,
    marginalize,
    mutual_information as mi,
)

__all__ = [
    "RegionPoint",
    "EnvelopePoint",
    "RoundSchedule",
    "InclusionVerdict",
    "evaluate_twcib",
    "evaluate_cdib_inner",
    "corner_points_outer",
    "upper_concave_envelope",
    "envelope_value",
    "search_mu_int",
    "search_mu_int_detailed",
    "check_inclusion",
]


@dataclass(frozen=True)
class RegionPoint:
    """One evaluated tuple of the achievable set.

    Two-way evaluations fill ``mu1``/``mu2``; broadcast evaluations fill
    ``mu``.
    """

    r1: float
    r2: float
    sum_rate: float
    mu: float | None = None
    mu1: float | None = None
    mu2: float | None = None


@dataclass(frozen=True)
class EnvelopePoint:
    """One point (x, y) of an upper concave envelope or of its evaluation."""

    x: float
    y: float


# ---------------------------------------------------------------------------
# round schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundSchedule:
    """An ordered stack of 2K auxiliary channels, encoder 1 first each round.

    The l-th encoder-1 channel must condition on ``x1`` plus all previously
    generated descriptions; the l-th encoder-2 channel on ``x2`` plus all
    previous descriptions including the current encoder-1 one.  The schedule
    checks this structure; each evaluator checks the output cardinalities
    against its region's single-letter bound, |X| * |history| + 3 (two-way)
    or + 4 (broadcast) on non-final rounds, + 3 / + 1 on the final encoder-1
    / encoder-2 outputs.
    """

    rounds: int
    channels: tuple[Channel, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "channels", guards.sequence("channels", self.channels, Channel))
        k = guards.count("rounds", self.rounds, 1)
        if len(self.channels) != 2 * k:
            raise ArgumentError(
                f"need 2K = {2 * k} channels, got {len(self.channels)}")
        names = [ch.output.name for ch in self.channels]
        if len(set(names)) != len(names):
            raise AxisError(f"duplicate description names {names}")
        if "x1" in names or "x2" in names:
            raise AxisError("description names collide with source axes")
        for i, ch in enumerate(self.channels):
            want = {("x1", "x2")[i % 2], *names[:i]}
            if set(ch.input_axes) != want:
                raise StructureError(
                    f"round {i // 2 + 1} encoder-{i % 2 + 1} channel conditions on "
                    f"{set(ch.input_axes)}, expected {want}")
        # description alphabets must be quoted consistently downstream
        cards = {ch.output.name: ch.output.card for ch in self.channels}
        for ch in self.channels:
            for axis in ch.input_axes:
                if axis in cards and self._input_card(ch, axis) != cards[axis]:
                    raise StructureError(
                        f"channel for {ch.output.name!r} expects |{axis}| = "
                        f"{self._input_card(ch, axis)}, description has {cards[axis]}")

    def _input_card(self, ch: Channel, axis: str) -> int:
        return ch.input_cards[ch.input_axes.index(axis)]

    def _check_bounds(self, nonfinal: int) -> None:
        x_cards = (self._input_card(self.channels[0], "x1"),
                   self._input_card(self.channels[1], "x2"))
        w = 1  # alphabet size of the accumulated description history
        for i, ch in enumerate(self.channels):
            slack = (3, 1)[i % 2] if i >= len(self.channels) - 2 else nonfinal
            bound = x_cards[i % 2] * w + slack
            if ch.output.card > bound:
                raise CardinalityError(
                    f"|{ch.output.name}| = {ch.output.card} exceeds bound {bound}")
            w *= ch.output.card

    def description_names(self) -> tuple[str, ...]:
        return tuple(ch.output.name for ch in self.channels)


def _composed(source: JointPmf, sched: RoundSchedule, required_axes) -> JointPmf:
    guards.instance("source", source, JointPmf)
    guards.instance("sched", sched, RoundSchedule)
    for axis in required_axes:
        if axis not in source.axis_names:
            raise AxisError(f"source lacks required axis {axis!r}")
    q = source
    for ch in sched.channels:
        q = compose_markov(q, ch)
    return q


def evaluate_twcib(source: JointPmf, sched: RoundSchedule) -> RegionPoint:
    """Corner of the two-way achievable set for one channel stack.

    Returns R1 = I(X1;W|X2), R2 = I(X2;W|X1), mu1 = I(Y1;W,X1),
    mu2 = I(Y2;W,X2) where W is the full description history.  A schedule
    past the two-way cardinality bound raises :class:`CardinalityError`.
    """
    q = _composed(source, sched, ("x1", "x2", "y1", "y2"))
    sched._check_bounds(3)
    w = list(sched.description_names())
    r1 = cmi(q, ["x1"], w, ["x2"])
    r2 = cmi(q, ["x2"], w, ["x1"])
    return RegionPoint(
        r1=r1, r2=r2, sum_rate=r1 + r2,
        mu1=mi(q, ["y1"], w + ["x1"]),
        mu2=mi(q, ["y2"], w + ["x2"]),
    )


def evaluate_cdib_inner(source: JointPmf, sched: RoundSchedule) -> RegionPoint:
    """Broadcast inner-bound tuple for one channel stack.

    R1 = I(X1;W|X2); R2 = I(X2;V_2K|W_2K) + I(X2;W_2K|X1) where V_2K is the
    final encoder-2 description and W_2K everything before it;
    sum = I(X1,X2;W); mu = I(Y;W).  A schedule past the broadcast
    cardinality bound raises :class:`CardinalityError`.
    """
    q = _composed(source, sched, ("x1", "x2", "y"))
    sched._check_bounds(4)
    w = list(sched.description_names())
    w2k, v2k = w[:-1], [w[-1]]
    r1 = cmi(q, ["x1"], w, ["x2"])
    r2 = cmi(q, ["x2"], v2k, w2k) + cmi(q, ["x2"], w2k, ["x1"])
    return RegionPoint(
        r1=r1, r2=r2, sum_rate=mi(q, ["x1", "x2"], w),
        mu=mi(q, ["y"], w),
    )


def corner_points_outer(source: JointPmf, u1: Channel,
                        u2: Channel) -> tuple[RegionPoint, ...]:
    """The four corner points induced by a fixed auxiliary pair (U1, U2).

    U1 must condition on X1 only; U2 on (U1, X2); their alphabets are not
    bounded.  The relevance coordinates of the third and fourth corners are
    information differences and may be negative when the corner falls below
    the mu = 0 face.
    """
    q = _composed(source, RoundSchedule(1, (u1, u2)), ("x1", "x2", "y"))
    a, b = u1.output.name, u2.output.name
    mu12 = mi(q, ["y"], [a, b])
    i_x1_a = mi(q, ["x1"], [a])                 # I(X1;U1)
    i_x1_a_x2 = cmi(q, ["x1"], [a], ["x2"])     # I(X1;U1|X2)
    i_x2_ab = mi(q, [a, b], ["x2"])             # I(U1,U2;X2)
    i_x2_b_a = cmi(q, ["x2"], [b], [a])         # I(X2;U2|U1)
    q1 = RegionPoint(i_x1_a_x2, i_x2_ab, i_x1_a_x2 + i_x2_ab, mu=mu12)
    q2 = RegionPoint(i_x1_a, i_x2_b_a, i_x1_a + i_x2_b_a, mu=mu12)
    q3 = RegionPoint(i_x1_a, 0.0, i_x1_a,
                     mu=mi(q, ["y"], [a]) - cmi(q, ["x2"], [b], [a, "y"]))
    q4 = RegionPoint(i_x1_a_x2, 0.0, i_x1_a_x2,
                     mu=i_x1_a_x2 - cmi(q, [a, b], ["x1", "x2"], ["y"]))
    return q1, q2, q3, q4


# ---------------------------------------------------------------------------
# upper concave envelope
# ---------------------------------------------------------------------------


def upper_concave_envelope(points) -> list[EnvelopePoint]:
    """Upper hull of a finite point cloud by the monotone-chain construction.

    Vertices come out strictly increasing in x with strictly decreasing chord
    slopes; collinear interior points are dropped.
    """
    pts = guards.pairs("points", points)
    if len(pts) < 2:
        raise ArgumentError("the envelope needs at least two points")
    if not all(np.isfinite(x) and np.isfinite(y) for x, y in pts):
        raise ArgumentError("envelope points must be finite")
    best: dict[float, float] = {}
    for x, y in pts:
        if x not in best or y > best[x]:
            best[x] = y
    xs = sorted(best)
    if len(xs) < 2:
        raise ArgumentError("envelope needs at least two distinct x values")
    hull: list[tuple[float, float]] = []
    for x in xs:
        p = (x, best[x])
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) >= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return [EnvelopePoint(x, y) for x, y in hull]


def envelope_value(envelope, x) -> np.ndarray:
    """Piecewise-linear evaluation of an envelope at ``x``, a number or an
    array of them.

    Beyond the hull's ends the envelope is extended flat: for the hull of
    (0, 0), (1, 1) and (2, 1), x = -5 gives 0.0 and x = 7 gives 1.0, and so
    do -inf and +inf.  A NaN ``x`` raises ``DomainError``, and an envelope
    with a non-finite point or an x not strictly increasing ``ArgumentError``.
    """
    points = guards.sequence("envelope", envelope, EnvelopePoint)
    if not points:
        raise ArgumentError("the envelope needs at least one point")
    xs, ys = guards.reals("envelope", [(p.x, p.y) for p in points], allow_nan=True).T
    if not (np.isfinite(xs).all() and np.isfinite(ys).all() and (np.diff(xs) > 0.0).all()):
        raise ArgumentError("envelope points must be finite, with x strictly increasing")
    return np.interp(guards.reals("x", x), xs, ys)


# ---------------------------------------------------------------------------
# stochastic search for the interactive binary curve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BucketRecord:
    """Best sampled point of one rate bucket (reproducibility artifact)."""

    rate: float
    relevance: float
    origin: str                      # "baseline:r=<r>" or "sample:<chunk>/<row>"


_CHUNK = 8192
# budget ceiling for outside input: run time grows with the budget, about
# 4.9 ms a chunk on one thread, so 40 s for the 8,192 chunks of 2**26
# (2-vCPU x86-64, numpy 2.4.6); one thread holds one chunk's rates,
# relevances and row entropies (0.5 MB) and one block's draws, but above
# one thread memory grows, as the pool queues one task per chunk and holds
# the 128 KB of rates and relevances of each chunk finished ahead of absorb
_BUDGET_MAX = 2 ** 26
# rows per block, drawn and evaluated together: a (1,024, 2, 3, 7) block of
# draws is 344 KB.  The 25 chunks of a 200,000 budget took 127 ms at 1,024,
# 126 ms at 512 and 2,048 and 141 ms at 4,096, with tracemalloc peaks of
# 2.65, 1.71, 4.49 and 8.17 MiB (medians of 7; 2-vCPU x86-64, numpy 2.4.6,
# OpenBLAS)
_ROW_BLOCK = 1024
_BUCKETS = 64
_V2_CARD = 7   # single-letter bound 2 |V1| + 1; V1 is padded to 3 symbols


def _int_source(model: BinaryModel) -> JointPmf:
    # (x1, x2, y1) with Y1 = X2 xor Bern(p): the hidden variable of decoder 1
    return marginalize(model.twcib_source(), ["x1", "x2", "y1"])


def _pairwise_sum(a: np.ndarray) -> np.ndarray:
    # a.T.sum(axis=1) of an (L, n) array, L <= 128, in numpy's pairwise order
    # (README, "Speed never moves a bit")
    head = len(a) - len(a) % 8
    r = sum((a[i:i + 8] for i in range(8, head, 8)), a[:8])
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])) if head else 0.0
    return 0.0 + sum(a[head:], res)


def _evaluate_blocks(q0: np.ndarray, blocks, b: int):
    """Rates/relevances of ``b`` channel tables p(v2 | x2, v1).

    ``q0`` is the composed (x1, x2, y1, v1) table; ``blocks`` yields the
    ``b`` rows in order, ``_ROW_BLOCK`` at a time (the last block may hold
    fewer), each as one contiguous batch-last (|x2|, |v1|, |v2|, rows) array,
    so every step is a whole-row vector op.  Returns (I(X2;V2|X1,V1),
    I(Y1;V2,X1)).  Since V2 - (X2,V1) - (X1,Y1) is a Markov chain, the joint
    is never formed:

        I(X2;V2|X1,V1) = H(X1,V1,V2) - H(X1,V1) - sum p(x2,v1) H(c[x2,v1,:]),
        I(Y1;V2,X1) = H(Y1) + H(X1,V2) - H(X1,Y1,V2).

    For its bits see README, "Speed never moves a bit".
    """
    n_x1, n_x2, n_y1, n_v1 = q0.shape
    p_x1x2v1 = q0.sum(axis=2)
    h_x1v1 = -_xlog2x(p_x1x2v1.sum(axis=1)).sum()
    h_y1 = -_xlog2x(q0.sum(axis=(0, 1, 3))).sum()
    p_x2v1 = p_x1x2v1.sum(axis=0).ravel()
    q_x1y1 = q0.transpose(0, 2, 1, 3).reshape(n_x1 * n_y1, n_x2 * n_v1)
    mass = np.nonzero(p_x1x2v1.any(axis=(0, 1)))[0]
    live = slice(mass[0], mass[-1] + 1)
    p_live = p_x1x2v1[:, :, live, None, None]
    rate, rel = np.empty(b), np.empty(b)
    h_rows = np.zeros((b, n_x2, n_v1))
    for lo, c in zip(range(0, b, _ROW_BLOCK), blocks):
        n = c.shape[3]
        if not lo:   # the first block is the longest
            m_log = np.zeros((n_x1, n_v1, c.shape[2], n))
        m = p_live[:, 0] * c[0, live]
        for x2 in range(1, n_x2):
            m += p_live[:, x2] * c[x2, live]
        h_rows[lo:lo + n, :, live] = -_xlog2x(c[:, live]).sum(axis=2).transpose(2, 0, 1)
        m_log[:, live, :, :n] = _xlog2x(m)     # the rest stays 0.0 from the start
        rate[lo:lo + n] = -_pairwise_sum(m_log[..., :n].reshape(-1, n)) - h_x1v1
        m_x1y1v2 = q_x1y1 @ c.reshape(n_x2 * n_v1, -1)
        rel[lo:lo + n] = (h_y1 - _pairwise_sum(_xlog2x(m.sum(axis=1)).reshape(-1, n))
                          + _pairwise_sum(_xlog2x(m_x1y1v2).reshape(-1, n)))
    rate -= h_rows.reshape(b, -1) @ p_x2v1
    return np.maximum(rate, 0.0), np.maximum(rel, 0.0)


def _drawn_blocks(seed: int, chunk: int, take: int, v1_card: int):
    """The first ``take`` rows of search chunk ``chunk``, drawn one block at
    a time as :func:`_evaluate_blocks` reads them.

    Each row holds 2 |V1| Dirichlet(1) pmfs over the ``_V2_CARD`` symbols of
    V2, with the bytes of ``rng.dirichlet(np.ones(_V2_CARD), size=(take, 2,
    v1_card))`` on ``rng = np.random.default_rng([seed, chunk])``: numpy
    draws one standard exponential per entry, in row order, and multiplies
    each pmf's entries by 1 / (their sum).  Each block's exponentials go
    into one buffer, are copied once into the batch-last layout and scaled
    there by 1 / (sum over v2), added in numpy's order (README, "Speed never
    moves a bit").
    """
    rng = np.random.default_rng([seed, chunk])
    draws = np.empty((min(take, _ROW_BLOCK), 2, v1_card, _V2_CARD))
    for lo in range(0, take, _ROW_BLOCK):
        e = draws[:min(take - lo, _ROW_BLOCK)]
        rng.standard_exponential(out=e)
        c = np.ascontiguousarray(e.transpose(1, 2, 3, 0))   # batch last
        total = c[:, :, 0].copy()   # numpy's sum starts at 0.0, and 0.0 + e0 == e0
        for v2 in range(1, _V2_CARD):
            total += c[:, :, v2]
        c *= 1.0 / total[:, :, None]
        yield c


def _baseline_block(v1_card: int) -> tuple[np.ndarray, np.ndarray]:
    """Second-encoder strategies that ignore V1: V2 = X2 xor Bern(r).

    These are the known non-interactive achievable points (r = 0 is the full
    description, r = 1/2 carries nothing); the random search must beat them
    to demonstrate an interaction gain.  Returns the 159 rates r and their
    channels as one batch-last (|x2|, |v1|, |v2|, 159) block, as
    :func:`_evaluate_blocks` reads it.
    """
    rs = np.unique(np.concatenate([np.linspace(0.0, 0.5, 96),
                                   0.5 * np.geomspace(1e-7, 1.0, 64)]))
    block = np.zeros((2, v1_card, _V2_CARD, len(rs)))
    for x2 in (0, 1):
        block[x2, :, x2] = 1.0 - rs
        block[x2, :, 1 - x2] = rs
    return rs, block


def search_mu_int_detailed(model: BinaryModel, r2_grid, budget: int, seed: int, *,
                           threads: int = 1):
    """Seeded random-channel search for the interactive relevance curve.

    Fixes the first half-round description V1 at the relevance-optimal test
    channel for rate h2(q), a full first description, then samples
    ``budget`` conditional pmfs p(v2 | x2, v1) with |V2| = 7, the
    single-letter bound 2 |V1| + 1, from a symmetric Dirichlet(1) per
    conditional slice.  Keeps the best relevance per rate bucket, adds the
    deterministic non-interactive baselines, and returns the upper concave
    envelope evaluated on ``r2_grid`` together with the per-bucket records.
    ``budget`` must be an integer in [1, 2**26], ``seed`` a nonnegative
    integer and ``threads`` a positive one.  More than one thread samples on
    a pool; chunks are absorbed in chunk order, so the result does not vary.
    Only the CLI reads ``IBREG_THREADS``; it passes the value in as ``threads``.

    Deterministic for a fixed seed; samples are drawn in chunks of 8,192
    rows keyed by (seed, chunk index), the last chunk only the rows the
    budget uses (Dirichlet draws fill rows in order, so a budget prefix is a
    sample prefix).  A chunk's rows are drawn one block of 1,024 at a time,
    just before the kernel evaluates them, with the bytes of one
    ``rng.dirichlet`` call over the chunk (:func:`_drawn_blocks`).  Each
    chunk is absorbed as it is drawn, so one thread holds one block's
    draws, one chunk's rates and relevances and the kept points, whatever
    the budget; a record's origin names its channel by chunk and row, which
    the seed regenerates.
    """
    budget = guards.count("budget", budget, 1)
    if budget > _BUDGET_MAX:
        raise ArgumentError(f"budget must be at most 2**26 = {_BUDGET_MAX}, got {budget!r}")
    seed = guards.count("seed", seed, 0)
    threads = guards.count("threads", threads, 1)
    grid = guards.reals("r2_grid", r2_grid, allow_nan=True)
    if grid.ndim != 1 or grid.size < 1 or not np.all(np.isfinite(grid)) \
            or np.any(np.diff(grid) <= 0.0):
        raise ArgumentError("r2_grid must be nonempty, finite and strictly increasing")
    p, q = guards.instance("model", model, BinaryModel).p, model.q
    hq = h2(q)
    v1 = optimal_channel(hq, p, q).to_channel("v1", out_card=3)
    q0 = compose_markov(_int_source(model), v1).table

    edges = np.linspace(0.0, hq, _BUCKETS + 1)
    best: list[BucketRecord | None] = [None] * _BUCKETS
    best_rel = np.full(_BUCKETS, -np.inf)   # best[b].relevance, -inf while empty
    # append-only point cloud: keeping every bucket-max improvement (rather
    # than only the final best) makes the envelope monotone in the budget --
    # a replaced point may have supported the hull at lower rates
    kept: list[tuple[float, float]] = []

    def absorb(rates, rels, origin):
        # sequential running-max semantics per bucket: every improvement event
        # is kept, so any budget prefix produces a subset of the kept cloud.
        # A bucket has an event only if some relevance in it beats its best,
        # so only buckets whose top does are scanned.  fmax skips NaN, which
        # ends a bucket's events (the running max turns NaN), and a bucket
        # with an event before its NaN still has a top above its best
        idx = np.clip(np.searchsorted(edges, rates, side="right") - 1, 0, _BUCKETS - 1)
        top = np.full(_BUCKETS, -np.inf)
        np.fmax.at(top, idx, rels)
        for b in np.nonzero(top > best_rel)[0]:
            rows = np.nonzero(idx == b)[0]
            run = np.maximum.accumulate(rels[rows])
            for k in rows[(rels[rows] == run) & (run > best_rel[b])]:
                if rels[k] > best_rel[b]:
                    best_rel[b] = rels[k]
                    kept.append((float(rates[k]), float(rels[k])))
                    best[b] = BucketRecord(float(rates[k]), float(rels[k]), origin(int(k)))

    base_rs, base_block = _baseline_block(v1.output.card)
    rates, rels = _evaluate_blocks(q0, (base_block,), len(base_rs))
    absorb(rates, rels, lambda k: f"baseline:r={base_rs[k]:.6g}")
    kept.extend(zip(map(float, rates), map(float, rels)))
    # the zero-rate point must survive bucketing: without it the envelope's
    # flat left extension would claim unachievable relevance at rate 0
    k0 = int(np.argmax(base_rs))  # r = 1/2 carries nothing
    anchor = BucketRecord(0.0 if rates[k0] < 1e-12 else float(rates[k0]),
                          float(rels[k0]), "anchor:constant")
    kept.append((anchor.rate, anchor.relevance))

    n_chunks = (budget + _CHUNK - 1) // _CHUNK

    def run_chunk(j: int):
        take = min(_CHUNK, budget - j * _CHUNK)
        return _evaluate_blocks(q0, _drawn_blocks(seed, j, take, v1.output.card), take)

    def absorb_chunks(chunks):
        for j, (r, v) in enumerate(chunks):
            absorb(r, v, lambda k: f"sample:{j}/{k}")

    if threads > 1:   # concurrent.futures loads logging: imported only here
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            absorb_chunks(pool.map(run_chunk, range(n_chunks)))
    else:   # one thread: the chunks run here, one after another
        absorb_chunks(map(run_chunk, range(n_chunks)))

    records = [anchor] + [b for b in best if b is not None]
    ys = envelope_value(upper_concave_envelope(kept), grid)
    points = [EnvelopePoint(float(x), float(y)) for x, y in zip(grid, ys)]
    return points, records


def search_mu_int(model: BinaryModel, r2_grid, budget: int, seed: int, *,
                  threads: int = 1) -> list[EnvelopePoint]:
    """Envelope of the interactive-curve search on ``r2_grid`` (see
    :func:`search_mu_int_detailed` for the sampling protocol)."""
    points, _ = search_mu_int_detailed(model, r2_grid, budget, seed, threads=threads)
    return points


# ---------------------------------------------------------------------------
# curve inclusion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InclusionVerdict:
    """Outcome of :func:`check_inclusion`: whether inner <= outer + tol held
    at the ``checked`` common rates, and the rate, inner and outer
    relevances where the gap inner - outer is largest."""

    holds: bool
    tol: float
    checked: int
    worst_gap: float
    worst_rate: float
    worst_inner: float
    worst_outer: float

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "tol": self.tol,
            "checked": self.checked,
            "worst_gap": self.worst_gap,
            "worst": {
                "R": self.worst_rate,
                "inner_mu": self.worst_inner,
                "outer_mu": self.worst_outer,
            },
        }


def check_inclusion(inner: RegionCurve, outer: RegionCurve, tol: float) -> InclusionVerdict:
    """Check inner relevance <= outer relevance + tol at every common rate.

    The outer curve, its points sorted by rate, is linearly interpolated at
    the inner sample rates lying inside both rate ranges; the verdict carries
    the worst-violation point.
    A non-finite ``tol`` raises :class:`ArgumentError`.
    """
    tol = guards.finite("tol", tol, ArgumentError)
    guards.instance("inner", inner, RegionCurve)
    if len(guards.instance("outer", outer, RegionCurve).points) < 2:
        raise ComparisonError("outer curve needs at least two points to interpolate")
    oxs, oys = np.array(sorted(outer.points)).T
    ixs, iys = np.array(inner.points).T
    lo = max(float(ixs.min()), float(oxs.min()))
    hi = min(float(ixs.max()), float(oxs.max()))
    if lo > hi + 1e-12:
        raise ComparisonError(
            f"disjoint rate ranges: inner [{ixs.min()}, {ixs.max()}], "
            f"outer [{oxs.min()}, {oxs.max()}]")
    mask = (ixs >= lo - 1e-12) & (ixs <= hi + 1e-12)
    if not mask.any():
        raise ComparisonError("no inner sample falls inside the common rate range")
    gaps = iys[mask] - np.interp(ixs[mask], oxs, oys)
    k = int(np.argmax(gaps))
    worst = float(gaps[k])
    return InclusionVerdict(
        holds=bool(worst <= tol), tol=float(tol), checked=int(mask.sum()),
        worst_gap=worst,
        worst_rate=float(ixs[mask][k]),
        worst_inner=float(iys[mask][k]),
        worst_outer=float(iys[mask][k] - gaps[k]),
    )
