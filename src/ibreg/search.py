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

import os
from concurrent.futures import ThreadPoolExecutor
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
    do -inf and +inf.  A NaN ``x`` raises ``DomainError``.
    """
    if not guards.sequence("envelope", envelope, EnvelopePoint):
        raise ArgumentError("the envelope needs at least one point")
    xs = np.array([p.x for p in envelope])
    ys = np.array([p.y for p in envelope])
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
# budget ceiling: the search holds each sample's rate and relevance (16 B of
# float64) until every chunk is absorbed, so 2**26 samples take 1 GiB
_BUDGET_MAX = 2 ** 26
_ROW_BLOCK = 1024   # kernel rows per block: 1,024 measured faster than 512 or 2,048
_BUCKETS = 64
_V2_CARD = 7   # single-letter bound 2 |V1| + 1; V1 is padded to 3 symbols


def _int_source(model: BinaryModel) -> JointPmf:
    # (x1, x2, y1) with Y1 = X2 xor Bern(p): the hidden variable of decoder 1
    return marginalize(model.twcib_source(), ["x1", "x2", "y1"])


def _evaluate_v2_batch(q0: np.ndarray, chans: np.ndarray):
    """Rates/relevances for a batch of p(v2 | x2, v1) channel tables.

    ``q0`` is the composed (x1, x2, y1, v1) table; ``chans`` has shape
    (B, |x2|, |v1|, |v2|).  Returns (I(X2;V2|X1,V1), I(Y1;V2,X1)).

    The (x1, x2, y1, v1, v2) joint is never formed.  H(X1,V1) and H(Y1) do
    not depend on the channel and are computed once per call from ``q0``.
    Since V2 - (X2,V1) - (X1,Y1) is a Markov chain,

        I(X2;V2|X1,V1) = H(X1,V1,V2) - H(X1,V1) - sum p(x2,v1) H(c[x2,v1,:]),

    which needs the (B, x1, v1, v2) marginal and the entropies of the
    channel rows.  The relevance

        I(Y1;V2,X1) = H(Y1) + H(X1,V2) - H(X1,Y1,V2)

    needs the (B, x1, v2) marginal and the (B, x1 y1, v2) marginal, one
    matmul of ``q0`` as an (x1 y1, x2 v1) matrix against the channels as
    (B, x2 v1, v2) matrices.

    Rows are independent, so the batch runs in blocks of ``_ROW_BLOCK`` rows
    whose temporaries stay in a core's L2 cache (an 8,192-row temporary of
    shape (B, 2, 3, 7) takes 2.75 MB, a 1,024-row one 344 KB).  Every row
    goes through the same operations as in one pass over the whole batch,
    and the sums over the v2 and v1 axes are written out left to right, the
    order in which numpy reduces those short axes, so the result has the
    same bytes.  The product of the row entropies with p(x2, v1) stays one
    call over the whole batch: BLAS may sum a row in another order when the
    batch has another length (a 1-row block becomes a dot product).
    """
    b = chans.shape[0]
    n_x1, n_x2, n_y1, n_v1 = q0.shape
    p_x1x2v1 = q0.sum(axis=2)
    h_x1v1 = -_xlog2x(p_x1x2v1.sum(axis=1)).sum()
    h_y1 = -_xlog2x(q0.sum(axis=(0, 1, 3))).sum()
    p_x2v1 = p_x1x2v1.sum(axis=0).ravel()
    q_x1y1 = q0.transpose(0, 2, 1, 3).reshape(n_x1 * n_y1, n_x2 * n_v1)
    rate = np.empty(b)
    rel = np.empty(b)
    h_rows = np.empty((b, n_x2 * n_v1))
    for lo in range(0, b, _ROW_BLOCK):
        c = chans[lo:lo + _ROW_BLOCK]
        n = c.shape[0]
        m_x1v1v2 = np.einsum("acv,bcvw->bavw", p_x1x2v1, c)
        c_log = _xlog2x(c)
        row_sum = c_log[..., 0]
        for w in range(1, c.shape[3]):
            row_sum = row_sum + c_log[..., w]
        h_rows[lo:lo + n] = -row_sum.reshape(n, -1)
        rate[lo:lo + n] = -_xlog2x(m_x1v1v2).reshape(n, -1).sum(axis=1) - h_x1v1
        m_x1y1v2 = np.matmul(q_x1y1, c.reshape(n, n_x2 * n_v1, -1))
        m_x1v2 = m_x1v1v2[:, :, 0]
        for v in range(1, n_v1):
            m_x1v2 = m_x1v2 + m_x1v1v2[:, :, v]
        rel[lo:lo + n] = (h_y1 - _xlog2x(m_x1v2).reshape(n, -1).sum(axis=1)
                          + _xlog2x(m_x1y1v2).reshape(n, -1).sum(axis=1))
    rate -= h_rows @ p_x2v1
    return np.maximum(rate, 0.0), np.maximum(rel, 0.0)


def _baseline_channels(v1_card: int, v2_card: int) -> tuple[np.ndarray, np.ndarray]:
    """Second-encoder strategies that ignore V1: V2 = X2 xor Bern(r).

    These are the known non-interactive achievable points (r = 0 is the full
    description, r = 1/2 carries nothing); the random search must beat them
    to demonstrate an interaction gain.
    """
    rs = np.unique(np.concatenate([np.linspace(0.0, 0.5, 96),
                                   0.5 * np.geomspace(1e-7, 1.0, 64)]))
    chans = np.zeros((len(rs), 2, v1_card, v2_card))
    for i, r in enumerate(rs):
        for x2 in (0, 1):
            chans[i, x2, :, x2] = 1.0 - r
            chans[i, x2, :, 1 - x2] = r
    return rs, chans


def search_mu_int_detailed(model: BinaryModel, r2_grid, budget: int, seed: int, *,
                           threads: int | None = None):
    """Seeded random-channel search for the interactive relevance curve.

    Fixes the first half-round description V1 at the relevance-optimal test
    channel for rate h2(q), a full first description, then samples
    ``budget`` conditional pmfs p(v2 | x2, v1) with |V2| = 7, the
    single-letter bound 2 |V1| + 1, from a symmetric Dirichlet(1) per
    conditional slice.  Keeps the best relevance per rate bucket, adds the
    deterministic non-interactive baselines, and returns the upper concave
    envelope evaluated on ``r2_grid`` together with the per-bucket records.
    ``budget`` must be an integer in [1, 2**26], ``seed`` a nonnegative
    integer and ``threads`` a positive one (unset: ``IBREG_THREADS``, else
    1).  More than one thread samples on a
    pool; chunks are absorbed in chunk order, so the result does not vary.

    Deterministic for a fixed seed; samples are drawn in fixed-size chunks
    keyed by (seed, chunk index), so enlarging the budget only adds samples.
    A chunk's draws are dropped once evaluated; a record's origin names its
    channel by chunk and row, which the seed regenerates.
    """
    budget = guards.count("budget", budget, 1)
    if budget > _BUDGET_MAX:
        raise ArgumentError(f"budget must be at most 2**26 = {_BUDGET_MAX}, got {budget!r}")
    seed = guards.count("seed", seed, 0)
    name = "threads"
    if threads is None:
        name, env = "threads from IBREG_THREADS", os.environ.get("IBREG_THREADS") or "1"
        threads = int(env) if env.strip().isdecimal() else env
    threads = guards.count(name, threads, 1)
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
    # append-only point cloud: keeping every bucket-max improvement (rather
    # than only the final best) makes the envelope monotone in the budget --
    # a replaced point may have supported the hull at lower rates
    kept: list[tuple[float, float]] = []

    def absorb(rates, rels, origin):
        # sequential running-max semantics per bucket: every improvement event
        # is kept, so any budget prefix produces a subset of the kept cloud
        idx = np.clip(np.searchsorted(edges, rates, side="right") - 1, 0, _BUCKETS - 1)
        for b in np.unique(idx):
            rows = np.nonzero(idx == b)[0]
            current = -np.inf if best[b] is None else best[b].relevance
            run = np.maximum.accumulate(rels[rows])
            events = rows[(rels[rows] == run) & (run > current)]
            seen = current
            for k in events:
                if rels[k] > seen:
                    seen = float(rels[k])
                    kept.append((float(rates[k]), float(rels[k])))
                    best[b] = BucketRecord(float(rates[k]), float(rels[k]), origin(int(k)))

    base_rs, base_chans = _baseline_channels(v1.output.card, _V2_CARD)
    rates, rels = _evaluate_v2_batch(q0, base_chans)
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
        rng = np.random.default_rng([seed, j])
        block = rng.dirichlet(np.ones(_V2_CARD), size=(_CHUNK, 2, v1.output.card))
        take = min(_CHUNK, budget - j * _CHUNK)
        r, v = _evaluate_v2_batch(q0, block[:take])
        return j, r, v

    with ThreadPoolExecutor(max_workers=threads) as pool:  # one thread: chunks run here
        results = list((pool.map if threads > 1 else map)(run_chunk, range(n_chunks)))
    for j, r, v in results:
        absorb(r, v, lambda k, j=j: f"sample:{j}/{k}")

    records = [anchor] + [b for b in best if b is not None]
    ys = envelope_value(upper_concave_envelope(kept), grid)
    points = [EnvelopePoint(float(x), float(y)) for x, y in zip(grid, ys)]
    return points, records


def search_mu_int(model: BinaryModel, r2_grid, budget: int, seed: int, *,
                  threads: int | None = None) -> list[EnvelopePoint]:
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

    The outer curve is linearly interpolated at the inner sample rates lying
    inside both rate ranges; the verdict carries the worst-violation point.
    A non-finite ``tol`` raises :class:`ArgumentError`.
    """
    tol = guards.finite("tol", tol, ArgumentError)
    guards.instance("inner", inner, RegionCurve)
    if len(guards.instance("outer", outer, RegionCurve).points) < 2:
        raise ComparisonError("outer curve needs at least two points to interpolate")
    o = sorted(outer.points)
    oxs = np.array([r for r, _ in o])
    oys = np.array([mu for _, mu in o])
    ixs = inner.rates()
    iys = inner.relevances()
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
