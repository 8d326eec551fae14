"""The four benchmark workloads: seeded inputs, set-up, timed passes, checks.

A workload builds its inputs from the seed alone, plus the seed-independent
critical points in ``reference.json``; the program sees only those inputs.
Rates and points are drawn jittered-stratified (one uniform draw per equal
cell), so every seed asks for the same amount of work of the same kind and
run-to-run spread comes from the machine, not from the inputs.

A pass first times its calls into ibreg, then checks the outputs; check code
never counts towards a timing and never calls ibreg, so the traced counts
hold only the timed work.  Every call goes through a module attribute
(``binary.mu_d``), never a name bound at import, so the traced run can
rebind it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import shutil
import tempfile
from array import array
from time import perf_counter, process_time

import numpy as np

from ibreg import binary, cli, gaussian, search
from ibreg.errors import SolverError
from ibreg.pmf import Channel

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 20240917  # the seed `ibreg figures` uses by default
PQ_GRID = (0.05, 0.1, 0.2, 0.3)  # the acceptance 4x4 (p, q) grid
MODELS = tuple((p, q) for p in PQ_GRID for q in PQ_GRID)
FIG3_RELEVANCES = (0.15, 0.30, 0.45, 0.60, 0.70)
FIGURES_BUDGET = 200_000
FIGURES_CSVS = tuple(f"fig3_mu{mu:.2f}.csv" for mu in FIG3_RELEVANCES) + (
    "fig4_outer.csv", "fig4_inner.csv",
    "fig6_mu_d.csv", "fig6_mu_ed.csv", "fig6_mu_int.csv")
SEEDED_CSV = "fig6_mu_int.csv"  # the only figure output that depends on the seed

TOL = 1e-9        # acceptance tolerance for values and round trips
DUAL_TOL = 1e-6   # acceptance tolerance of the primal-dual gap
INT_SLACK = 1e-3  # mu_int may sit this far below mu_d (finite search budget)


# ---------------------------------------------------------------------------
# the benchmark's own formulas, kept apart from the code under test
# ---------------------------------------------------------------------------


def _h2(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _star(a: float, b: float) -> float:
    return a * (1.0 - b) + b * (1.0 - a)


def _h2_inv(y: float) -> float:
    lo, hi = 0.0, 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _h2(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _g(r: float, q: float) -> float:
    return _h2(_star(r, q)) - _h2(r)


def _f(r: float, p: float, q: float) -> float:
    w = _star(q, r)
    return (_h2(_star(p, q)) - (1.0 - w) * _h2(_star(p, q * r / (1.0 - w)))
            - w * _h2(_star(p, (1.0 - q) * r / w)))


def _finite(x) -> bool:
    """A finite float: not an exception a timed call turned into its result."""
    return isinstance(x, float) and math.isfinite(x)


def _close(a, b, tol: float = TOL) -> bool:
    return _finite(a) and abs(a - b) <= tol


def _spread(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n jittered-stratified draws in [lo, hi]: one uniform draw per equal cell."""
    w = (hi - lo) / n
    return [lo + w * (i + rng.random()) for i in range(n)]


def _key(p: float, q: float) -> str:
    return f"{p:g},{q:g}"


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# CPU-speed probe
# ---------------------------------------------------------------------------

# The host's CPU speed drifts: identical work takes 10 ms in one stretch and
# 15-18 ms in the next, in wall and CPU time alike, and different code slows
# by different amounts.  Every timed pass is cut into segments by a probe
# whose code resembles the workload's, and each segment's times are divided
# by the probe's slowness on either side of it.  The probes run only the
# benchmark's own code, so no change to ibreg moves them.
SEGMENT_S = 0.1  # the speed has been seen to switch every half second
_PROBE_JOINT = np.full((2, 2, 2, 3), 1.0 / 24.0)
_PROBE_CHANNELS = np.full((1024, 2, 3, 7), 1.0 / 7.0)


def mixed_probe() -> float:
    """Slowness now of a pure-Python loop plus batched numpy entropy sums.

    1.0 at the reference speed, where the probe takes 8 ms.
    """
    t0 = perf_counter()
    s = 0.0
    for i in range(100_000):
        s += i * 0.5
    for _ in range(2):
        j = np.einsum("acdv,bcvw->bacdvw", _PROBE_JOINT, _PROBE_CHANNELS)
        m = j.sum(axis=(2, 3)).reshape(len(j), -1)
        s += float((m * np.log2(m)).sum())
    return (perf_counter() - t0) / 0.008


def scalar_probe() -> float:
    """Slowness now of scalar entropy arithmetic, the binary curves' kind of work.

    1.0 at the reference speed, where the probe takes 4.5 ms.
    """
    t0 = perf_counter()
    s = 0.0
    for i in range(1, 2800):
        x = i / 5601.0
        s += _f(x, 0.1, 0.2) + _g(x, 0.2) + _h2(x)
    return (perf_counter() - t0) / 0.0045


def at_reference_speed(timed, probe=mixed_probe) -> tuple:
    """Run ``timed()``; return its result and the factor that rescales its times."""
    before = probe()
    result = timed()
    return result, 1.0 / (0.5 * (before + probe()))


# ---------------------------------------------------------------------------
# per-run tallies
# ---------------------------------------------------------------------------


class Recorder:
    """Pass timings, item latencies and checked operations of one run.

    A pass's timed region is cut into segments by speed probes: one at
    ``start_pass``, one after the first item that ends SEGMENT_S or more
    into a segment, and one at ``end_pass``.  Each segment's times are
    rescaled by the probes on either side of it, so a pass follows the CPU
    speed as it drifts.  Probe time counts in no timing.
    """

    def __init__(self, probe=mixed_probe) -> None:
        self.probe = probe
        # per pass: [wall s, cpu s, item latencies s] at the reference CPU
        # speed, and the mean rescaling factor of its segments
        self.passes: list[list] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.observed: dict[str, float] = {}

    def start_pass(self) -> None:
        self._pass = [0.0, 0.0, array("d"), []]
        self._probe = self.probe()
        self._open()

    def _open(self) -> None:
        self._items: list[float] = []
        self._t0, self._c0 = perf_counter(), process_time()

    def item(self, seconds: float) -> None:
        self._items.append(seconds)
        if perf_counter() - self._t0 >= SEGMENT_S:
            self._split()

    def _split(self) -> None:
        """End the current segment and start the next one."""
        wall, cpu = perf_counter() - self._t0, process_time() - self._c0
        probe = self.probe()
        factor = 1.0 / (0.5 * (self._probe + probe))
        self._probe = probe
        self._pass[0] += wall * factor
        self._pass[1] += cpu * factor
        self._pass[2].extend(x * factor for x in self._items)
        self._pass[3].append(factor)
        self._open()

    def end_pass(self) -> None:
        self._split()
        wall, cpu, items, factors = self._pass
        self.passes.append([wall, cpu, items, sum(factors) / len(factors)])

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; a false ``ok`` counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def observe_max(self, name: str, value: float) -> None:
        self.observed[name] = max(self.observed.get(name, 0.0), value)


def _call(fn, *args, **kw):
    """Run one timed call; an exception becomes the result, to be checked."""
    try:
        return fn(*args, **kw)
    except Exception as exc:  # noqa: BLE001 - a raised error is a checked outcome
        return exc


class Workload:
    """Seeded inputs plus set-up, one pass, and the checks of that pass."""

    name = ""
    items_per_pass = 1
    probe = staticmethod(mixed_probe)
    MIN_ITEMS = 100  # so that p90 has ten samples beyond it

    def __init__(self, seed: int, reference: dict) -> None:
        self.seed = seed
        # values recorded at the seed commit apply to the default seed only
        self.expected = (reference["default_seed"].get(self.name)
                         if seed == DEFAULT_SEED else None)
        self.rng = random.Random(f"{self.name}/{seed}")

    def min_passes(self) -> int:
        return -(-self.MIN_ITEMS // self.items_per_pass)

    def setup(self) -> None:
        """Build the models and make one untimed warm-up call per model."""

    def run_pass(self, rec: Recorder) -> None:
        out = self.timed(rec)
        self.check(out, rec)
        if self.expected is not None:
            try:
                bad = _first_mismatch(self.values(out), self.expected)
            except (AttributeError, KeyError, TypeError):
                bad = "missing: a timed call raised"  # already failed by check()
            rec.check(bad is None, f"{self.name}: value {bad} differs from the "
                                   "one recorded at the seed commit")

    def timed(self, rec: Recorder):
        raise NotImplementedError

    def check(self, out, rec: Recorder) -> None:
        raise NotImplementedError

    def values(self, out):
        """The outputs that reference.json records for the default seed."""
        raise NotImplementedError


def _first_mismatch(got: list, want: list):
    """Index of the first value off its recorded one by more than TOL, or None."""
    if len(got) != len(want):
        return f"count {len(got)} != {len(want)}"
    for i, (a, b) in enumerate(zip(got, want)):
        if not _close(a, b):
            return i
    return None


# ---------------------------------------------------------------------------
# binary-curves: mu_d / mu_ed / optimal_channel as `ibreg curve` serves them
# ---------------------------------------------------------------------------


class BinaryCurves(Workload):
    """Critical points of all 16 models, then per-rate curve evaluations.

    Per pass and model: 32 rates on the linear segment and 8 on the curved
    branch; the 5 degenerate models (no linear segment) get 8 curved rates.
    That puts 27% of the items on the curved branch: p50 lands inside the
    cheap linear mode and p90 inside the curved mode, both away from the
    boundary between the two.
    """

    name = "binary-curves"
    probe = staticmethod(scalar_probe)
    LINEAR, CURVED, DEGENERATE = 32, 8, 8

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        self.crit = reference["critical_points"]
        self.items = []  # (p, q, rate, branch)
        for p, q in MODELS:
            hq = _h2(q)
            cp = self.crit[_key(p, q)]
            if cp is None:
                rates = [(r, "curved") for r in
                         _spread(self.rng, self.DEGENERATE, 0.02 * hq, 0.98 * hq)]
            else:
                rc, span = cp["rate"], hq - cp["rate"]
                rates = ([(r, "linear") for r in
                          _spread(self.rng, self.LINEAR, 0.02 * rc, 0.98 * rc)]
                         + [(r, "curved") for r in
                            _spread(self.rng, self.CURVED, rc + 0.02 * span,
                                    hq - 0.02 * span)])
            self.items += [(p, q, r, branch) for r, branch in rates]
        self.items_per_pass = len(self.items)

    def setup(self):
        self.models = [binary.BinaryModel(p, q) for p, q in MODELS]
        for m in self.models:
            binary.mu_d(0.5 * _h2(m.q), m.p, m.q)

    def timed(self, rec):
        rec.start_pass()
        cps = [_call(binary.critical_point, m.p, m.q) for m in self.models]
        results = []
        for p, q, rate, _ in self.items:
            t0 = perf_counter()
            try:
                res = (binary.mu_d(rate, p, q), binary.mu_ed(rate, p, q),
                       binary.optimal_channel(rate, p, q))
            except Exception as exc:  # noqa: BLE001 - checked below
                res = exc
            rec.item(perf_counter() - t0)
            results.append(res)
        rec.end_pass()
        return cps, results

    def check(self, out, rec):
        cps, results = out
        for (p, q), cp in zip(MODELS, cps):
            want = self.crit[_key(p, q)]
            if want is None:
                ok = isinstance(cp, SolverError)
            else:
                ok = (isinstance(cp, binary.CriticalPoint)
                      and all(_close(getattr(cp, k), want[k]) for k in want))
            rec.check(ok, f"critical_point({p}, {q}) = {cp!r}, expected {want}")
        for (p, q, rate, branch), res in zip(self.items, results):
            where = f"(p={p}, q={q}, R={rate!r})"
            if isinstance(res, Exception):
                for fn in ("mu_d", "mu_ed", "optimal_channel"):
                    rec.check(False, f"{fn}{where} raised {res!r}")
                continue
            d, ed, ch = res
            hq, hpq = _h2(q), _h2(_star(p, q))
            base, top = 1.0 - hpq, 1.0 - _h2(p)
            lo_slope = (hpq - _h2(p)) / hq
            rec.check(_finite(d) and base + lo_slope * rate - TOL <= d <= base + rate + TOL
                      and d <= ed + TOL, f"mu_d{where} = {d!r} outside its sandwich")
            rec.check(_close(ed, 1.0 - _h2(_star(_h2_inv(hq - rate), p)))
                      and ed <= top + TOL, f"mu_ed{where} = {ed!r}")
            cp = self.crit[_key(p, q)]
            if branch == "linear":
                ok = (ch.kind == "timeshared" and _close(ch.lam, rate / cp["rate"])
                      and _close(ch.r_c, cp["crossover"])
                      and _close(d, base + cp["alpha_star"] * rate))
            else:
                ok = (ch.kind == "direct" and _close(_g(ch.r, q), rate)
                      and _close(d, base + _f(ch.r, p, q)))
            rec.check(ok, f"optimal_channel{where} = {ch!r} inconsistent with mu_d {d!r}")

    def values(self, out):
        return [v for res in out[1] for v in res[:2]]


# ---------------------------------------------------------------------------
# binary-oracles: dual and time-sharing oracles, channel-stack evaluation
# ---------------------------------------------------------------------------


class BinaryOracles(Workload):
    """Acceptance criteria 2 and 4 as verification traffic.

    Per pass and model: the dual oracle at R = 0, three linear-segment
    rates, three curved rates and h2(q) (six curved rates on degenerate
    models); the time-sharing oracle at the last curved rate; two BSC stacks
    through the channel-stack evaluator.  Dual calls at the two ends cost
    about half of those inside, and inside the cost spreads with the rate, so
    the interior rates are three quarters of the items: p50 sits well inside
    the interior mode, not on the edge between the two.
    """

    name = "binary-oracles"
    probe = staticmethod(scalar_probe)
    STACKS = 2

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        crit = reference["critical_points"]
        self.items, self.timeshare, self.stacks = [], [], []
        for p, q in MODELS:
            hq, cp = _h2(q), crit[_key(p, q)]
            if cp is None:
                mid = _spread(self.rng, 6, 0.02 * hq, 0.98 * hq)
            else:
                rc, span = cp["rate"], hq - cp["rate"]
                mid = (_spread(self.rng, 3, 0.02 * rc, 0.98 * rc)
                       + _spread(self.rng, 3, rc + 0.02 * span, hq - 0.02 * span))
            self.items += [(p, q, r) for r in (0.0, *mid, hq)]
            self.timeshare.append((p, q, mid[-1]))
            self.stacks += [(p, q, r) for r in _spread(self.rng, self.STACKS, 0.005, 0.5)]
        self.items_per_pass = len(self.items)

    def setup(self):
        sources = {}
        for p, q in MODELS:
            m = binary.BinaryModel(p, q)
            sources[p, q] = m.twcib_source()
            binary.mu_d(0.5 * _h2(q), p, q)
            binary.mu_d_dual(0.5 * _h2(q), p, q)
        v2 = Channel.constant([("x2", 2), ("v1", 2)], "v2")
        self.schedules = [
            (sources[p, q], search.RoundSchedule(1, (Channel.bsc("x1", "v1", r), v2)))
            for p, q, r in self.stacks]

    def timed(self, rec):
        rec.start_pass()
        duals = []
        for p, q, rate in self.items:
            t0 = perf_counter()
            duals.append((_call(binary.mu_d_dual, rate, p, q), _call(binary.mu_d, rate, p, q)))
            rec.item(perf_counter() - t0)
        ts = [_call(binary.mu_d_timeshare_oracle, r, p, q) for p, q, r in self.timeshare]
        pts = [_call(search.evaluate_twcib, src, sched) for src, sched in self.schedules]
        rec.end_pass()
        return duals, ts, pts

    def check(self, out, rec):
        duals, ts, pts = out
        primal = {}
        for (p, q, rate), (dual, d) in zip(self.items, duals):
            where = f"(p={p}, q={q}, R={rate!r})"
            primal[p, q, rate] = d
            hpq = _h2(_star(p, q))
            lo_slope = (hpq - _h2(p)) / _h2(q)
            rec.check(_finite(d) and 1.0 - hpq + lo_slope * rate - TOL <= d
                      <= 1.0 - hpq + rate + TOL, f"mu_d{where} = {d!r}")
            gap = abs(dual - d) if _finite(dual) and _finite(d) else math.inf
            rec.observe_max("binary.dual_gap.max", gap)
            rec.check(gap <= DUAL_TOL, f"mu_d_dual{where} = {dual!r}, mu_d = {d!r}")
        for (p, q, rate), t in zip(self.timeshare, ts):
            d = primal[p, q, rate]
            rec.check(_finite(t) and 1.0 - _h2(_star(p, q)) - TOL <= t <= d + TOL,
                      f"mu_d_timeshare_oracle(p={p}, q={q}, R={rate!r}) = {t!r} "
                      f"above mu_d = {d!r}")
        for (p, q, r), pt in zip(self.stacks, pts):
            ok = (isinstance(pt, search.RegionPoint) and _close(pt.r1, _g(r, q))
                  and _close(pt.mu2, 1.0 - _h2(_star(p, q)) + _f(r, p, q)))
            rec.check(ok, f"evaluate_twcib(BSC({r!r})) at p={p}, q={q} = {pt!r}")

    def values(self, out):
        duals, ts, pts = out
        return ([d for _, d in duals] + list(ts)
                + [v for pt in pts for v in (pt.r1, pt.mu2)])


# ---------------------------------------------------------------------------
# gaussian-regions: outer frontier versus additive inner bound, round trips
# ---------------------------------------------------------------------------


class GaussianRegions(Workload):
    """Criterion 6 on seeded rate pairs, plus the closed-form round trips.

    Per pass: 36 (R1, R2) points, one per cell of a 6x6 grid on [0, 2.5]^2;
    two R1 per fig-3 relevance through the X1-X2-Y inverse; three two-way
    variance round trips.
    """

    name = "gaussian-regions"
    CELLS, R_MAX = 6, 2.5
    TWCIB_RHO = dict(rho_x1x2=0.5, rho_x1y1=0.4, rho_x2y1=0.8,
                     rho_x2y2=0.7, rho_x1y2=0.55)

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        w = self.R_MAX / self.CELLS
        self.points = [(w * (i + self.rng.random()), w * (j + self.rng.random()))
                       for i in range(self.CELLS) for j in range(self.CELLS)]
        self.round_trips = [(r1, mu) for mu in FIG3_RELEVANCES
                            for r1 in _spread(self.rng, 2, 0.0, 3.0)]
        self.shares = _spread(self.rng, 3, 0.1, 0.85)
        self.items_per_pass = len(self.points)
        # I(Y; X1, X2) on the X1-Y-X2 chain at rho 0.8 / 0.6 bounds every region
        e1, e2 = 0.8 ** 2, 0.6 ** 2
        self.i_y_x1x2 = 0.5 * math.log2((1.0 - e1 * e2) / ((1.0 - e1) * (1.0 - e2)))

    def setup(self):
        self.chain = gaussian.GaussianCdibModel.chain_x1_y_x2(0.8, 0.6)
        self.fig3 = gaussian.GaussianCdibModel.chain_x1_x2_y(0.8, 0.8)
        self.twcib = gaussian.GaussianTwcibModel(**self.TWCIB_RHO)
        m = self.twcib
        lim1 = gaussian.twcib_relevance_limit(m, 1)
        lim2 = gaussian.twcib_relevance_limit(m, 2)
        iy2x2 = -0.5 * math.log2(1.0 - m.rho_x2y2 ** 2)
        iy1x1 = -0.5 * math.log2(1.0 - m.rho_x1y1 ** 2)
        self.twcib_mus = [(iy1x1 + t * (lim2 - iy1x1), iy2x2 + t * (lim1 - iy2x2))
                          for t in self.shares]
        gaussian.cdib_x1yx2_outer_frontier(self.chain, 1.0, 1.0)
        gaussian.cdib_x1yx2_inner(self.chain, 1.0, 1.0)
        gaussian.cdib_x1x2y_mu(self.fig3, 1.0, 1.0)
        gaussian.twcib_point_for_variances(m, 1.0, 1.0)

    def timed(self, rec):
        rec.start_pass()
        regions = []
        for r1, r2 in self.points:
            t0 = perf_counter()
            regions.append((_call(gaussian.cdib_x1yx2_outer_frontier, self.chain, r1, r2),
                            _call(gaussian.cdib_x1yx2_inner, self.chain, r1, r2)))
            rec.item(perf_counter() - t0)
        trips = []
        for r1, mu in self.round_trips:
            r2 = _call(gaussian.cdib_x1x2y_r2, self.fig3, r1, mu)
            back = (_call(gaussian.cdib_x1x2y_mu, self.fig3, r1, r2)
                    if isinstance(r2, float) else r2)
            trips.append((r2, back))
        twoway = []
        for mu1, mu2 in self.twcib_mus:
            v = _call(gaussian.twcib_test_channel_variances, self.twcib, mu1, mu2)
            pt = (_call(gaussian.twcib_point_for_variances, self.twcib,
                        v["sigma_p1_sq"], v["sigma_p2_sq"])
                  if isinstance(v, dict) else v)
            twoway.append((pt, _call(gaussian.twcib_rate_for_relevance, self.twcib, 1, mu2),
                           _call(gaussian.twcib_rate_for_relevance, self.twcib, 2, mu1)))
        rec.end_pass()
        return regions, trips, twoway

    def check(self, out, rec):
        regions, trips, twoway = out
        for (r1, r2), (outer, inner) in zip(self.points, regions):
            where = f"(R1={r1!r}, R2={r2!r})"
            rec.check(_finite(inner) and 0.0 <= inner <= self.i_y_x1x2 + TOL,
                      f"cdib_x1yx2_inner{where} = {inner!r}")
            rec.check(_finite(outer) and _finite(inner)
                      and inner - TOL <= outer <= min(self.i_y_x1x2, r1 + r2) + TOL,
                      f"outer frontier{where} = {outer!r} below inner bound {inner!r}")
        for (r1, mu), (r2, back) in zip(self.round_trips, trips):
            where = f"(R1={r1!r}, mu={mu})"
            rec.check(_finite(r2) and r2 >= 0.0, f"cdib_x1x2y_r2{where} = {r2!r}")
            # a clamped R2 = 0 means R1 alone already exceeds mu
            ok = _close(back, mu) if isinstance(r2, float) and r2 > 0.0 else \
                (isinstance(back, float) and back >= mu - TOL)
            rec.check(ok, f"cdib_x1x2y_mu round trip{where}: R2={r2!r} gives {back!r}")
        for (mu1, mu2), (pt, rate1, rate2) in zip(self.twcib_mus, twoway):
            where = f"(mu1={mu1!r}, mu2={mu2!r})"
            ok = isinstance(pt, dict)
            rec.check(ok and _close(pt["mu1"], mu1) and _close(pt["mu2"], mu2),
                      f"twcib variance round trip{where} = {pt!r}")
            rec.check(ok and _close(pt["R1"], rate1),
                      f"twcib_rate_for_relevance(1){where} = {rate1!r} vs {pt!r}")
            rec.check(ok and _close(pt["R2"], rate2),
                      f"twcib_rate_for_relevance(2){where} = {rate2!r} vs {pt!r}")

    def values(self, out):
        regions, trips, twoway = out
        return ([v for res in regions for v in res] + [r2 for r2, _ in trips]
                + [pt[k] for pt, _, _ in twoway for k in ("R1", "R2", "mu1", "mu2")])


# ---------------------------------------------------------------------------
# figures: `ibreg figures` in process
# ---------------------------------------------------------------------------


def _read_xy(path: str) -> tuple[list[float], list[float]]:
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return [float(r[0]) for r in rows[1:]], [float(r[1]) for r in rows[1:]]


class Figures(Workload):
    """``ibreg figures --seed <seed> --budget 200000`` through ``cli.main``.

    A pass is one call, so the item latency is the latency of the whole
    command.  Every CSV but the seeded search curve must match the hash
    recorded at the seed commit on any seed; for the default seed that one
    must match too.
    """

    name = "figures"
    MIN_ITEMS = 1  # one item per pass: the run length sets the count

    def __init__(self, seed, reference, workdir: str):
        super().__init__(seed, reference)
        self.workdir = workdir
        # at another seed, the seeded curve is checked against its invariants only
        self.hashes = {k: v for k, v in reference["figures_sha256"].items()
                       if seed == DEFAULT_SEED or k != SEEDED_CSV}

    def argv(self, out: str) -> list[str]:
        return ["figures", "--out", out, "--seed", str(self.seed),
                "--budget", str(FIGURES_BUDGET)]

    def setup(self):
        cli.build_parser()
        binary.mu_d(0.0, 0.1, 0.1)

    def run_pass(self, rec):
        out = tempfile.mkdtemp(prefix="figures-", dir=self.workdir)
        try:
            rec.start_pass()
            t0 = perf_counter()
            code = _call(cli.main, self.argv(out))
            rec.item(perf_counter() - t0)
            rec.end_pass()
            rec.check(code == 0, f"ibreg figures exited with {code!r}")
            self.check_files(out, rec)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def check_files(self, out: str, rec: Recorder) -> None:
        written = 0
        for name in FIGURES_CSVS:
            path = os.path.join(out, name)
            try:
                with open(path, "rb") as fh:
                    body = fh.read()
                with open(path[:-4] + ".json", "rb") as fh:
                    meta = fh.read()
            except OSError as exc:
                rec.check(False, f"{name}: {exc}")
                continue
            written += len(body) + len(meta)
            meta_digest = hashlib.sha256(meta.rstrip(b"\n")).hexdigest()
            digest = hashlib.sha256(body).hexdigest()
            rec.check(body.startswith(f"# json-meta: sha256:{meta_digest}\n".encode())
                      and self.hashes.get(name, digest) == digest,
                      f"{name} differs from the output recorded at the seed commit")
            if name == SEEDED_CSV:
                rec.check(self._int_within_bounds(out),
                          f"{name} breaks mu_d - {INT_SLACK} <= mu_int <= mu_ed")
        rec.observe_max("cli.bytes_written", float(written))

    @staticmethod
    def _int_within_bounds(out: str) -> bool:
        xd, yd = _read_xy(os.path.join(out, "fig6_mu_d.csv"))
        xe, ye = _read_xy(os.path.join(out, "fig6_mu_ed.csv"))
        xi, yi = _read_xy(os.path.join(out, SEEDED_CSV))
        return (xd == xe == xi and len(xi) > 1
                and all(d - INT_SLACK <= i <= e + TOL for d, e, i in zip(yd, ye, yi)))

    def scaling_2t(self, rec: Recorder) -> float:
        """Speed-up of the figures search from 1 to 2 threads (untraced)."""
        model = binary.BinaryModel(0.1, 0.1)
        grid = [i * _h2(0.1) / 63 for i in range(64)]
        times, curves = [], []
        for threads in (1, 2):
            t0 = perf_counter()
            pts = _call(search.search_mu_int, model, grid, FIGURES_BUDGET, self.seed,
                        threads=threads)
            times.append(perf_counter() - t0)
            curves.append(pts if isinstance(pts, Exception) else [p.y for p in pts])
        rec.check(not isinstance(curves[0], Exception) and curves[0] == curves[1],
                  "search_mu_int differs between 1 and 2 threads")
        return times[0] / times[1]


WORKLOADS = {
    "binary-curves": BinaryCurves,
    "binary-oracles": BinaryOracles,
    "gaussian-regions": GaussianRegions,
    "figures": Figures,
}


def build(name: str, seed: int, workdir: str, reference: dict | None = None) -> Workload:
    reference = load_reference() if reference is None else reference
    if name == "figures":
        return Figures(seed, reference, workdir)
    return WORKLOADS[name](seed, reference)
