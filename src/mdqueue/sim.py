"""Event-driven GI/GI/n FCFS simulator with the pathwise decomposition,
law-of-large-numbers and Monte Carlo tail diagnostics."""
from __future__ import annotations

import bisect
import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .dist import MAX_SHAPE, ServiceDist
from .grids import write_csv
from .paths import ModelParams, PathEquation

__all__ = [
    "ScalingRegime",
    "QueueTrace",
    "DecompositionReport",
    "simulate",
    "replications",
    "flow_balance_residuals",
    "decomposition",
    "lln_check",
    "mc_tail",
    "spawn_streams",
    "SimulationError",
]

log = logging.getLogger(__name__)
LLN_PERCENTILE = 99.0  # the percentile of the LLN sup statistic that must fall along the ladder


class SimulationError(RuntimeError):
    """The start times of a window did not settle within their pass bound."""


@dataclass(frozen=True)
class ScalingRegime:
    """Moderate-deviations scaling: server count n and the b_n rule.

    rule: ("power", gamma) gives b_n = n^gamma with gamma in (0, 1/2);
          ("log", c) gives b_n = c * ln(n).
    The traffic intensity rho_n follows from the model's beta via
    sqrt(n)/b_n (1 - rho_n) = beta.
    """

    n: int
    rule: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        kind, par = self.rule
        if kind == "power":
            if not (0.0 < par < 0.5):
                raise ValueError("power rule needs gamma in (0, 1/2)")
        elif kind == "log":
            if par <= 0:
                raise ValueError("log rule needs c > 0")
        else:
            raise ValueError(f"unknown b rule {kind!r}")
        if not self.b > 0:
            raise ValueError(f"b_n = {self.b} not positive at n = {self.n}")
        if not math.isfinite(self.condition_value):
            raise ValueError(f"b_n = {self.b} at n = {self.n}: b_n^3 n^(1/b_n^2 - 1/2) passes the float range")

    @property
    def b(self) -> float:
        kind, par = self.rule
        if kind == "power":
            return float(self.n**par)
        return float(par * math.log(self.n))

    def rho(self, beta: float) -> float:
        """The traffic intensity rho_n at slack beta; ValueError unless it is positive."""
        r = 1.0 - beta * self.b / math.sqrt(self.n)
        if not r > 0:
            raise ValueError(f"rho_n = {r} not positive at n = {self.n}")
        return r

    def arrival_rate(self, pm: ModelParams) -> float:
        """n mu rho_n of the model pm."""
        return self.n * pm.mu * self.rho(pm.beta)

    @property
    def condition_value(self) -> float:
        """b_n^3 n^{1/b_n^2 - 1/2}: must tend to 0 along the regime."""
        b = self.b
        try:
            return b**3 * self.n ** (1.0 / b**2 - 0.5)
        except (OverflowError, ZeroDivisionError):  # b_n so small that the value passes the float range
            return math.inf  # which __post_init__ rejects

    def scale(self) -> float:
        """Centering scale b_n sqrt(n)."""
        return self.b * math.sqrt(self.n)


@dataclass(frozen=True)
class QueueTrace:
    """One simulated GI/GI/n path: its arrivals, service starts and services.  The
    sorted departures and the event list (event_times, event_types, event_ids) are
    built from them, each once, the first time it is read."""

    n: int
    b: float
    q0_count: int
    horizon: float
    arrival_times: np.ndarray  # exogenous arrivals, increasing
    tau_hat: np.ndarray  # service-start times after 0, nondecreasing
    eta: np.ndarray  # matched service durations for tau_hat
    eta0: np.ndarray  # residual durations of initially in-service customers

    @functools.cached_property
    def departures(self) -> np.ndarray:
        """Every departure by the horizon, sorted: the initial customers' eta0, the started ones' tau_hat + eta."""
        dep = np.concatenate([self.eta0, self.tau_hat + self.eta])
        dep.sort()
        return dep[:np.searchsorted(dep, self.horizon, side="right")].copy()  # keeps only the cut

    @functools.cached_property
    def _events(self) -> tuple:
        """(times, types, ids) of every arrival and every departure up to the horizon,
        sorted by time; ties go arrivals first, then by customer index (they occur with
        probability zero but must be deterministic).  Only the trace file reads them."""
        arrivals, in_service = self.arrival_times, len(self.eta0)
        dep = self.tau_hat + self.eta
        keep0 = self.eta0 <= self.horizon
        keep = dep <= self.horizon
        times = np.concatenate([arrivals, self.eta0[keep0], dep[keep]])
        del dep
        # distinct times have one sorting permutation, so the default (SIMD) sort
        # gives it; on a tie the stable sort of this (type, id)-ordered
        # concatenation breaks it arrivals first, then by customer index
        order = np.argsort(times)
        event_times = times[order]
        if np.any(event_times[1:] == event_times[:-1]):
            log.debug("tied event times: stable sort")
            order = np.argsort(times, kind="stable")
            event_times = times[order]
        del times  # before the ids are built, so that at most one spare copy is alive
        types = (order >= len(arrivals)).view(np.int8)  # the arrivals come first in the concatenation
        ids = np.concatenate([
            self.q0_count + np.arange(len(arrivals)),
            np.flatnonzero(keep0),
            in_service + np.flatnonzero(keep),
        ]).astype(np.int64, copy=False)[order]
        return event_times, types, ids

    @property
    def event_times(self) -> np.ndarray:
        """All state-change times, increasing."""
        return self._events[0]

    @property
    def event_types(self) -> np.ndarray:
        """0 = arrival, 1 = departure."""
        return self._events[1]

    @property
    def event_ids(self) -> np.ndarray:
        """Customer index, in order of system entry."""
        return self._events[2]

    def to_csv(self, path) -> None:
        """The event list as rows time,type,customer, the type arrival or departure for event code 0 or 1."""
        names = np.array([",arrival,", ",departure,"], dtype=object)  # with the separators on both sides
        write_csv(path, "time,type,customer", [self.event_times, names[self.event_types], self.event_ids])

    def q_at(self, t) -> np.ndarray:
        """Right-continuous Q_n(t) = Q_n(0) + #arrivals - #departures by t, constant past the horizon."""
        return (self.q0_count + np.searchsorted(self.arrival_times, t, side="right")
                - np.searchsorted(self.departures, t, side="right"))


def spawn_streams(seed: int, count: int) -> list[np.random.Generator]:
    """Independent splittable streams from a master seed, one per replication."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _start_times(free: np.ndarray, entries: np.ndarray, horizon: float,
                 services: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start times by the horizon and their services, for n = len(free) servers
    free at `free` and customers entering at `entries`, customer k served for
    services[k].  By Kiefer-Wolfowitz, customer k starts at s_k = max(e_k, m_k),
    m_k the k-th smallest of the free times and the departures s_j + eta_j,
    j < k.  No later departure is below m_k (d_j >= s_j >= s_k >= m_k), so
    the starts of a window of w customers are the fixed point of s = max(e, the
    w smallest of free and s + eta).  Iterating from the upper bound
    max(e, free[:w]) falls onto it monotonically and fixes at least one more
    start per pass, with the same float operations as one customer at a time.
    """
    window = max(256, 4 * len(free))
    # a free time or departure after the horizon can never serve a start by it
    free = np.sort(free[free <= horizon])
    tau_hat = np.empty(len(entries))
    k = 0
    while k < len(entries):
        e = entries[k:k + window]
        w, f = len(e), len(free)
        eta = services[k:k + w]
        # the upper bound max(e, free[:w]), inf past the last free time
        s = np.full(w, np.inf)
        s[:f] = free[:w]
        np.maximum(e, s, out=s)
        pool, s_next = np.empty(f + w), np.empty(w)
        for _ in range(w + 1):
            pool[:f] = free
            np.add(s, eta, out=pool[f:])
            pool.sort()
            np.maximum(e, pool[:w], out=s_next)
            if np.array_equal(s_next, s):
                break
            s, s_next = s_next, s
        else:
            raise SimulationError(f"start times of customers {k}..{k + w - 1} did not settle in {w + 1} passes")
        started = int(np.searchsorted(s, horizon, side="right"))
        tau_hat[k:k + started] = s[:started]
        k += started
        if started < w:
            break
        # the free times and departures the window did not take carry over
        free = pool[w:np.searchsorted(pool, horizon, side="right")]
    if k == len(entries):  # nobody is cut at the horizon
        return tau_hat, services
    return tau_hat[:k].copy(), services[:k].copy()


def gap_shape(pm: ModelParams) -> int:
    """The Erlang shape k = mu / sigma^2 of the interarrival gaps, whose squared coefficient of variation is 1 / k;
    ValueError unless mu / sigma^2 lies within 1e-12 relative of an integer in [1, MAX_SHAPE]."""
    r = pm.mu / pm.sigma**2 if pm.sigma**2 > 0 else math.inf
    k = round(min(r, MAX_SHAPE + 1))
    if not (1 <= k <= MAX_SHAPE and abs(r - k) <= 1e-12 * k):
        raise ValueError(f"mu / sigma^2 = {r!r} is not an integer in [1, {MAX_SHAPE}], an Erlang gap shape")
    return k


def simulate(pm: ModelParams, sr: ScalingRegime, horizon: float, rng: np.random.Generator) -> QueueTrace:
    """Simulate one GI/GI/n FCFS path on [0, horizon], with Erlang(k) interarrival times,
    k = gap_shape(pm) = mu / sigma^2 (1: Poisson arrivals).

    Q_n(0) = round(n + q0 * b_n * sqrt(n)) clamped at 0; initially in-service
    customers carry residual times from F0, everyone entering service after 0
    draws from F.  Customers in order of system entry (the initial queue at
    time 0, then arrivals) start at max(entry, earliest free server), solved a
    window of max(256, 4n) customers at a time.  No event is sorted here: the
    trace builds its event list when it is first read.

    rng draws eta0, then the arrivals past the horizon, then one service per
    entering customer in one call, in order of entry; a customer who does not
    start by the horizon leaves its service unread.  The arrival rate is
    sr.arrival_rate(pm).
    """
    k = gap_shape(pm)
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    n = sr.n
    q0_count = max(0, int(round(n + pm.q0 * sr.scale())))
    lam = sr.arrival_rate(pm)

    in_service = min(q0_count, n)
    eta0 = np.atleast_1d(pm.law.sample_equilibrium(rng, size=in_service)) if in_service else np.empty(0)

    # pre-draw arrivals past the horizon
    chunk = max(64, int(lam * horizon * 1.2) + 64)
    gap_law = ServiceDist.erlang(k, k * lam)  # mean 1 / lam
    gaps = gap_law.sample(rng, chunk)
    arr = np.cumsum(gaps)
    while arr[-1] <= horizon:
        gaps = gap_law.sample(rng, chunk)
        arr = np.concatenate([arr, arr[-1] + np.cumsum(gaps)])
    arrivals = arr[arr <= horizon]
    del gaps, arr  # the chunks, once cut (freeing gaps before the loop read sim-ladder's peak RSS 0.7 MB higher)

    # customers in order of system entry: the initial queue at time 0, then arrivals
    entries = np.concatenate([np.zeros(q0_count - in_service), arrivals]) if q0_count > n else arrivals
    free = np.concatenate([eta0, np.zeros(n - in_service)]) if in_service < n else eta0
    tau_hat, eta = _start_times(free, entries, horizon, pm.law.sample(rng, size=len(entries)))
    return QueueTrace(n=n, b=sr.b, q0_count=q0_count, horizon=horizon,
                      arrival_times=arrivals, tau_hat=tau_hat, eta=eta, eta0=eta0)


def replications(pm: ModelParams, regimes: list[ScalingRegime], reps: int, seed: int, horizon: float):
    """Yield (regime, rep, trace) for reps replications of every regime in turn.

    Regime ridx runs on the streams spawn_streams(seed + ridx, reps).  A regime with
    rho_n > 1 is logged as overloaded once, before its first replication.
    """
    for ridx, sr in enumerate(regimes):
        if (r := sr.rho(pm.beta)) > 1.0:
            log.warning("rho_n = %.4f > 1 at n = %d: overloaded regime", r, sr.n)
        for rep, rng in enumerate(spawn_streams(seed + ridx, reps)):
            yield sr, rep, simulate(pm, sr, horizon, rng)


def flow_balance_residuals(trace: QueueTrace) -> np.ndarray:
    """(Q(t)-n)^+ + Ahat(t) - (Q(0)-n)^+ - A(t) at each distinct event time t, exact integers
    counted from the sorted arrivals, starts and departures, without the event list."""
    t = np.concatenate([trace.arrival_times, trace.departures])
    t.sort()
    res = np.searchsorted(trace.tau_hat, t, side="right")
    arrived = np.searchsorted(trace.arrival_times, t, side="right")
    last = np.ones(len(t), dtype=bool)  # the last event of each run of equal times
    np.not_equal(t[:-1], t[1:], out=last[:-1])
    del t
    res -= arrived
    res -= max(trace.q0_count - trace.n, 0)
    # at the last event of a run, the k-th (from 1), A + D = k, so Q - n = Q(0) - n + 2A - k
    arrived *= 2
    arrived -= np.arange(1, len(arrived) + 1)
    arrived += trace.q0_count - trace.n
    res += np.maximum(arrived, 0, out=arrived)
    return res[last]


@dataclass(frozen=True)
class DecompositionReport:
    """The sup over the grid of the decomposition's identity residual, and its a-priori bound."""

    sup_residual: float
    quadrature_bound: float


def _theta_sums(d: ServiceDist, t: np.ndarray, dt: float, done: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """sum_{tau_j <= t_i} (1{tau_j + eta_j <= t_i} - F(t_i - tau_j)) on the uniform grid t_i = i dt for
    nondecreasing tau, given the count done_i of tau_j + eta_j <= t_i: done_i - #started_by(t_i) +
    sum_{tau_j <= t_i} S(t_i - tau_j), S = 1 - F the sum of w e^{-lam x} (lam x)^m / m! over m < k for
    the law's weights w, rates lam and shape k.  A start belongs to its node t_c = the first node >= tau_j
    (a start on a node adds S(0) = 1), and the binomial expansion of (lam (t_i - t_c + t_c - tau_j))^m
    splits its term at t_i into sum_{r < k} e^{-x} x^r / r! G_{k-1-r}(t_i - t_c), x = lam (t_c - tau_j),
    G_j(s) = P(Poisson(lam s) <= j).  So per phase the survival sums are the convolutions over r < k of
    the per-node sums of e^{-x} x^r / r! with G_{k-1-r} on the grid: O(n + k N^2)."""
    started = np.searchsorted(tau, t, side="right")
    # tau is sorted, so the started[i] - started[i-1] starts in (t_{i-1}, t_i] have
    # node i; starts after the last node reach no row
    cell = np.repeat(np.arange(len(t)), np.diff(started, prepend=0))
    tau = tau[:len(cell)]
    surv = np.zeros(len(t))
    k = d.shape
    for w, lam in zip(d.weights, d.rates):
        x, y = lam * (t[cell] - tau), lam * dt * np.arange(len(t))
        term, step, cdf = np.exp(-x), np.exp(-y), 0.0
        fresh, cdfs = [], []  # cdfs[j] = G_j on the grid
        for m in range(k):
            fresh.append(np.bincount(cell, weights=term, minlength=len(t)))
            cdf = cdf + step
            cdfs.append(cdf)
            term, step = term * x / (m + 1), step * y / (m + 1)
        surv += w * sum(np.convolve(f, cdfs[k - 1 - r])[:len(t)] for r, f in enumerate(fresh))
    return (done - started) + surv


def decomposition(trace: QueueTrace, eq: PathEquation) -> DecompositionReport:
    """Rebuild the decomposition from event data on the t grid of eq, the path
    equation of the trace's law and horizon, and evaluate its defect.

    All terms except the two convolutions are computed exactly from events, up
    to round-off; the residual therefore isolates the trapezoid error of the
    convolutions, which shrinks like dt.  quadrature_bound is the a-priori
    total-variation bound on that error for this trace and grid.
    """
    eq.check_grid("the trace", trace.horizon)
    d, lag = eq.pm.law, eq.lag
    scale = trace.b * math.sqrt(trace.n)
    t = np.linspace(0.0, trace.horizon, eq.n_steps + 1)  # the trace counts no departure past its horizon

    X = (trace.q_at(t) - trace.n) / scale
    A = np.searchsorted(trace.arrival_times, t, side="right")
    Y = (A / trace.n - d.mu * t) * math.sqrt(trace.n) / trace.b

    q0_done = np.searchsorted(np.sort(trace.eta0), t, side="right")
    X0 = ((len(trace.eta0) - q0_done) / trace.n - (1.0 - eq.F0)) * math.sqrt(trace.n) / trace.b

    H = Y - lag @ Y

    # Theta from the phase convolutions; the started customers' departures are all less the initial ones
    done = np.searchsorted(trace.departures, t, side="right") - q0_done
    Theta = -_theta_sums(d, t, eq.dt, done, trace.tau_hat) / scale

    Xplus = np.maximum(X, 0.0)
    X0plus = max(trace.q0_count - trace.n, 0) / scale
    residual = X - ((1.0 - eq.F) * X0plus + X0 + lag @ Xplus + H + Theta)

    def tv(vals):
        return float(np.sum(np.abs(np.diff(vals))))

    # dt sup F' and dt TV(F') on the grid, from the lag dt F'(t_k)
    sup_g, tv_g = float(np.max(lag.lags)), tv(lag.lags)
    bound = sup_g * tv(Y) + float(np.max(np.abs(Y))) * tv_g + sup_g * tv(Xplus) + float(np.max(np.abs(X))) * tv_g
    return DecompositionReport(sup_residual=float(np.max(np.abs(residual))), quadrature_bound=bound)


def lln_sup_stat(trace: QueueTrace, mu: float, t_max: float) -> float:
    """Exact sup over [0, t_max] of |Ahat(s)/n - mu s|."""
    tau = trace.tau_hat[trace.tau_hat <= t_max]
    n = trace.n
    m = len(tau)
    if m == 0:
        return mu * t_max
    i = np.arange(1, m + 1)
    cand = np.abs(i / n - mu * tau)  # just after each jump
    cand_pre = np.abs((i - 1) / n - mu * tau)  # just before each jump
    tail = abs(m / n - mu * t_max)
    return float(max(cand.max(), cand_pre.max(), tail))


def lln_check(stats_by_n: dict) -> tuple[dict, bool]:
    """The LLN trend over the ladder; stats_by_n maps n to its rung's `lln_sup_stat` values.
    Returns the LLN_PERCENTILE percentile of each rung's values by n, and whether those
    percentiles fall strictly as n grows."""
    pct = {n: float(np.percentile(stats, LLN_PERCENTILE)) for n, stats in stats_by_n.items()}
    p = [pct[n] for n in sorted(pct)]
    return pct, all(b < a for a, b in zip(p, p[1:]))


def _wilson(hits: int, reps: int) -> tuple[float, float]:
    """The 95% Wilson score interval of hits / reps."""
    p, z = hits / reps, 1.96
    denom = 1 + z**2 / reps
    centre = (p + z**2 / (2 * reps)) / denom
    half = z * math.sqrt(p * (1 - p) / reps + z**2 / (4 * reps**2)) / denom
    return centre - half, centre + half


def tail_hit(trace: QueueTrace, event: dict) -> bool:
    """Whether (Q_n - n) / (b_n sqrt(n)) reaches a at time t for event {"kind": "terminal",
    "t": t, "a": a}, or anywhere on [0, t] for kind "sup".  Q_n is counted from the
    arrivals and the sorted departures, without the event list."""
    kind, t_ev, a = event["kind"], float(event["t"]), float(event["a"])
    if kind not in ("terminal", "sup"):
        raise ValueError(f"unknown event kind {kind!r}")
    scale = trace.b * math.sqrt(trace.n)

    def reaches(q: int) -> bool:  # monotone in q
        return (q - trace.n) / scale >= a

    if kind == "terminal":
        return reaches(int(trace.q_at(t_ev)))
    q0 = trace.q0_count
    if reaches(q0):
        return True
    arrived = trace.arrival_times[:np.searchsorted(trace.arrival_times, t_ev, side="right")]
    # Q peaks right after an arrival, and arrivals go first on ties, so right after
    # arrival i (from 0) Q is q0 + i + 1 - #{departures < a_i}.  That reaches q0 + m,
    # m the least count past q0 that reaches a, iff the departure of rank i + 1 - m
    # (from 0) is not before a_i, or there is no such departure by the horizon.
    m = bisect.bisect_left(range(1, len(arrived) + 1), True, key=lambda m: reaches(q0 + m)) + 1
    late = arrived[m - 1:]  # the arrivals i >= m - 1, each against the departure of rank i + 1 - m
    return len(late) > len(trace.departures) or bool(np.any(trace.departures[:len(late)] >= late))


def mc_tail(hits_by_regime: dict) -> list[dict]:
    """Monte Carlo tail probabilities over the scaling ladder.

    hits_by_regime maps each rung's ScalingRegime to the `tail_hit` of each of
    its replications.  One row per rung: n, b, reps, hits, p_hat, its 95% Wilson
    interval and slope |ln p_hat| / b_n^2 (0.0, not -0.0, when every replication
    hits), all None and censored True when none does.  A trend diagnostic only:
    the regime's limiting constants are far beyond what naive Monte Carlo can
    certify, so no threshold ties the estimates to the rate function.
    """
    rows = []
    for sr, rung in hits_by_regime.items():
        reps, hits = len(rung), sum(rung)
        p = hits / reps if hits else None
        rows.append({"n": sr.n, "b": sr.b, "reps": reps, "hits": hits, "p_hat": p,
                     "wilson": _wilson(hits, reps) if hits else None,
                     "slope": abs(math.log(p)) / sr.b**2 if hits else None, "censored": not hits})
    return rows
