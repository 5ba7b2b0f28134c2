"""Event-driven GI/GI/n FCFS simulator with the pathwise decomposition,
law-of-large-numbers and Monte Carlo tail diagnostics."""
from __future__ import annotations

import bisect
import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .dist import ServiceDist
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
    The traffic intensity follows from beta via sqrt(n)/b_n (1 - rho_n) = beta.
    """

    n: int
    rule: tuple
    beta: float

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
        r = self.rho
        if r <= 0:
            raise ValueError(f"rho_n = {r} not positive at n = {self.n}")
        if r > 1.0:
            log.warning("rho_n = %.4f > 1 at n = %d: overloaded regime", r, self.n)
        if not math.isfinite(self.condition_value):
            raise ValueError(f"b_n = {self.b} at n = {self.n}: b_n^3 n^(1/b_n^2 - 1/2) passes the float range")

    @property
    def b(self) -> float:
        kind, par = self.rule
        if kind == "power":
            return float(self.n**par)
        return float(par * math.log(self.n))

    @property
    def rho(self) -> float:
        return 1.0 - self.beta * self.b / math.sqrt(self.n)

    def arrival_rate(self, mu: float) -> float:
        return self.n * mu * self.rho

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
    event list (event_times, q_values, event_types, event_ids) is built from them,
    once, the first time any of it is read."""

    n: int
    b: float
    q0_count: int
    horizon: float
    arrival_times: np.ndarray  # exogenous arrivals, increasing
    tau_hat: np.ndarray  # service-start times after 0, nondecreasing
    eta: np.ndarray  # matched service durations for tau_hat
    eta0: np.ndarray  # residual durations of initially in-service customers

    @functools.cached_property
    def _events(self) -> tuple:
        """(times, q_values, types, ids) of every arrival and every departure up to the
        horizon, sorted by time; ties go arrivals first, then by customer index (they
        occur with probability zero but must be deterministic)."""
        arrivals, in_service = self.arrival_times, len(self.eta0)
        dep = self.tau_hat + self.eta
        keep0 = self.eta0 <= self.horizon
        keep = dep <= self.horizon
        times = np.concatenate([arrivals, self.eta0[keep0], dep[keep]])
        types = np.repeat(np.array([0, 1], dtype=np.int8), [len(arrivals), len(times) - len(arrivals)])
        ids = np.concatenate([
            self.q0_count + np.arange(len(arrivals)),
            np.flatnonzero(keep0),
            in_service + np.flatnonzero(keep),
        ]).astype(np.int64, copy=False)
        # distinct times have one sorting permutation, so the default (SIMD) sort
        # gives it; on a tie the stable sort of this (type, id)-ordered
        # concatenation breaks it arrivals first, then by customer index
        order = np.argsort(times)
        event_times = times[order]
        if np.any(event_times[1:] == event_times[:-1]):
            log.debug("tied event times: stable sort")
            order = np.argsort(times, kind="stable")
            event_times = times[order]
        # each input is dropped once gathered, so that at most one spare copy is alive
        del times
        ids, types = ids[order], types[order]
        del order
        q_values = np.cumsum(1 - 2 * types, dtype=np.int64)
        q_values += self.q0_count
        return event_times, q_values, types, ids

    @property
    def event_times(self) -> np.ndarray:
        """All state-change times, increasing."""
        return self._events[0]

    @property
    def q_values(self) -> np.ndarray:
        """Q_n right after each event (integers)."""
        return self._events[1]

    @property
    def event_types(self) -> np.ndarray:
        """0 = arrival, 1 = departure."""
        return self._events[2]

    @property
    def event_ids(self) -> np.ndarray:
        """Customer index, in order of system entry."""
        return self._events[3]

    def q_at(self, t) -> np.ndarray:
        """Right-continuous Q_n(t)."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.event_times, t, side="right") - 1
        vals = np.concatenate([[self.q0_count], self.q_values])
        return vals[idx + 1]


def spawn_streams(seed: int, count: int) -> list[np.random.Generator]:
    """Independent splittable streams from a master seed, one per replication."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _interarrivals(rng: np.random.Generator, lam: float, count: int, family: str, shape: int) -> np.ndarray:
    if family == "exponential":
        return rng.exponential(1.0 / lam, size=count)
    if family == "erlang":
        return rng.gamma(shape, 1.0 / (lam * shape), size=count)
    raise ValueError(f"unsupported interarrival family {family!r}")


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
    return tau_hat[:k].copy(), services[:k].copy()


def simulate(
    pm: ModelParams,
    sr: ScalingRegime,
    horizon: float,
    rng: np.random.Generator,
    arrival_family: str = "exponential",
    arrival_shape: int = 1,
) -> QueueTrace:
    """Simulate one GI/GI/n FCFS path on [0, horizon].

    Q_n(0) = round(n + q0 * b_n * sqrt(n)) clamped at 0; initially in-service
    customers carry residual times from F0, everyone entering service after 0
    draws from F.  Customers in order of system entry (the initial queue at
    time 0, then arrivals) start at max(entry, earliest free server), solved a
    window of max(256, 4n) customers at a time.  No event is sorted here: the
    trace builds its event list when it is first read.

    rng draws eta0, then the arrivals past the horizon, then one service per
    entering customer in one call, in order of entry; a customer who does not
    start by the horizon leaves its service unread.  The arrival rate follows
    from sr.beta, which must be pm.beta (else ValueError).
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if sr.beta != pm.beta:  # the arrival rate reads beta from the regime, the theory from the model
        raise ValueError(f"the regime's beta = {sr.beta} is not the model's beta = {pm.beta}")
    n = sr.n
    q0_count = max(0, int(round(n + pm.q0 * sr.scale())))
    lam = sr.arrival_rate(pm.mu)

    in_service = min(q0_count, n)
    eta0 = np.atleast_1d(pm.law.sample_equilibrium(rng, size=in_service)) if in_service else np.empty(0)

    # pre-draw arrivals past the horizon
    chunk = max(64, int(lam * horizon * 1.2) + 64)
    gaps = _interarrivals(rng, lam, chunk, arrival_family, arrival_shape)
    arr = np.cumsum(gaps)
    while arr[-1] <= horizon:
        gaps = _interarrivals(rng, lam, chunk, arrival_family, arrival_shape)
        arr = np.concatenate([arr, arr[-1] + np.cumsum(gaps)])
    arrivals = arr[arr <= horizon]

    # customers in order of system entry: the initial queue at time 0, then arrivals
    entries = np.concatenate([np.zeros(q0_count - in_service), arrivals])
    free = np.concatenate([eta0, np.zeros(n - in_service)])
    tau_hat, eta = _start_times(free, entries, horizon, pm.law.sample(rng, size=len(entries)))
    return QueueTrace(n=n, b=sr.b, q0_count=q0_count, horizon=horizon,
                      arrival_times=arrivals, tau_hat=tau_hat, eta=eta, eta0=eta0)


def replications(
    pm: ModelParams,
    regimes: list[ScalingRegime],
    reps: int,
    seed: int,
    horizon: float,
    arrival_family: str = "exponential",
    arrival_shape: int = 1,
):
    """Yield (regime, rep, trace) for reps replications of every regime in turn.

    Regime ridx runs on the streams spawn_streams(seed + ridx, reps).
    """
    for ridx, sr in enumerate(regimes):
        for rep, rng in enumerate(spawn_streams(seed + ridx, reps)):
            yield sr, rep, simulate(
                pm, sr, horizon, rng,
                arrival_family=arrival_family, arrival_shape=arrival_shape,
            )


def flow_balance_residuals(trace: QueueTrace) -> np.ndarray:
    """(Q(t)-n)^+ + Ahat(t) - (Q(0)-n)^+ - A(t) at every event time, exact integers."""
    t = trace.event_times

    def counts(times):  # the times counted at each event: a time counts from the first event at or after it
        return np.bincount(np.searchsorted(t, times, side="left"), minlength=len(t) + 1)[:len(t)]

    # Ahat(t_k) - A(t_k), the starts less the arrivals counted up to event k, updated in place
    res = np.cumsum(counts(trace.tau_hat) - counts(trace.arrival_times))
    res += np.maximum(trace.q_values - trace.n, 0)
    res -= max(trace.q0_count - trace.n, 0)
    return res


@dataclass(frozen=True)
class DecompositionReport:
    """The decomposition's Theta term on a uniform grid, plus the identity residual."""

    Theta: np.ndarray
    residual: np.ndarray
    quadrature_bound: float

    @property
    def sup_residual(self) -> float:
        return float(np.max(np.abs(self.residual))) if len(self.residual) else 0.0


def _theta_sums(d: ServiceDist, t: np.ndarray, dt: float, tau: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """sum_{tau_j <= t_i} (1{tau_j + eta_j <= t_i} - F(t_i - tau_j)) on the uniform grid t_i = i dt
    for nondecreasing tau: #done_by(t_i) - #started_by(t_i) + sum_{tau_j <= t_i} S(t_i - tau_j),
    where S = 1 - F sums w e^{-lam x} (lam x)^m / m! over `ServiceDist.phases` and m < k.  A start
    belongs to its node t_c = the first node >= tau_j (a start on a node adds S(0) = 1), and the
    binomial expansion of (lam (t_i - t_c + t_c - tau_j))^m splits its term at t_i into
    sum_{r < k} e^{-x} x^r / r! G_{k-1-r}(t_i - t_c), x = lam (t_c - tau_j), with
    G_j(s) = P(Poisson(lam s) <= j).  So per phase the survival sums are the convolutions over
    r < k of the per-node sums of e^{-x} x^r / r! with G_{k-1-r} on the grid: O(n + k N^2)."""
    done = np.searchsorted(np.sort(tau + eta), t, side="right")
    started = np.searchsorted(tau, t, side="right")
    # tau is sorted, so the started[i] - started[i-1] starts in (t_{i-1}, t_i] have
    # node i; starts after the last node reach no row
    cell = np.repeat(np.arange(len(t)), np.diff(started, prepend=0))
    tau = tau[:len(cell)]
    surv = np.zeros(len(t))
    for w, lam, k in d.phases():
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
    t = np.linspace(0.0, eq.horizon, eq.n_steps + 1)

    X = (trace.q_at(t) - trace.n) / scale
    A = np.searchsorted(trace.arrival_times, t, side="right")
    Y = (A / trace.n - d.mu * t) * math.sqrt(trace.n) / trace.b

    q0_surv = len(trace.eta0) - np.searchsorted(np.sort(trace.eta0), t, side="right")
    X0 = (q0_surv / trace.n - (1.0 - eq.F0)) * math.sqrt(trace.n) / trace.b

    H = Y - lag @ Y

    # Theta: exact sum over service starts, by the phase convolutions
    Theta = -_theta_sums(d, t, eq.dt, trace.tau_hat, trace.eta) / scale

    Xplus = np.maximum(X, 0.0)
    X0plus = max(trace.q0_count - trace.n, 0) / scale
    residual = X - ((1.0 - eq.F) * X0plus + X0 + lag @ Xplus + H + Theta)

    def tv(vals):
        return float(np.sum(np.abs(np.diff(vals))))

    # dt sup F' and dt TV(F') on the grid, from the lag dt F'(t_k)
    sup_g, tv_g = float(np.max(lag.lags)), tv(lag.lags)
    bound = sup_g * tv(Y) + float(np.max(np.abs(Y))) * tv_g + sup_g * tv(Xplus) + float(np.max(np.abs(X))) * tv_g
    return DecompositionReport(Theta=Theta, residual=residual, quadrature_bound=bound)


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
    head = mu * tau[0]
    return float(max(cand.max(), cand_pre.max(), tail, head))


@dataclass(frozen=True)
class LLNReport:
    stats: dict  # n -> np.ndarray of per-replication sup statistics

    def percentiles(self) -> dict:
        return {n: float(np.percentile(s, LLN_PERCENTILE)) for n, s in self.stats.items()}

    @property
    def monotone_decreasing(self) -> bool:
        p = [v for _, v in sorted(self.percentiles().items())]
        return all(b < a for a, b in zip(p, p[1:]))


def lln_check(stats_by_n: dict) -> LLNReport:
    """The LLN trend over the ladder; stats_by_n maps n to its rung's `lln_sup_stat` values."""
    return LLNReport(stats={n: np.array(stats) for n, stats in stats_by_n.items()})


def _wilson(hits: int, reps: int) -> tuple[float, float]:
    """The 95% Wilson score interval of hits / reps."""
    p, z = hits / reps, 1.96
    denom = 1 + z**2 / reps
    centre = (p + z**2 / (2 * reps)) / denom
    half = z * math.sqrt(p * (1 - p) / reps + z**2 / (4 * reps**2)) / denom
    return centre - half, centre + half


@dataclass(frozen=True)
class TailRow:
    n: int
    b: float
    reps: int
    hits: int
    p_hat: float | None
    wilson: tuple | None
    slope: float | None  # -ln p_hat / b_n^2
    censored: bool


def tail_hit(trace: QueueTrace, event: dict) -> bool:
    """Whether (Q_n - n) / (b_n sqrt(n)) reaches a at time t for event {"kind": "terminal",
    "t": t, "a": a}, or anywhere on [0, t] for kind "sup".  Q_n is counted from the
    arrivals and departures by t, without the event list."""
    kind, t_ev, a = event["kind"], float(event["t"]), float(event["a"])
    if kind not in ("terminal", "sup"):
        raise ValueError(f"unknown event kind {kind!r}")
    scale = trace.b * math.sqrt(trace.n)

    def reaches(q: int) -> bool:  # monotone in q
        return (q - trace.n) / scale >= a

    q0 = trace.q0_count
    arrived = trace.arrival_times[:np.searchsorted(trace.arrival_times, t_ev, side="right")]
    dep = np.concatenate([trace.eta0, trace.tau_hat + trace.eta])  # every departure, unsorted
    if kind == "terminal":
        return reaches(q0 + len(arrived) - int(np.count_nonzero(dep <= t_ev)))
    if reaches(q0):
        return True
    # Q peaks right after an arrival, and arrivals go first on ties, so right after
    # arrival i (from 0) Q is q0 + i + 1 - #{departures < a_i}.  That reaches q0 + m,
    # m the least count past q0 that reaches a, iff the departure of rank i + 1 - m
    # (from 0) is not before a_i, or there is no such departure.
    m = bisect.bisect_left(range(1, len(arrived) + 1), True, key=lambda m: reaches(q0 + m)) + 1
    late = arrived[m - 1:]  # the arrivals i >= m - 1, each against the departure of rank i + 1 - m
    dep.sort()
    return len(late) > len(dep) or bool(np.any(dep[:len(late)] >= late))


def mc_tail(hits_by_regime: dict) -> list[TailRow]:
    """Monte Carlo tail probabilities over the scaling ladder.

    hits_by_regime maps each rung's ScalingRegime to the `tail_hit` of each of
    its replications.  A trend diagnostic only: the regime's limiting constants
    are far beyond what naive Monte Carlo can certify, so no threshold ties the
    estimates to the rate function.
    """
    rows = []
    for sr, rung in hits_by_regime.items():
        n, b, reps, hits = sr.n, sr.b, len(rung), sum(rung)
        if hits == 0:
            rows.append(TailRow(n, b, reps, 0, None, None, None, censored=True))
        else:
            p = hits / reps
            rows.append(TailRow(n, b, reps, hits, p, _wilson(hits, reps), -math.log(p) / b**2, censored=False))
    return rows
