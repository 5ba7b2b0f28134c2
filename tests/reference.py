"""Dense references for the matrix-free Fredholm operator of `mdqueue.fredholm`,
for the oracle's matrix-free Gram and for the prefix-trapezoid weights of
`grids.conv_trap`; the oracle's solve with its earlier min-kernel
preconditioner; for `mdqueue.sim`, the one-customer-at-a-time start-time
recursion, the node-at-a-time Theta recursion, the stable event sort, the queue
length after each event and the flow balance read from the event list, and the
earlier `lln_sup_stat` and `LLNReport` / `TailRow` reducers of the ladder; the
column-at-a-time Kiefer transform of `paths.kiefer_from_sheet` and
`paths.kiefer_energy`; the variance at the horizon of the linear path equation,
which the simulator checks; the per-family draws that are the stream reference for
`ServiceDist.sample`, `ServiceDist.sample_equilibrium` and the simulator's
interarrival gaps; the
row-at-a-time `repr` CSV writers that are the byte reference for
`grids.write_csv` and the artifacts written through it; and the test helpers
`trap_integral`, `zero_controls`, `lln_path`, `equation` and `qp_of`."""
import heapq
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from mdqueue.fredholm import shift_matrix
from mdqueue.grids import GridField2D, GridPath, trap_weights
from mdqueue.oracle import build_qp
from mdqueue.paths import ControlSet, PathEquation, defect
from mdqueue.renewal import solve_nonlinear
from mdqueue.sim import LLN_PERCENTILE, _wilson

_GAUSS_ORDER = 40  # Gauss-Legendre nodes of the inner integral in kernel_matrix


def trap_integral(values, dt):
    """Trapezoid integral of nodal values with step dt."""
    return float(trap_weights(len(values), dt) @ values)


def zero_controls(T, n_steps, n_x, mu=1.0):
    """The zero control set on n_steps time cells of [0, T] and n_x x cells."""
    return ControlSet(
        w0dot=GridPath(1.0, np.zeros(n_x + 1)),
        wdot=GridPath(T, np.zeros(n_steps + 1)),
        kdot=GridField2D(mu * T, np.zeros((n_x + 1, n_steps + 1))),
    )


def equation(q, pm):
    """The `PathEquation` of the model pm on the grid of the path q."""
    return PathEquation.from_law(pm, q.horizon, q.n_steps)


def qp_of(q, pm):
    """The oracle's constraints for the path q: `build_qp` of its equation and its defect."""
    eq = equation(q, pm)
    return build_qp(eq, defect(q, eq))


def lln_path(eq):
    """Law-of-large-numbers path on the grid of the `PathEquation` eq: its zero-control solution."""
    return solve_nonlinear(GridPath(eq.horizon, eq.drift), eq.lag)


def kernel_matrix(d, sigma, T, n_steps):
    """K(s,t) = sigma^2 (F'(|s-t|) - int_0^{s^t} F'(s-r) F'(t-r) dr) at node pairs
    of the uniform grid on [0, T]; the inner integral uses Gauss-Legendre
    quadrature, exact to roundoff for the analytic families."""
    t = np.linspace(0.0, T, n_steps + 1)
    gx, gw = leggauss(_GAUSS_ORDER)

    s_grid = t[:, None]
    t_grid = t[None, :]
    m = np.minimum(s_grid, t_grid)  # (N+1, N+1)
    # nodes r = m/2 * (gx + 1), weights m/2 * gw
    inner = np.zeros_like(m)
    for k in range(_GAUSS_ORDER):
        r = 0.5 * m * (gx[k] + 1.0)
        inner += 0.5 * m * gw[k] * d.pdf(s_grid - r) * d.pdf(t_grid - r)

    K = sigma**2 * (d.pdf(np.abs(s_grid - t_grid)) - inner)
    return 0.5 * (K + K.T)  # symmetric by construction; remove roundoff skew


def operator_matrix(d, sigma, T, n_steps):
    """Dense sigma^2 (S + S* - S* S), the reference for the matrix-free solve."""
    S = shift_matrix(d, T, n_steps)
    w = trap_weights(n_steps + 1, T / n_steps)
    Sadj = (S.T * w[None, :]) / w[:, None]
    return sigma**2 * (S + Sadj - Sadj @ S)


def volterra_weights(n_nodes, dt):
    """Prefix-trapezoid weights of the Volterra integrals int_0^{t_i} g(s) ds.

    Row i holds the weights tw_i[j] on nodes j = 0..i: dt inside, dt/2 at
    j = 0 and j = i.  Row 0 is zero and the matrix is lower triangular.
    """
    tw = np.tril(np.full((n_nodes, n_nodes), dt))
    tw[:, 0] /= 2.0
    np.fill_diagonal(tw, dt / 2.0)
    tw[0] = 0.0
    return tw


def lags(n):
    """(n, n) index table |i - j|: v[lags(n)] is the symmetric Toeplitz matrix of v."""
    idx = np.arange(n)
    return np.abs(idx[:, None] - idx[None, :])


def continuum_gram(pm, d, T, n_steps, zero_mean):
    """The N x N Gram of the path rows t_1..t_N in the trapezoid time metric and
    the exact x metric, node by node: the reference for `lag_gram` and `GramOperator`.

        G[i, i'] = m(F0_i, F0_i') + sum_{j <= min(i, i')} tw_i[j] tw_i'[j]
                   (sigma^2 surv_{i-j} surv_{i'-j} / wt_j + mu^2 m(F_{i-j}, F_{i'-j}) / wtau_j),

    with m(a, b) = int 1{x <= a} 1{x <= b} dx = min(a, b), less a b when the
    controls have zero x-mean."""
    t = np.linspace(0.0, T, n_steps + 1)
    dt = T / n_steps
    F, F0 = d.cdf(t), d.eq_cdf(t)
    surv = 1.0 - F
    wt = trap_weights(n_steps + 1, dt)

    def m(a, b):
        return np.minimum(a, b) - (a * b if zero_mean else 0.0)

    G = np.zeros((n_steps, n_steps))
    for i in range(1, n_steps + 1):
        for k in range(1, n_steps + 1):
            j = np.arange(min(i, k) + 1)
            tw_i = np.where((j == 0) | (j == i), dt / 2, dt)
            tw_k = np.where((j == 0) | (j == k), dt / 2, dt)
            lag = pm.sigma**2 * surv[i - j] * surv[k - j] / wt[j] + pm.mu**2 * m(F[i - j], F[k - j]) / (pm.mu * wt[j])
            G[i - 1, k - 1] = m(F0[i], F0[k]) + np.sum(tw_i * tw_k * lag)
    return G


def lag_gram(A, zero_mean):
    """The dense N x N Gram G = A W^-1 A^T of the path rows t_1..t_N of the
    `PathEquation` A, in O(N^2), over controls with zero x-mean when
    `zero_mean`: the reference for `GramOperator` at grids where
    `continuum_gram` is too slow.

    Row pairs give
        G[i, i'] = m(F0_i, F0_i') + sum_{j <= min(i, i')} tw_i[j] tw_i'[j] nu_j K[i-j, i'-j],
    with K = sigma^2 surv surv^T / dt + mu m(F, F^T) / dt the lag Gram at the
    interior time weights and nu_j = 2 at the half-weight end nodes j = 0, N,
    1 inside.  Interior terms have the weight dt^2, so the sum is a cumulative
    sum along each diagonal of K, which is symmetric.  The end terms then take
    their exact weights: j = 0 adds -dt^2/2 K[i, i']; j = i < i' adds
    -dt^2/2 K[0, i' - i] and j = i = i' adds -3 dt^2/4 K[0, 0], or
    -dt^2/2 K[0, 0] at i = N.
    """
    n = len(A.F)
    F, F0 = A.F, A.F0[1:]
    s = A.pm.sigma / np.sqrt(A.dt) * (1.0 - F)
    c_k = A.pm.mu / A.dt
    # Row a of the N x N arrays below is time node i = a + 1; G is scratch until the diagonal sums.
    k0 = s[0] * s + c_k * (np.minimum(F[0], F) - (F[0] * F if zero_mean else 0.0))  # row 0 of K
    K = np.minimum.outer(F[1:], F[1:])
    G = np.empty_like(K)
    if zero_mean:
        K -= np.multiply.outer(F[1:], F[1:], out=G)
    K *= c_k
    K += np.multiply.outer(s[1:], s[1:], out=G)
    # G = cumulative sums along the diagonals of K, D[i, i'] = D[i-1, i'-1] + K[i, i'],
    # started from row and column 0 of K
    G[0] = k0[:-1] + K[0]
    G[1:, 0] = k0[1:-1] + K[1:, 0]
    for a in range(1, n - 1):
        np.add(G[a - 1, :-1], K[a, 1:], out=G[a, 1:])
    # end corrections -dt^2/2 (K[i, i'] + K[0, |i' - i|]), the latter a Toeplitz view of k0
    K += np.lib.stride_tricks.sliding_window_view(np.concatenate([k0[-2:0:-1], k0[:-1]]), n - 1)[::-1]
    K *= 0.5
    G -= K
    G *= A.dt**2
    G.flat[: -1 : n] -= 0.25 * A.dt**2 * k0[0]  # diagonal i = i' < N
    G += np.minimum.outer(F0, F0, out=K)  # the w0dot term, into the spent K
    if zero_mean:
        G -= np.multiply.outer(F0, F0, out=K)
    return G


def terminal_variance(pm, horizon, zero_mean, n_steps=400):
    """v = y^T G y with (I - T)^T y = e_N on rows t_1..t_N: the variance at t_N of the linear path
    equation q = drift + T q + A u driven by white-noise controls, T the lag of
    `PathEquation.from_law(pm, horizon, n_steps)` and G its `gram_operator(zero_mean)`.  Where
    q stays positive, q^+ = q, and v is the variance of the diffusion limit of
    (Q_n(horizon) - n) / sqrt(n)."""
    eq = PathEquation.from_law(pm, horizon, n_steps)
    i, j = np.indices((n_steps + 1, n_steps + 1))
    T = np.tril(eq.lag.lags[np.abs(i - j)])  # the trapezoid weights of [0, t_i] halve j = 0 and j = i
    T[:, 0] *= 0.5
    T[i == j] *= 0.5
    u = np.random.default_rng(0).standard_normal(n_steps + 1)
    assert np.allclose((T @ u)[1:], (eq.lag @ u)[1:], rtol=0.0, atol=1e-13 * np.abs(T).sum(axis=1).max())
    y = np.linalg.solve((np.eye(n_steps) - T[1:, 1:]).T, np.eye(n_steps)[-1])
    return float(y @ (eq.gram_operator(zero_mean) @ y))


def min_kernel_min_norm(sys_, zero_mean):
    """The oracle's value lam . (r + res) / 2 for G lam = r, G the `gram_operator(zero_mean)`
    Gram of the QP `sys_`, by a CG loop of its own, preconditioned with the inverse of G's min
    kernel L diag(da) L^T alone, L the lower all-ones matrix, until the recurrence residual res
    is at most 1e-12 |r|_2: its iteration count grows with sigma, about 400 at sigma = 100.
    Returns the value and the iterations."""
    G = sys_.A.gram_operator(zero_mean)

    def min_kernel_solve(r):  # L^-T diag(da)^-1 L^-1 r
        z = np.diff(r, prepend=0.0) / G.da
        z[:-1] -= z[1:]
        return z

    lam, res = np.zeros_like(sys_.r), sys_.r.copy()
    direction = z = min_kernel_solve(res)
    rz, iters = float(res @ z), 0
    while np.linalg.norm(res) > 1e-12 * np.linalg.norm(sys_.r) and iters < 2 * len(sys_.r) + 200:
        iters += 1
        Gd = G @ direction
        alpha = rz / float(direction @ Gd)
        lam += alpha * direction
        res -= alpha * Gd
        z = min_kernel_solve(res)
        rz, rz_old = float(res @ z), rz
        direction = z + (rz / rz_old) * direction
    return 0.5 * float(lam @ (sys_.r + res)), iters


def heap_start_times(free, entries, horizon, services):
    """Kiefer-Wolfowitz start times one customer at a time over a heap of
    server-free times: customers in order of entry start at max(entry, earliest
    free time) until a start passes the horizon, customer k served for
    services[k].  Returns (starts, their services)."""
    free = list(map(float, free))
    heapq.heapify(free)
    starts = []
    for avail, service in zip(map(float, entries), map(float, services)):
        start = max(avail, free[0])
        if start > horizon:
            break
        heapq.heapreplace(free, start + service)
        starts.append(start)
    return np.array(starts, dtype=float), np.array(services[:len(starts)], dtype=float)


def family_sample(d, family, rng, size=None):
    """F draws of d by the named family: exponential, gamma, or a branch choice then an exponential."""
    if family == "exponential":
        return rng.exponential(1.0 / d.rates[0], size=size)
    if family == "erlang":
        return rng.gamma(d.shape, 1.0 / d.rates[0], size=size)
    return _family_mixture(d, rng, d.weights, size)


def family_sample_equilibrium(d, family, rng, size=None):
    """F0 draws of d by the named family: F0 of an exponential is F, of Erlang(k) the uniform mixture
    of Erlang(1..k), of a hyperexponential the hyperexponential with weights prop. to w_i / lam_i."""
    if family == "exponential":
        return family_sample(d, family, rng, size=size)
    if family == "erlang":
        j = rng.integers(1, d.shape + 1, size=size)
        return rng.gamma(j, 1.0 / d.rates[0])
    p = d.weights / d.rates
    return _family_mixture(d, rng, p / p.sum(), size)


def _family_mixture(d, rng, p, size):
    branch = rng.choice(len(p), size=size, p=p)
    return rng.exponential(1.0 / d.rates[branch])


def family_interarrivals(rng, lam, count, family, shape):
    """count gaps of rate lam: exponential, or Erlang(shape) as Gamma(shape, 1 / (lam shape))."""
    if family == "exponential":
        return rng.exponential(1.0 / lam, size=count)
    return rng.gamma(shape, 1.0 / (lam * shape), size=count)


def theta_sums_recursion(d, t, tau, eta):
    """`sim._theta_sums` node by node for nondecreasing t and tau, in O(n + N k^2):
    #done_by(t_i) - #started_by(t_i) + sum_{tau_j <= t_i} S(t_i - tau_j).  Per weight w
    and rate lam of the law's table, k its shape, the sums A_m of w e^{-lam x} (lam x)^m / m! over the
    started customers move from t_{i-1} to t_i by the binomial shift A_m <- e^{-lam h}
    sum_{r <= m} A_r (lam h)^{m-r} / (m-r)!, h = t_i - t_{i-1}, then gain the starts
    in (t_{i-1}, t_i]; a start on a node belongs to it and adds S(0) = 1."""
    done = np.searchsorted(np.sort(tau + eta), t, side="right")
    started = np.searchsorted(tau, t, side="right")
    cell = np.searchsorted(t, tau, side="left")
    live = cell < len(t)
    cell, tau = cell[live], tau[live]
    h = np.diff(t, prepend=t[0])
    surv = np.zeros(len(t))
    k = d.shape
    for w, lam in zip(d.weights, d.rates):
        x, y = lam * (t[cell] - tau), lam * h
        term, step = np.exp(-x), np.exp(-y)
        fresh, shift = np.empty((len(t), k)), np.empty((len(t), k))
        for m in range(k):
            fresh[:, m] = np.bincount(cell, weights=term, minlength=len(t))
            shift[:, m] = step
            term, step = term * x / (m + 1), step * y / (m + 1)
        a = np.zeros(k)
        for i in range(len(t)):
            a = np.convolve(a, shift[i])[:k] + fresh[i]
            surv[i] += w * a.sum()
    return (done - started) + surv


def lln_sup_stat_with_head(trace, mu, t_max):
    """`sim.lln_sup_stat` with its earlier fourth term, mu tau_0, beside the three it keeps."""
    tau = trace.tau_hat[trace.tau_hat <= t_max]
    n = trace.n
    m = len(tau)
    if m == 0:
        return mu * t_max
    i = np.arange(1, m + 1)
    cand = np.abs(i / n - mu * tau)
    cand_pre = np.abs((i - 1) / n - mu * tau)
    tail = abs(m / n - mu * t_max)
    head = mu * tau[0]
    return float(max(cand.max(), cand_pre.max(), tail, head))


@dataclass(frozen=True)
class LLNReport:
    """The earlier return type of `sim.lln_check`, the reference for its pair."""

    stats: dict  # n -> np.ndarray of per-replication sup statistics

    def percentiles(self) -> dict:
        return {n: float(np.percentile(s, LLN_PERCENTILE)) for n, s in self.stats.items()}

    @property
    def monotone_decreasing(self) -> bool:
        p = [v for _, v in sorted(self.percentiles().items())]
        return all(b < a for a, b in zip(p, p[1:]))


def lln_report(stats_by_n):
    return LLNReport(stats={n: np.array(stats) for n, stats in stats_by_n.items()})


@dataclass(frozen=True)
class TailRow:
    """The earlier row type of `sim.mc_tail`; `asdict` of it is the reference for its rows."""

    n: int
    b: float
    reps: int
    hits: int
    p_hat: float | None
    wilson: tuple | None
    slope: float | None
    censored: bool


def tail_rows(hits_by_regime):
    rows = []
    for sr, rung in hits_by_regime.items():
        n, b, reps, hits = sr.n, sr.b, len(rung), sum(rung)
        if hits == 0:
            rows.append(TailRow(n, b, reps, 0, None, None, None, censored=True))
        else:
            p = hits / reps
            rows.append(TailRow(n, b, reps, hits, p, _wilson(hits, reps), abs(math.log(p)) / b**2, censored=False))
    return rows


def stable_events(trace):
    """(times, types, ids) of the trace's events sorted by the documented rule: by
    time, ties arrivals first, then by customer index.  The events are the arrivals,
    the residual services that end by the horizon and the departures by the horizon,
    stable-sorted from that (type, id) order."""
    dep = trace.tau_hat + trace.eta
    keep0, keep = trace.eta0 <= trace.horizon, dep <= trace.horizon
    n_arr, in_service = len(trace.arrival_times), len(trace.eta0)
    times = np.concatenate([trace.arrival_times, trace.eta0[keep0], dep[keep]])
    types = np.repeat([0, 1], [n_arr, len(times) - n_arr])
    ids = np.concatenate([trace.q0_count + np.arange(n_arr), np.flatnonzero(keep0), in_service + np.flatnonzero(keep)])
    order = np.argsort(times, kind="stable")
    return times[order], types[order], ids[order]


def q_values(trace):
    """Q_n right after each event of the trace's event list: Q_n(0), plus one per arrival, less one per departure."""
    return trace.q0_count + np.cumsum(1 - 2 * trace.event_types, dtype=np.int64)


def flow_balance_from_events(trace):
    """`sim.flow_balance_residuals` from the event list: each count is binned at the first event at or
    after its time and summed, and Q is `q_values`, read after the last event of each run of equal times."""
    t = trace.event_times

    def counts(times):
        return np.bincount(np.searchsorted(t, times, side="left"), minlength=len(t) + 1)[:len(t)]

    res = np.cumsum(counts(trace.tau_hat) - counts(trace.arrival_times))
    res += np.maximum(q_values(trace) - trace.n, 0) - max(trace.q0_count - trace.n, 0)
    return res[np.diff(t, append=np.inf) != 0]


# -- the Kiefer transform, one column at a time ------------------------------


def _column_log_grid(b, u_max):
    """Nodes u on [0, u_max], 8 per x cell of b, and x = 1 - e^{-u}."""
    u = np.linspace(0.0, u_max, 8 * (b.values.shape[0] - 1) + 1)
    return u, -np.expm1(-u)


def _column_cumtrap(values, dt):
    """The cumulative trapezoid integral of one column."""
    out = np.zeros_like(values, dtype=float)
    out[1:] = np.cumsum(0.5 * dt * (values[1:] + values[:-1]))
    return out


def kiefer_from_sheet_columns(b):
    """The values of `paths.kiefer_from_sheet`, each time integral and each log-grid
    integral taken column by column."""
    u, xs = _column_log_grid(b, max(4.0, -np.log(max(b.dx, 1e-12)) + 8.0))
    by = np.apply_along_axis(_column_cumtrap, 1, b.values, b.dt)
    by_log = np.empty((len(u), by.shape[1]))
    for j in range(by.shape[1]):
        by_log[:, j] = np.interp(xs, b.x_grid, by[:, j])
    k_log = (1.0 - xs)[:, None] * np.apply_along_axis(_column_cumtrap, 0, by_log, u[1] - u[0])
    k = np.empty_like(b.values)
    for j in range(by.shape[1]):
        k[:, j] = np.interp(b.x_grid, xs, k_log[:, j])
    k[-1, :] = 0.0
    k[:, 0] = 0.0
    return k


def kiefer_energy_columns(b):
    """`paths.kiefer_energy`, each log-grid integral taken column by column."""
    u, xs = _column_log_grid(b, 30.0)
    du = u[1] - u[0]
    bdot_log = np.empty((len(u), b.values.shape[1]))
    for j in range(b.values.shape[1]):
        bdot_log[:, j] = np.interp(xs, b.x_grid, b.values[:, j])
    kdot_log = bdot_log - np.apply_along_axis(_column_cumtrap, 0, bdot_log, du)
    per_t = (trap_weights(len(u), du) * np.exp(-u)) @ kdot_log**2
    return float(per_t @ trap_weights(b.values.shape[1], b.dt)), b.integral_sq()


# -- CSV artifacts, one row and one repr per float at a time ----------------


def csv_file(path, header, columns, newline="\n"):
    """`grids.write_csv`: a float by repr, an integer by str, a string as given, and a column
    that is one string on every row."""
    n = len(next(c for c in columns if not isinstance(c, str)))
    cells = [[c] * n if isinstance(c, str) else [v if isinstance(v, str) else repr(v) for v in np.asarray(c).tolist()]
             for c in columns]
    with open(path, "w", newline="") as fh:
        fh.write(header + newline)
        for row in zip(*cells):
            fh.write("".join(row) + newline)


def path_csv(q, path):
    """`GridPath.to_csv`: header t,value, CRLF line ends."""
    rows = [f"{t!r},{v!r}\r\n" for t, v in zip(q.times.tolist(), q.values.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("t,value\r\n" + "".join(rows))


def field_csv(f, path):
    """`GridField2D.to_csv`: header x,t,value, rows in t-major order, CRLF line ends."""
    xs = [repr(x) for x in f.x_grid.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("x,t,value\r\n")
        for t, column in zip(f.t_grid.tolist(), f.values.T):
            t = repr(t)
            fh.write("".join([f"{x},{t},{v!r}\r\n" for x, v in zip(xs, column.tolist())]))


def trace_csv(trace, path):
    """The `trace_n*.csv` of `simulate`: one row per event, LF line ends."""
    names = ("arrival", "departure")
    rows = [
        f"{t!r},{names[ty]},{cid}\n"
        for t, ty, cid in zip(trace.event_times.tolist(), trace.event_types.tolist(), trace.event_ids.tolist())
    ]
    with open(path, "w", newline="") as fh:
        fh.write("time,type,customer\n" + "".join(rows))


def dist_csv(d, t, path):
    """The `dist.csv` of `dist-info` on the nodes t."""
    with open(path, "w", newline="") as fh:
        fh.write("t,cdf,pdf,eq_cdf,eq_pdf\n")
        for ti, c, p, c0, p0 in zip(t, d.cdf(t), d.pdf(t), d.eq_cdf(t), d.eq_pdf(t)):
            fh.write(f"{float(ti)!r},{float(c)!r},{float(p)!r},{float(c0)!r},{float(p0)!r}\n")


def ladder_csv(ladder, path):
    """The `ladder.csv` of `simulate` from its summary's ladder rows."""
    with open(path, "w", newline="") as fh:
        fh.write("n,b,rho,condition_value,lln_percentile\n")
        for row in ladder:
            fh.write(
                f"{row['n']},{row['b']!r},{row['rho']!r},{row['condition_value']!r},{row['lln_percentile']!r}\n"
            )


def identity_csv(rows, path):
    """The `identity.csv` of `identity-check`, one row per trace."""
    with open(path, "w", newline="") as fh:
        fh.write("n,rep,flow_balance_max,residual_sup,residual_sup_refined,quadrature_bound\n")
        for r in rows:
            fh.write(
                f"{r['n']},{r['rep']},{r['flow_balance_max']},{r['residual_sup']!r},"
                f"{r['residual_sup_refined']!r},{r['quadrature_bound']!r}\n"
            )


def oracle_csv(summary, path):
    """The `oracle.csv` of `oracle-check`: the float entries of its summary, in order."""
    path.write_text(
        "quantity,value\n"
        + "\n".join(f"{k},{v!r}" for k, v in summary.items() if isinstance(v, float))
        + "\n"
    )
