"""Service-time distribution families with exact cdf/pdf and stationary-excess laws.

Supported families all have analytic cdf and density: exponential, Erlang and
hyperexponential mixtures.  Each is a mixture of Erlang terms of one shape, so
one closed form gives F, F' and F0 for all of them, accurate relative to their
size near x = 0 too, and one draw samples F and F0.  Tabulated or atomic
distributions are rejected by construction; the downstream solvers need F'
everywhere and a strictly increasing F for the inverse maps.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = ["ServiceDist"]

_INV_TOL = 1e-12
# The largest supported Erlang shape.  The cdf sums Poisson terms from e^{-y}, which
# underflows past y = 745: at shape 500 it is within 1e-14 of the regularised incomplete
# gamma function, at 600 within 2e-8, and at 1000 it reads 1 where that is 5.5e-12.
MAX_SHAPE = 500


def _check_nonneg(x):
    x = np.asarray(x, dtype=float)
    if (x < 0).any():
        raise ValueError("time argument must be nonnegative")
    return x


def _probabilities(p) -> np.ndarray:
    """p as a float array, checked to lie in [0, 1]."""
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("probability must be in [0, 1]")
    return p


def _mix(coef: np.ndarray, branches: np.ndarray):
    """sum_i coef_i branches[i], over the mixture branches on axis 0."""
    return (coef.reshape(coef.shape + (1,) * (branches.ndim - 1)) * branches).sum(axis=0)


def _as_input(x: np.ndarray):
    """A Python float for a scalar argument, the array otherwise."""
    return float(x) if x.ndim == 0 else x


@dataclass(frozen=True)
class ServiceDist:
    """Absolutely continuous service-time law on (0, inf): the phase table of
    sum_i w_i Erlang(shape, lam_i).

    rates:  positive rate parameters lam_i, one per mixture branch
    shape:  Erlang integer shape, 1 when there are several rates
    weights: mixture weights summing to 1
    """

    rates: np.ndarray
    shape: int = 1
    weights: np.ndarray = (1.0,)  # stored as a float array, like rates

    def __post_init__(self):
        for name in ("rates", "weights"):  # a bool, str, null or nested entry is rejected, not coerced
            v = np.atleast_1d(np.asarray(getattr(self, name), dtype=object))
            if v.ndim != 1 or not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in v):
                raise ValueError(f"{name} must be a list of numbers, got {v.tolist()!r}")
            object.__setattr__(self, name, v.astype(float))
        if not np.all((self.rates > 0) & np.isfinite(self.rates)):
            raise ValueError("rates must be positive and finite")
        # bool and str are rejected, not coerced; an integral float such as 3.0 is stored as 3
        k = self.shape
        if (isinstance(k, bool) or not isinstance(k, numbers.Real) or not float(k).is_integer()
                or not 1 <= k <= MAX_SHAPE):
            raise ValueError(f"shape must be an integer in [1, {MAX_SHAPE}], got {k!r}")
        object.__setattr__(self, "shape", int(k))
        if not (np.all(self.weights > 0) and abs(self.weights.sum() - 1.0) <= 1e-12):
            raise ValueError("weights must be positive and sum to 1")
        if len(self.rates) != len(self.weights):
            raise ValueError("weights and rates must have equal length")
        if len(self.rates) > 1 and self.shape != 1:  # no mixture of Erlang(k > 1) branches is supported
            raise ValueError("a law with several rates must have shape 1")
        with np.errstate(over="ignore"):  # the service rate mu is 1 / mean
            mean = self.mean
        if not math.isfinite(mean):
            raise ValueError(f"mean {mean} is not finite")

    # -- constructors ------------------------------------------------------

    @classmethod
    def exponential(cls, rate: float) -> "ServiceDist":
        return cls(rates=[rate])

    @classmethod
    def erlang(cls, shape: int, rate: float) -> "ServiceDist":
        return cls(rates=[rate], shape=shape)

    @classmethod
    def hyperexponential(cls, weights, rates) -> "ServiceDist":
        return cls(rates=rates, weights=weights)

    @classmethod
    def from_spec(cls, spec: dict) -> "ServiceDist":
        """Build from the JSON config block {"family": ..., parameters}."""
        spec = dict(spec)
        family = spec.pop("family", None)
        if family == "exponential":
            d = cls.exponential(spec.pop("rate"))
        elif family == "erlang":
            d = cls.erlang(spec.pop("shape"), spec.pop("rate"))
        elif family == "hyperexponential":
            d = cls.hyperexponential(spec.pop("weights"), spec.pop("rates"))
        else:
            raise ValueError(f"unsupported distribution family: {family!r}")
        if spec:
            raise ValueError(f"unknown distribution keys: {sorted(spec)}")
        return d

    @property
    def family(self) -> str:
        """The table's name: several rates are hyperexponential, one rate at a shape above 1 Erlang."""
        return "hyperexponential" if len(self.rates) > 1 else "erlang" if self.shape > 1 else "exponential"

    # -- moments -----------------------------------------------------------

    @functools.cached_property
    def mean(self) -> float:
        return float(np.sum(self.weights * self.shape / self.rates))

    @property
    def mu(self) -> float:
        """Service rate, the reciprocal mean."""
        return 1.0 / self.mean

    # -- cdf / pdf ---------------------------------------------------------
    # Every law is the mixture sum_i w_i Erlang(k, lam_i) over the phase
    # table (weights, rates, shape).

    def _erlang_cdfs(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """E_k and E_1 + ... + E_k at y = lam_i x, E_j(y) = P(Poisson(y) >= j) the Erlang(j) cdf, each accurate
        relative to its size.  With P_m = e^{-y} y^m / m!, E_1 = -expm1(-y) and E_{j+1} = E_j - P_j, a difference
        that cancels where E_{j+1} is small near y = 0 but not where y >= k.  Where y < k, E_k is the tail sum of
        P_m over m >= k, and E_1 + ... + E_k = sum_{m < k} m P_m + k E_k everywhere: positive terms."""
        k, y = self.shape, np.multiply.outer(self.rates, x)
        top, term, head = -np.expm1(-y), np.exp(-y), np.zeros_like(y)  # head: sum_{m < k} m P_m
        for j in range(1, k):  # in place: the arrays are small in `_inverse`'s Newton steps
            term *= y
            term /= j
            top -= term
            head += j * term
        if k > 1:
            low = y < k
            # P_{k-1+j} = P_{k-1} prod_{i <= j} y / (k - 1 + i): one block of cumulative products, a row per y
            top[low] = term[low] * (y[low][:, None] / self._tail_divisors).cumprod(axis=1).sum(axis=1)
        return top, head + k * top

    @functools.cached_property
    def _tail_divisors(self) -> np.ndarray:
        """k, ..., m: the terms P_k, ..., P_m that `_erlang_cdfs` sums for E_k where y < k."""
        k, m, share = self.shape, self.shape, 1.0
        while share * k > 1e-17 * (m + 1 - k):  # the terms past P_m add at most P_m y / (m + 1 - y), most at y = k
            m += 1
            share *= k / m
        return np.arange(k, m + 1, dtype=float)

    def cdf(self, x):
        """F(x) = sum_i w_i E_k(lam_i x), accurate relative to its size near x = 0 too."""
        return _mix(self.weights, self._erlang_cdfs(_check_nonneg(x))[0])

    def pdf(self, x):
        """sum_i w_i lam_i e^{-y} y^{k-1} / (k-1)!, y = lam_i x, the Poisson term from its
        log, so that neither the power nor the factorial overflows at a large shape."""
        y = np.multiply.outer(self.rates, _check_nonneg(x))
        k = self.shape
        if k == 1:
            return _mix(self.weights * self.rates, np.exp(-y))
        with np.errstate(divide="ignore"):  # log 0 = -inf: the density is 0 at x = 0
            return _mix(self.weights * self.rates, np.exp(-y + (k - 1) * np.log(y) - math.lgamma(k)))

    def survival(self, x):
        return 1.0 - self.cdf(x)

    # -- stationary excess (equilibrium) law -------------------------------

    def eq_cdf(self, x):
        """F0(x) = mu * int_0^x (1 - F(y)) dy = mu sum_i (w_i / lam_i) sum_{j <= k} E_j(lam_i x)."""
        return self.mu * _mix(self.weights / self.rates, self._erlang_cdfs(_check_nonneg(x))[1])

    def eq_pdf(self, x):
        """F0'(x) = mu * (1 - F(x)); bounded by mu."""
        return self.mu * self.survival(x)

    # -- monotone inverses -------------------------------------------------

    def _inverse(self, fn, dfn, p):
        """Newton solve of fn(x) = p, elementwise, in log fn against log x: near 0 each fn here is a power
        c x^j, on which one step lands however far below the mean the root lies.  A step out of the bracket,
        from the smallest normal float up, bisects it in log x.  Each element stops once its step is below
        1e-12 min(1, x), so a quantile below 1 is solved to 1e-12 relative and is never negative.  Raises
        FloatingPointError for a quantile below the smallest normal float, an overflowing bracket, or any
        element not converged after 200 steps."""
        p = _probabilities(p)
        x = np.where(p == 1.0, np.inf, 0.0)
        inner = (p > 0.0) & (p < 1.0)
        target = p[inner]
        lo = np.full_like(target, np.finfo(float).tiny)
        if np.any(under := fn(lo) >= target):
            raise FloatingPointError(f"inverse of p = {target[under][0]} did not converge: quantile below {lo[0]!r}")
        hi = np.full_like(target, self.mean)
        grow = fn(hi) < target
        while np.any(grow):
            hi[grow] *= 2.0
            if np.any(np.isinf(hi)):
                raise FloatingPointError("inverse bracket overflowed")
            grow = fn(hi) < target
        xi = 0.5 * hi
        active = np.ones(len(target), dtype=bool)
        for _ in range(200):
            if not np.any(active):
                break
            xa, la, ha, ta = xi[active], lo[active], hi[active], target[active]
            fa = fn(xa)
            above = fa > ta
            ha, la = np.where(above, xa, ha), np.where(above, la, xa)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                # a zero, infinite or NaN slope x fn' / fn takes the bisection step
                slope = xa * dfn(xa) / fa
                step = np.where((slope > 0) & (slope < np.inf), np.log1p((fa - ta) / ta) / slope, np.inf)
                x_new = xa + xa * np.expm1(-step)
            tol = _INV_TOL * np.minimum(1.0, xa)
            # a converged Newton step stands even when round-off puts it on the bracket
            keep = ((la < x_new) & (x_new < ha)) | (np.abs(x_new - xa) < tol)
            x_new = np.where(keep, x_new, np.sqrt(la) * np.sqrt(ha))
            converged = np.abs(x_new - xa) < tol
            xi[active], lo[active], hi[active] = x_new, la, ha
            active[active] = ~converged
        if np.any(active):
            k = np.flatnonzero(active)[0]
            raise FloatingPointError(
                f"inverse of p = {target[k]} did not converge in 200 steps (x = {xi[k]!r})"
            )
        x[inner] = xi
        return _as_input(x)

    def ppf(self, p):
        """F^{-1}(p), elementwise over scalar or array p in [0, 1]; closed form for one exponential phase."""
        if len(self.rates) == 1 and self.shape == 1:
            with np.errstate(divide="ignore"):
                return _as_input(-np.log1p(-_probabilities(p)) / self.rates[0])
        return self._inverse(self.cdf, self.pdf, p)

    def eq_ppf(self, p):
        """F0^{-1}(p), elementwise over scalar or array p in [0, 1]; F0 = F for one exponential phase."""
        if len(self.rates) == 1 and self.shape == 1:
            return self.ppf(p)
        return self._inverse(self.eq_cdf, self.eq_pdf, p)

    def horizon_for_tail(self, eps: float) -> float:
        """Smallest T with 1 - F(T) <= eps."""
        return self.ppf(1.0 - eps)

    # -- sampling ----------------------------------------------------------

    def _draw(self, rng: np.random.Generator, p: np.ndarray, j, size):
        """Branch i with probability p_i, then Erlang(j) at rate lam_i.  One branch draws no branch."""
        lam = self.rates[0] if len(p) == 1 else self.rates[rng.choice(len(p), size=size, p=p)]
        return rng.gamma(j, 1.0 / lam, size)

    def sample(self, rng: np.random.Generator, size=None):
        """Draw from F by exact structural sampling: branch i with weight w_i, then Erlang(k, lam_i)."""
        return self._draw(rng, self.weights, self.shape, size)

    def sample_equilibrium(self, rng: np.random.Generator, size=None):
        """Draw from F0 by exact structural sampling: F0 is the mixture of Erlang(j, lam_i),
        j = 1..k, with weight mu w_i / lam_i each (the sum in `eq_cdf`)."""
        p = self.weights * self.shape / self.rates
        j = rng.integers(1, self.shape + 1, size=size) if self.shape > 1 else 1
        return self._draw(rng, p / p.sum(), j, size)
