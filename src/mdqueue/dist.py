"""Service-time distribution families with exact cdf/pdf and stationary-excess laws.

Supported families all have analytic cdf and density: exponential, Erlang and
hyperexponential mixtures.  Each is a mixture of Erlang terms of one shape, so
one closed form gives F, F' and F0 for all of them; F is clamped at 0 against
the round-off of that sum near x = 0.  Tabulated or atomic
distributions are rejected by construction; the downstream solvers need F'
everywhere and a strictly increasing F for the inverse maps.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ServiceDist"]

_INV_TOL = 1e-12
# The largest supported Erlang shape.  The cdf sums Poisson terms from e^{-y}, which
# underflows past y = 745: at shape 500 it is within 1e-14 of the regularised incomplete
# gamma function, at 600 within 2e-8, and at 1000 it reads 1 where that is 5.5e-12.
MAX_SHAPE = 500


def _check_nonneg(x):
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
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
    return np.sum(coef.reshape(coef.shape + (1,) * (branches.ndim - 1)) * branches, axis=0)


def _as_input(x: np.ndarray):
    """A Python float for a scalar argument, the array otherwise."""
    return float(x) if x.ndim == 0 else x


@dataclass(frozen=True)
class ServiceDist:
    """Absolutely continuous service-time law on (0, inf).

    family: "exponential" | "erlang" | "hyperexponential"
    rates:  positive rate parameters (one per mixture branch; a single rate
            for exponential/erlang)
    shape:  Erlang integer shape (1 for the other families)
    weights: mixture weights summing to 1
    """

    family: str
    rates: np.ndarray
    shape: int = 1
    weights: np.ndarray = field(default_factory=lambda: np.array([1.0]))

    def __post_init__(self):
        for name in ("rates", "weights"):  # a bool, str, null or nested entry is rejected, not coerced
            v = np.atleast_1d(np.asarray(getattr(self, name), dtype=object))
            if v.ndim != 1 or not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in v):
                raise ValueError(f"{name} must be a list of numbers, got {v.tolist()!r}")
            object.__setattr__(self, name, v.astype(float))
        if self.family not in ("exponential", "erlang", "hyperexponential"):
            raise ValueError(f"unsupported family: {self.family!r}")
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
        # the closed forms read only the phase table; ppf and sampling also read the family
        if self.family != "erlang" and self.shape != 1:
            raise ValueError(f"{self.family} law must have shape 1")
        if self.family != "hyperexponential" and len(self.rates) != 1:
            raise ValueError(f"{self.family} law must have a single rate")
        with np.errstate(over="ignore"):  # the service rate mu is 1 / mean
            mean = self.mean
        if not math.isfinite(mean):
            raise ValueError(f"mean {mean} is not finite")

    # -- constructors ------------------------------------------------------

    @classmethod
    def exponential(cls, rate: float) -> "ServiceDist":
        return cls("exponential", rates=[rate])

    @classmethod
    def erlang(cls, shape: int, rate: float) -> "ServiceDist":
        return cls("erlang", rates=[rate], shape=shape)

    @classmethod
    def hyperexponential(cls, weights, rates) -> "ServiceDist":
        return cls("hyperexponential", rates=rates, weights=weights)

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

    # -- moments -----------------------------------------------------------

    @property
    def mean(self) -> float:
        return float(np.sum(self.weights * self.shape / self.rates))

    @property
    def mu(self) -> float:
        """Service rate, the reciprocal mean."""
        return 1.0 / self.mean

    # -- cdf / pdf ---------------------------------------------------------
    # Every family is the mixture sum_i w_i Erlang(k, lam_i) over the phase
    # table (weights, rates, shape).

    def _erlang_cdfs(self, x: np.ndarray) -> list[np.ndarray]:
        """[E_1, ..., E_k] at y = lam_i x, E_j the Erlang(j) cdf.

        E_1(y) = -expm1(-y) and E_{j+1}(y) = E_j(y) - e^{-y} y^j / j!, the
        Poisson sum built up one term at a time.
        """
        y = np.multiply.outer(self.rates, x)
        cdfs = [-np.expm1(-y)]
        term = np.exp(-y)
        for j in range(1, self.shape):
            term = term * y / j
            cdfs.append(cdfs[-1] - term)
        return cdfs

    def cdf(self, x):
        """F(x), clamped at 0: near x = 0 the Poisson sum of a large shape cancels to
        round-off below 0 (-3.9e-15 for Erlang(500, 500) on [0, 5]), and the clamp keeps
        eq_pdf = mu (1 - F) at most mu."""
        return np.maximum(_mix(self.weights, self._erlang_cdfs(_check_nonneg(x))[-1]), 0.0)

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

    def phases(self) -> list[tuple[float, float, int]]:
        """(w, lam, k) per term of 1 - F(x) = sum w e^{-lam x} sum_{m < k} (lam x)^m / m!."""
        return [(float(w), float(lam), self.shape) for w, lam in zip(self.weights, self.rates)]

    # -- stationary excess (equilibrium) law -------------------------------

    def eq_cdf(self, x):
        """F0(x) = mu * int_0^x (1 - F(y)) dy = mu sum_i (w_i / lam_i) sum_{j <= k} E_j(lam_i x)."""
        return self.mu * _mix(self.weights / self.rates, sum(self._erlang_cdfs(_check_nonneg(x))))

    def eq_pdf(self, x):
        """F0'(x) = mu * (1 - F(x)); bounded by mu."""
        return self.mu * self.survival(x)

    # -- monotone inverses -------------------------------------------------

    def _inverse(self, fn, dfn, p):
        """Safeguarded bisection/Newton solve of fn(x) = p to 1e-12, elementwise.

        Each element stops on its own once its step is below the tolerance.
        Raises FloatingPointError when the bracket overflows or any element
        has not converged after 200 steps.
        """
        p = _probabilities(p)
        x = np.where(p == 1.0, np.inf, 0.0)
        inner = (p > 0.0) & (p < 1.0)
        target = p[inner]
        lo = np.zeros_like(target)
        hi = np.full_like(target, self.mean)
        grow = fn(hi) < target
        while np.any(grow):
            hi[grow] *= 2.0
            if np.any(np.isinf(hi)):
                raise FloatingPointError("inverse bracket overflowed")
            grow = fn(hi) < target
        xi = 0.5 * (lo + hi)
        active = np.ones(len(target), dtype=bool)
        for _ in range(200):
            if not np.any(active):
                break
            xa, la, ha = xi[active], lo[active], hi[active]
            fx = fn(xa) - target[active]
            above = fx > 0
            ha = np.where(above, xa, ha)
            la = np.where(above, la, xa)
            d = dfn(xa)
            # a zero, infinite or NaN derivative takes the bisection step
            with np.errstate(divide="ignore", invalid="ignore"):
                x_new = xa - np.where((d > 0) & (d < np.inf), fx / d, np.inf)
            # a converged Newton step stands even when round-off puts it on the bracket
            keep = ((la < x_new) & (x_new < ha)) | (np.abs(x_new - xa) < _INV_TOL)
            x_new = np.where(keep, x_new, 0.5 * (la + ha))
            converged = np.abs(x_new - xa) < _INV_TOL
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
        """F^{-1}(p), elementwise over scalar or array p in [0, 1]."""
        if self.family == "exponential":
            with np.errstate(divide="ignore"):
                return _as_input(-np.log1p(-_probabilities(p)) / self.rates[0])
        return self._inverse(self.cdf, self.pdf, p)

    def eq_ppf(self, p):
        """F0^{-1}(p), elementwise over scalar or array p in [0, 1]."""
        if self.family == "exponential":
            return self.ppf(p)
        return self._inverse(self.eq_cdf, self.eq_pdf, p)

    def horizon_for_tail(self, eps: float) -> float:
        """Smallest T with 1 - F(T) <= eps."""
        return self.ppf(1.0 - eps)

    # -- sampling ----------------------------------------------------------

    def sample(self, rng: np.random.Generator, size=None):
        """Draw from F by exact structural sampling."""
        if self.family == "exponential":
            return rng.exponential(1.0 / self.rates[0], size=size)
        if self.family == "erlang":
            return rng.gamma(self.shape, 1.0 / self.rates[0], size=size)
        return self._sample_mixture(rng, self.weights, size)

    def sample_equilibrium(self, rng: np.random.Generator, size=None):
        """Draw from F0 by exact structural sampling.

        F0 of Erlang(k, lam) is the equal-weight mixture of Erlang(j, lam),
        j = 1..k (the sum in `eq_cdf`); F0 of a hyperexponential is the
        hyperexponential with weights mu * w_i / lam_i.
        """
        if self.family == "exponential":
            return self.sample(rng, size=size)
        if self.family == "erlang":
            j = rng.integers(1, self.shape + 1, size=size)
            return rng.gamma(j, 1.0 / self.rates[0])
        p = self.weights / self.rates
        return self._sample_mixture(rng, p / p.sum(), size)

    def _sample_mixture(self, rng: np.random.Generator, p: np.ndarray, size):
        """Hyperexponential draw: branch i with probability p_i, then Exp(rates[i])."""
        branch = rng.choice(len(p), size=size, p=p)
        return rng.exponential(1.0 / self.rates[branch])
