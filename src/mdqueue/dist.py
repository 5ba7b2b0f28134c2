"""Service-time distribution families with exact cdf/pdf and stationary-excess laws.

Supported families all have analytic cdf and density: exponential, Erlang and
hyperexponential mixtures.  Tabulated or atomic distributions are rejected by
construction; the downstream solvers need F' everywhere and a strictly
increasing F for the inverse maps.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammainc

__all__ = ["ServiceDist"]

_INV_TOL = 1e-12


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
        object.__setattr__(self, "rates", np.atleast_1d(np.asarray(self.rates, dtype=float)))
        object.__setattr__(self, "weights", np.atleast_1d(np.asarray(self.weights, dtype=float)))
        if self.family not in ("exponential", "erlang", "hyperexponential"):
            raise ValueError(f"unsupported family: {self.family!r}")
        if np.any(self.rates <= 0):
            raise ValueError("rates must be positive")
        if self.shape < 1 or self.shape != int(self.shape):
            raise ValueError("shape must be an integer >= 1")
        if np.any(self.weights <= 0) or abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        if self.family == "hyperexponential" and len(self.rates) != len(self.weights):
            raise ValueError("weights and rates must have equal length")

    # -- constructors ------------------------------------------------------

    @classmethod
    def exponential(cls, rate: float) -> "ServiceDist":
        return cls("exponential", rates=np.array([rate]))

    @classmethod
    def erlang(cls, shape: int, rate: float) -> "ServiceDist":
        return cls("erlang", rates=np.array([rate]), shape=int(shape))

    @classmethod
    def hyperexponential(cls, weights, rates) -> "ServiceDist":
        return cls("hyperexponential", rates=np.asarray(rates), weights=np.asarray(weights))

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
        if self.family == "exponential":
            return 1.0 / self.rates[0]
        if self.family == "erlang":
            return self.shape / self.rates[0]
        return float(np.sum(self.weights / self.rates))

    @property
    def mu(self) -> float:
        """Service rate, the reciprocal mean."""
        return 1.0 / self.mean

    # -- cdf / pdf ---------------------------------------------------------

    def cdf(self, x):
        x = _check_nonneg(x)
        if self.family == "exponential":
            return -np.expm1(-self.rates[0] * x)
        if self.family == "erlang":
            return gammainc(self.shape, self.rates[0] * x)
        return np.sum(self.weights[:, None] * -np.expm1(-np.outer(self.rates, np.atleast_1d(x))), axis=0).reshape(np.shape(x))

    def pdf(self, x):
        x = _check_nonneg(x)
        if self.family == "exponential":
            lam = self.rates[0]
            return lam * np.exp(-lam * x)
        if self.family == "erlang":
            lam, k = self.rates[0], self.shape
            from scipy.special import gammaln

            logpdf = k * np.log(lam) + np.where(x > 0, (k - 1) * np.log(np.maximum(x, 1e-300)), 0.0) - lam * x - gammaln(k)
            dens = np.exp(logpdf)
            if k > 1:
                dens = np.where(x > 0, dens, 0.0)
            return dens
        return np.sum(
            (self.weights * self.rates)[:, None] * np.exp(-np.outer(self.rates, np.atleast_1d(x))), axis=0
        ).reshape(np.shape(x))

    def survival(self, x):
        return 1.0 - self.cdf(x)

    def phases(self) -> list[tuple[float, float, int]]:
        """(w, lam, k) per term of 1 - F(x) = sum w e^{-lam x} sum_{m < k} (lam x)^m / m!."""
        if self.family == "hyperexponential":
            return [(float(w), float(lam), 1) for w, lam in zip(self.weights, self.rates)]
        return [(1.0, float(self.rates[0]), self.shape)]

    # -- stationary excess (equilibrium) law -------------------------------

    def eq_cdf(self, x):
        """F0(x) = mu * int_0^x (1 - F(y)) dy, in closed form per family."""
        x = _check_nonneg(x)
        if self.family == "exponential":
            return self.cdf(x)
        if self.family == "erlang":
            lam, k = self.rates[0], self.shape
            acc = 0.0
            for j in range(1, k + 1):
                acc = acc + gammainc(j, lam * x)
            return acc / k
        integr = np.sum(
            (self.weights / self.rates)[:, None] * -np.expm1(-np.outer(self.rates, np.atleast_1d(x))), axis=0
        ).reshape(np.shape(x))
        return self.mu * integr

    def eq_pdf(self, x):
        """F0'(x) = mu * (1 - F(x)); bounded by mu."""
        return self.mu * self.survival(x)

    # -- monotone inverses -------------------------------------------------

    def _inverse(self, fn, dfn, p):
        """Safeguarded bisection/Newton solve of fn(x) = p to 1e-12, elementwise.

        Each element stops on its own once its step is below the tolerance.
        Raises FloatingPointError when any element has not converged after
        200 steps.
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
            if np.any(hi > 1e12):
                raise RuntimeError("inverse bracket growth failed")
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
            with np.errstate(divide="ignore", invalid="ignore"):
                x_new = xa - np.where(d > 0, fx / d, np.inf)
            x_new = np.where((la < x_new) & (x_new < ha), x_new, 0.5 * (la + ha))
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
