import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc
from scipy.stats import gamma, kstest

from mdqueue import ServiceDist

FAMILIES = [
    ServiceDist.exponential(1.3),
    ServiceDist.erlang(2, 2.0),
    ServiceDist.erlang(5, 1.0),
    ServiceDist.hyperexponential([0.4, 0.6], [0.5, 2.0]),
]


def test_erlang_cdf_closed_form():
    # Erlang(2, rate 2) at x=1: 1 - e^{-2}(1 + 2) = 1 - 3 e^{-2}
    d = ServiceDist.erlang(2, 2.0)
    assert d.cdf(1.0) == pytest.approx(1.0 - 3.0 * np.exp(-2.0), abs=1e-14)


@pytest.mark.parametrize("k", range(1, 13))
def test_erlang_closed_forms_match_scipy(k):
    x = np.linspace(0.0, 60.0, 6001)
    for lam in (0.5, 1.0, 3.0, 7.0):
        d = ServiceDist.erlang(k, lam)
        y = lam * x
        assert np.max(np.abs(d.cdf(x) - gammainc(k, y))) <= 2e-15
        eq_ref = sum(gammainc(j, y) for j in range(1, k + 1)) / k
        assert np.max(np.abs(d.eq_cdf(x) - eq_ref)) <= 2e-15
        # the reference takes the same y = lam x: gamma.pdf(x, scale=1/lam)
        # rounds y differently, and at y = 420 that alone moves e^{-y} by ~420 eps
        ref = lam * gamma.pdf(y, k)
        pdf = d.pdf(x)
        assert np.array_equal(pdf == 0.0, ref == 0.0)
        assert np.max(np.abs(pdf - ref)[ref > 0] / ref[ref > 0]) <= 1e-13


@pytest.mark.parametrize("k", [140, 170, 500])
def test_large_erlang_pdf_matches_scipy(k):
    # y^(k-1) overflows past k = 140 on this range and (k-1)! past k = 171; the
    # Poisson term taken from its log stays finite and as close as at small k
    d = ServiceDist.erlang(k, float(k))
    T = d.horizon_for_tail(1e-6)
    assert d.cdf(T) >= 1.0 - 1e-6
    x = np.linspace(0.0, T, 2001)
    pdf, ref = d.pdf(x), k * gamma.pdf(k * x, k)
    assert np.all(np.isfinite(pdf))
    live = ref > 1e-300
    assert np.max(np.abs(pdf - ref)[live] / ref[live]) <= 1e-12


def test_largest_erlang_shape_cdf_matches_gammainc():
    # the cdf's Poisson terms start from e^{-y}: at the largest supported shape they
    # have not underflowed over the bulk and the right tail, [0, k + 12 sqrt(k)]
    k = 500
    x = np.linspace(0.0, k + 12.0 * np.sqrt(k), 20001)
    assert np.max(np.abs(ServiceDist.erlang(k, 1.0).cdf(x) - gammainc(k, x))) <= 1e-13


@pytest.mark.parametrize("k", [1, 3, 50, 500])
def test_cdf_clamped_at_zero(k):
    # near 0 the Poisson sum of a large shape cancels below 0 (-3.9e-15 for Erlang(500, 500)
    # on [0, 5]); the clamp keeps F >= 0 and so eq_pdf = mu (1 - F) <= mu
    d = ServiceDist.erlang(k, float(k))
    x = np.linspace(0.0, 5.0, 100_001)
    assert np.min(d.cdf(x)) >= 0.0
    assert np.max(d.eq_pdf(x)) <= d.mu


def test_single_phase_laws_match_expm1_formulas():
    x = np.linspace(0.0, 60.0, 6001)
    for lam in (1.0, 1.3):
        d = ServiceDist.exponential(lam)
        cdf = -np.expm1(-lam * x)
        assert np.array_equal(d.cdf(x), cdf)
        assert np.array_equal(d.pdf(x), lam * np.exp(-lam * x))
        # F0 = F for the exponential; the mixture form mu (1 / lam) F is F
        # exactly at lam = 1 and moves it by at most one ulp elsewhere
        tol = 0.0 if lam == 1.0 else np.finfo(float).eps
        assert np.max(np.abs(d.eq_cdf(x) - cdf)) <= tol

    w, r = np.array([0.2, 0.8]), np.array([0.4, 1.6])
    d = ServiceDist.hyperexponential(w, r)
    branch_cdf = -np.expm1(-np.outer(r, x))
    assert np.array_equal(d.cdf(x), np.sum(w[:, None] * branch_cdf, axis=0))
    assert np.array_equal(d.pdf(x), np.sum((w * r)[:, None] * np.exp(-np.outer(r, x)), axis=0))
    assert np.array_equal(d.eq_cdf(x), d.mu * np.sum((w / r)[:, None] * branch_cdf, axis=0))


def test_hyperexponential_mean():
    d = ServiceDist.hyperexponential([0.4, 0.6], [0.5, 2.0])
    assert d.mean == pytest.approx(0.4 / 0.5 + 0.6 / 2.0, abs=1e-14)
    assert d.mu == pytest.approx(1.0 / d.mean, abs=1e-14)


@pytest.mark.parametrize("d", FAMILIES, ids=lambda d: d.family + str(d.shape))
def test_pdf_integrates_to_cdf(d):
    for x in (0.3, 1.0, 2.7):
        val = quad(lambda y: float(d.pdf(y)), 0.0, x)[0]
        assert val == pytest.approx(float(d.cdf(x)), abs=1e-9)


@pytest.mark.parametrize("d", FAMILIES, ids=lambda d: d.family + str(d.shape))
def test_eq_cdf_is_scaled_survival_integral(d):
    for x in (0.5, 1.5, 3.0):
        ref = d.mu * quad(lambda y: float(d.survival(y)), 0.0, x)[0]
        assert float(d.eq_cdf(x)) == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize("d", FAMILIES, ids=lambda d: d.family + str(d.shape))
def test_eq_pdf_identity(d):
    x = np.linspace(0.0, 4.0, 50)
    assert np.allclose(d.eq_pdf(x), d.mu * (1.0 - d.cdf(x)), atol=1e-14)


@pytest.mark.parametrize("d", FAMILIES, ids=lambda d: d.family + str(d.shape))
def test_ppf_inverts_cdf(d):
    for p in (0.01, 0.3, 0.9, 0.999):
        assert float(d.cdf(d.ppf(p))) == pytest.approx(p, abs=1e-10)
        assert float(d.eq_cdf(d.eq_ppf(p))) == pytest.approx(p, abs=1e-10)


def test_ppf_edges():
    d = ServiceDist.erlang(3, 1.0)
    assert d.ppf(0.0) == 0.0
    assert d.ppf(1.0) == np.inf
    with pytest.raises(ValueError):
        d.ppf(1.5)


def test_inverse_raises_when_unconverged(monkeypatch):
    # a zero step tolerance can never be met, so the 200-step cap must raise
    monkeypatch.setattr("mdqueue.dist._INV_TOL", 0.0)
    with pytest.raises(FloatingPointError, match="did not converge"):
        ServiceDist.erlang(3, 3.0).eq_ppf(0.5)


def _scalar_inverse(fn, dfn, p, mean):
    """Per-probability safeguarded Newton loop (reference for the array inverse)."""
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return np.inf
    lo, hi = 0.0, mean
    while fn(hi) < p:
        hi *= 2.0
    x = 0.5 * (lo + hi)
    for _ in range(200):
        fx = float(fn(x)) - p
        if fx > 0:
            hi = x
        else:
            lo = x
        d = float(dfn(x))
        x_new = x - (fx / d if d > 0 else np.inf)
        if not (lo < x_new < hi or abs(x_new - x) < 1e-12):
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) < 1e-12:
            return x_new
        x = x_new
    raise AssertionError("reference did not converge")


@pytest.mark.parametrize("d", FAMILIES[1:], ids=lambda d: d.family + str(d.shape))
def test_array_inverse_matches_scalar_loop(d):
    p = np.concatenate([np.linspace(0.0, 1.0, 65), [1e-12, 1.0 - 1e-9]])
    for inverse, fn, dfn in ((d.ppf, d.cdf, d.pdf), (d.eq_ppf, d.eq_cdf, d.eq_pdf)):
        ref = np.array([_scalar_inverse(fn, dfn, float(pi), d.mean) for pi in p])
        got = inverse(p)
        assert got.shape == p.shape
        assert np.array_equal(np.isinf(got), p == 1.0)
        assert np.max(np.abs(got[p < 1] - ref[p < 1])) <= 1e-12
        assert np.array_equal(inverse(p.reshape(-1, 1)), got.reshape(-1, 1))
    with pytest.raises(ValueError):
        d.ppf(np.array([0.5, 1.5]))


@pytest.mark.parametrize(
    "d", [ServiceDist.erlang(3, 3.0), ServiceDist.hyperexponential([0.2, 0.8], [0.4, 1.6])], ids=["erlang3", "hyper"]
)
def test_inverse_stops_at_converged_newton_step(d):
    # the 31 interior x nodes of recover_controls at n_x = 32: a Newton step
    # that converges onto the bracket edge ends the solve instead of bisecting
    p = np.linspace(0.0, 1.0, 33)[1:-1]
    for fn, dfn in ((d.cdf, d.pdf), (d.eq_cdf, d.eq_pdf)):
        calls = []

        def counted(x, fn=fn):
            calls.append(1)
            return fn(x)

        x = d._inverse(counted, dfn, p)
        assert len(calls) <= 15
        assert np.max(np.abs(fn(x) - p)) <= 1e-12


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_inverse_bisects_on_a_nonfinite_derivative(bad):
    # an infinite derivative would make the Newton step 0, which reads as converged
    d = ServiceDist.erlang(3, 3.0)
    p = np.linspace(0.0, 1.0, 33)[1:-1]
    x = d._inverse(d.cdf, lambda x: np.full_like(x, bad), p)
    assert np.max(np.abs(d.cdf(x) - p)) <= 1e-12


def test_array_inverse_raises_when_any_unconverged(monkeypatch):
    monkeypatch.setattr("mdqueue.dist._INV_TOL", 0.0)
    with pytest.raises(FloatingPointError, match="did not converge"):
        ServiceDist.hyperexponential([0.4, 0.6], [0.5, 2.0]).ppf(np.array([0.0, 0.5, 1.0]))


def test_horizon_for_tail():
    d = ServiceDist.exponential(2.0)
    T = d.horizon_for_tail(1e-6)
    assert float(d.survival(T)) == pytest.approx(1e-6, rel=1e-6)


def _laws_at(rate):
    return [ServiceDist.erlang(2, rate), ServiceDist.erlang(5, rate),
            ServiceDist.hyperexponential([0.2, 0.8], [0.4 * rate, 1.6 * rate])]


@pytest.mark.parametrize("rate", [1e-6, 1e-11, 1e-30, 1e-100, 1e-300])
def test_inverses_scale_with_the_rate(rate):
    # the law at rate r is the rate-1 law on a clock slowed by 1/r, so its
    # quantiles are the rate-1 quantiles over r, however far past 1e12 they lie
    p = np.array([0.01, 0.1, 0.5, 0.9, 0.99])
    for d, d1 in zip(_laws_at(rate), _laws_at(1.0)):
        assert np.allclose(d.ppf(p) * rate, d1.ppf(p), rtol=1e-13, atol=0.0)
        assert np.allclose(d.eq_ppf(p) * rate, d1.eq_ppf(p), rtol=1e-13, atol=0.0)
        assert d.horizon_for_tail(1e-6) * rate == pytest.approx(d1.horizon_for_tail(1e-6), rel=1e-13)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_inverse_bracket_overflow_raises():
    # a function that never reaches p doubles the bracket until it overflows
    d = ServiceDist.erlang(2, 1.0)
    with pytest.raises(FloatingPointError, match="overflowed"):
        d._inverse(np.zeros_like, d.pdf, 0.5)


@pytest.mark.parametrize("d", FAMILIES, ids=lambda d: d.family + str(d.shape))
def test_sampling_ks(d):
    rng = np.random.default_rng(123)
    x = d.sample(rng, size=4000)
    assert kstest(x, lambda v: d.cdf(v)).pvalue > 0.01


@pytest.mark.parametrize("d", FAMILIES, ids=lambda d: d.family + str(d.shape))
def test_equilibrium_sampling_ks(d):
    rng = np.random.default_rng(321)
    x = np.asarray(d.sample_equilibrium(rng, size=100_000))
    assert kstest(x, lambda v: d.eq_cdf(v)).pvalue > 0.01


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_equilibrium_sampling_ks_erlang_shapes(k):
    d = ServiceDist.erlang(k, 1.5)
    x = d.sample_equilibrium(np.random.default_rng(100 + k), size=100_000)
    assert kstest(x, lambda v: d.eq_cdf(v)).pvalue > 0.01
    assert isinstance(d.sample_equilibrium(np.random.default_rng(0)), float)


def test_sample_mean_clt():
    d = ServiceDist.erlang(2, 2.0)
    rng = np.random.default_rng(7)
    x = d.sample(rng, size=20000)
    # var of Erlang(2,2) is 2/4 = 0.5; 5-sigma band
    assert abs(x.mean() - d.mean) < 5 * np.sqrt(0.5 / 20000)


@given(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
@settings(max_examples=50, deadline=None)
def test_cdf_monotone(a, b):
    d = ServiceDist.hyperexponential([0.3, 0.7], [1.0, 3.0])
    lo, hi = min(a, b), max(a, b)
    assert float(d.cdf(lo)) <= float(d.cdf(hi)) + 1e-15
    assert float(d.eq_cdf(lo)) <= float(d.eq_cdf(hi)) + 1e-15


def test_from_spec_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        ServiceDist.from_spec({"family": "exponential", "rate": 1.0, "scale": 2.0})
    with pytest.raises(ValueError, match="family"):
        ServiceDist.from_spec({"family": "weibull", "rate": 1.0})


def test_constructor_validation():
    with pytest.raises(ValueError):
        ServiceDist.exponential(-1.0)
    with pytest.raises(ValueError):
        ServiceDist.erlang(0, 1.0)
    with pytest.raises(ValueError):
        ServiceDist.hyperexponential([0.5, 0.6], [1.0, 2.0])  # weights don't sum to 1
    # the family must agree with the phase table that cdf, pdf and eq_cdf read
    with pytest.raises(ValueError, match="shape 1"):
        ServiceDist("exponential", rates=[1.0], shape=3)
    with pytest.raises(ValueError, match="shape 1"):
        ServiceDist("hyperexponential", rates=[1.0, 2.0], shape=2, weights=[0.5, 0.5])
    with pytest.raises(ValueError, match="single rate"):
        ServiceDist("erlang", rates=[1.0, 2.0], shape=2, weights=[0.5, 0.5])
    # the Erlang shape is an integer: no truncation of 2.7, no bool or str coercion
    for shape in (2.7, True, "3", float("nan")):
        with pytest.raises(ValueError, match="shape must be an integer"):
            ServiceDist.erlang(shape, 1.0)
    # past the supported shape the cdf's Poisson sum loses e^{-y} to underflow
    for shape in (501, 1000):
        with pytest.raises(ValueError, match=r"shape must be an integer in \[1, 500\]"):
            ServiceDist.erlang(shape, 1.0)
    # each rate is finite, but the mean is not
    with pytest.raises(ValueError, match="mean inf is not finite"):
        ServiceDist.erlang(2, 1e-308)
    # rates and weights are lists of numbers: no str or bool coercion, no nesting
    for spec in ({"family": "exponential", "rate": "1"}, {"family": "exponential", "rate": True},
                 {"family": "exponential", "rate": [1.0]}, {"family": "exponential", "rate": None},
                 {"family": "hyperexponential", "weights": ["0.2", "0.8"], "rates": [0.4, 1.6]},
                 {"family": "hyperexponential", "weights": [0.2, 0.8], "rates": [[0.4], [1.6]]},
                 {"family": "hyperexponential", "weights": [0.2, 0.8], "rates": [0.4, False]}):
        with pytest.raises(ValueError, match="must be a list of numbers"):
            ServiceDist.from_spec(spec)
    assert ServiceDist.hyperexponential([0.2, 0.8], [np.int64(1), np.float64(2.0)]).rates.dtype == float
    for spec_shape in (3, 3.0):
        d = ServiceDist.from_spec({"family": "erlang", "shape": spec_shape, "rate": 3.0})
        assert d.shape == 3 and type(d.shape) is int


@pytest.mark.parametrize(
    "d",
    [ServiceDist.erlang(k, 1.7) for k in range(1, 7)]
    + [
        ServiceDist.exponential(1.3),
        ServiceDist.hyperexponential([0.4, 0.6], [0.5, 2.0]),
        ServiceDist.hyperexponential([0.1, 0.3, 0.6], [0.25, 1.0, 2.5]),
    ],
    ids=lambda d: f"{d.family}{d.shape if d.family == 'erlang' else len(d.rates)}",
)
def test_phases_sum_to_survival(d):
    x = np.linspace(0.0, 30.0, 3001)
    surv = np.zeros_like(x)
    for w, lam, k in d.phases():
        term = np.exp(-lam * x)
        for m in range(k):
            surv += w * term
            term = term * lam * x / (m + 1)
    assert np.allclose(surv, 1.0 - d.cdf(x), rtol=0.0, atol=1e-14)


def test_phases_terms():
    assert ServiceDist.exponential(1.3).phases() == [(1.0, 1.3, 1)]
    assert ServiceDist.erlang(3, 3.0).phases() == [(1.0, 3.0, 3)]
    assert ServiceDist.hyperexponential([0.4, 0.6], [0.5, 2.0]).phases() == [(0.4, 0.5, 1), (0.6, 2.0, 1)]
