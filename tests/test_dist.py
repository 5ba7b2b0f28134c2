import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc
from scipy.stats import gamma, kstest

from mdqueue import ServiceDist

from reference import family_interarrivals, family_sample, family_sample_equilibrium

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
    # near 0 the difference E_j - P_j of a large shape cancelled below 0 (-3.9e-15 for
    # Erlang(500, 500) on [0, 5]); where y < k the cdf is a sum of positive Poisson terms, so
    # F >= 0 and eq_pdf = mu (1 - F) <= mu with no clamp
    d = ServiceDist.erlang(k, float(k))
    x = np.linspace(0.0, 5.0, 100_001)
    assert np.min(d.cdf(x)) >= 0.0
    assert np.max(d.eq_pdf(x)) <= d.mu


def test_erlang_small_quantiles_are_relative_accurate():
    # E_2(y) = 1 - e^{-y} (1 + y) cancelled near y = 0: ppf(1e-30) of Erlang(2, 1) read
    # 1.4347e-15 against sqrt(2e-30) (1 + O(y)), and cdf(1e-6) of Erlang(3, 3) was 1.4e-5 off
    # y^3 / 3! e^{-y} (1 + y / 4 + y^2 / 20), y = 3e-6, whose next term is below 1e-17 relative
    assert ServiceDist.erlang(2, 1.0).ppf(1e-30) == pytest.approx(math.sqrt(2e-30), rel=1e-12, abs=0.0)
    y = 3e-6
    assert ServiceDist.erlang(3, 3.0).cdf(1e-6) == pytest.approx(
        y**3 / 6 * math.exp(-y) * (1 + y / 4 + y**2 / 20), rel=1e-12, abs=0.0)
    assert gammainc(3, y) == pytest.approx(ServiceDist.erlang(3, 3.0).cdf(1e-6), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k", [2, 3, 50, 500])
def test_erlang_cdfs_are_relative_accurate_below_the_shape(k):
    # y = lam x from 1e-12 k to 2k: F = gammainc(k, y) and F0 = sum_j gammainc(j, y) / k to 1e-12
    # relative wherever they are normal floats (scipy's own error reaches 4e-13 at k = 500)
    d = ServiceDist.erlang(k, float(k))
    x = np.geomspace(1e-12, 2.0, 400)
    for got, ref in ((d.cdf(x), gammainc(k, k * x)), (d.eq_cdf(x), sum(gammainc(j, k * x) for j in range(1, k + 1)) / k)):
        live = ref > 1e-290
        assert np.max(np.abs(got - ref)[live] / ref[live]) <= 1e-12


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
    """Per-probability safeguarded Newton loop in log fn against log x, bisecting in log x
    (reference for the array inverse)."""
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return np.inf
    lo, hi = np.finfo(float).tiny, mean
    while fn(hi) < p:
        hi *= 2.0
    x = 0.5 * hi
    for _ in range(200):
        f = float(fn(x))
        if f > p:
            hi = x
        else:
            lo = x
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            slope = np.float64(x) * float(dfn(x)) / f
            x_new = x + x * np.expm1(-np.log1p((f - p) / p) / slope) if 0 < slope < np.inf else 0.0
        tol = 1e-12 * min(1.0, x)
        if not (lo < x_new < hi or abs(x_new - x) < tol):
            x_new = np.sqrt(lo) * np.sqrt(hi)
        if abs(x_new - x) < tol:
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


@pytest.mark.parametrize("rate", [1e-6, 1e-11, 1e-30, 1e-100, 1e-300, 1e6, 1e9, 1e12, 1e100, 1e300])
def test_inverses_scale_with_the_rate(rate):
    # the law at rate r is the rate-1 law on a clock slowed (or sped up) by 1/r, so its
    # quantiles are the rate-1 quantiles over r, however far past 1e12 or below 1e-12 they lie
    p = np.array([0.01, 0.1, 0.5, 0.9, 0.99])
    for d, d1 in zip(_laws_at(rate), _laws_at(1.0)):
        assert np.all(d.ppf(p) > 0) and np.all(d.eq_ppf(p) > 0)
        assert np.allclose(d.ppf(p) * rate, d1.ppf(p), rtol=1e-13, atol=0.0)
        assert np.allclose(d.eq_ppf(p) * rate, d1.eq_ppf(p), rtol=1e-13, atol=0.0)
        assert d.horizon_for_tail(1e-6) * rate == pytest.approx(d1.horizon_for_tail(1e-6), rel=1e-13)


@pytest.mark.parametrize("rate", [1.0, 1e12, 1e150, 1e300])
def test_no_quantile_is_negative(rate):
    # a first Newton step below an absolute 1e-12 passed as converged, out of the bracket
    # too: eq_ppf of Erlang(2, 1e150) at 1e-300 read -2.2e-151.  Where the quantile
    # underflows the inverse raises its typed error instead
    for d in _laws_at(rate):
        for inverse in (d.ppf, d.eq_ppf):
            for p in (1e-300, 1e-100, 1e-12, 0.5):
                try:
                    x = inverse(p)
                except FloatingPointError as err:
                    assert "did not converge" in str(err)
                else:
                    assert x >= 0.0


def test_small_quantiles_of_fast_laws():
    # F = (lam x)^2 / 2 (1 + O(lam x)) near 0: Newton in x from the mean only halved x each step
    # and did not reach 1.4e-300 in 200; in the logs it lands on the power law at once
    d = ServiceDist.erlang(2, 1e150)
    for p in (1e-300, 1e-280):
        assert d.ppf(p) == pytest.approx(math.sqrt(2.0 * p) / 1e150, rel=1e-12, abs=0.0)


def test_underflowing_quantile_raises():
    # the true F0^{-1}(1e-300) of Erlang(2, 1e150) is about 2e-450, below the float range
    with pytest.raises(FloatingPointError, match="did not converge"):
        ServiceDist.erlang(2, 1e150).eq_ppf(1e-300)


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


# each law with the family whose draws it keeps: Erlang(1) keeps the erlang branch's gamma draws,
# and a one-branch hyperexponential, which draws no branch, the exponential's
STREAM_LAWS = [
    ("exponential", ServiceDist.exponential(1.0)),
    ("erlang", ServiceDist.erlang(3, 3.0)),
    ("hyperexponential", ServiceDist.hyperexponential([0.2, 0.8], [0.4, 1.6])),
    ("erlang", ServiceDist.erlang(1, 1.5)),
    ("erlang", ServiceDist.erlang(500, 500.0)),
    ("exponential", ServiceDist.hyperexponential([1.0], [1.5])),
]


def _assert_same_stream(draw, ref_draw, seed):
    """draw and ref_draw, each from a generator of the given seed, give the same values bit for bit,
    of the same Python type, and leave their generators in the same state."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = draw(rng), ref_draw(ref_rng)
    assert type(got) is type(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype == np.float64
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.array_equal(rng.random(4), ref_rng.random(4))


@pytest.mark.parametrize("size", [None, 1, 1000])
@pytest.mark.parametrize("family, d", STREAM_LAWS,
                         ids=["exp", "erlang3", "hyperexp", "erlang1", "erlang500", "hyperexp1"])
def test_phase_table_draws_keep_the_family_streams(family, d, size):
    # one Erlang-mixture draw over the phase table draws what the per-family branches drew
    for seed in range(3):
        _assert_same_stream(lambda rng: d.sample(rng, size=size),
                            lambda rng: family_sample(d, family, rng, size), seed)
        _assert_same_stream(lambda rng: d.sample_equilibrium(rng, size=size),
                            lambda rng: family_sample_equilibrium(d, family, rng, size), seed)
    if size is None:
        assert type(d.sample(np.random.default_rng(0))) is float


@pytest.mark.parametrize("family, shape", [("exponential", 1), ("erlang", 1), ("erlang", 2), ("erlang", 7)])
def test_erlang_draws_keep_the_interarrival_streams(family, shape):
    # the simulator's Erlang(k) gaps of rate lam are ServiceDist.erlang(k, k lam).sample: the stream of
    # rng.gamma(k, 1 / (k lam)), and at k = 1 of rng.exponential(1 / lam)
    lam = 37.5
    for seed in range(3):
        _assert_same_stream(lambda rng: ServiceDist.erlang(shape, shape * lam).sample(rng, 1000),
                            lambda rng: family_interarrivals(rng, lam, 1000, family, shape), seed)


@pytest.mark.parametrize("size", [None, 1, 1000])
def test_one_branch_hyperexponential_draws_the_exponential_stream(size):
    # a one-branch mixture draws no branch, so it draws what the exponential of its rate draws
    one, exp = ServiceDist.hyperexponential([1.0], [1.5]), ServiceDist.exponential(1.5)
    for seed in range(3):
        _assert_same_stream(lambda rng: one.sample(rng, size=size), lambda rng: exp.sample(rng, size=size), seed)
        _assert_same_stream(lambda rng: one.sample_equilibrium(rng, size=size),
                            lambda rng: exp.sample_equilibrium(rng, size=size), seed)


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


def test_family_is_the_name_of_the_phase_table():
    # the family is read off (weights, rates, shape), not stored beside it
    assert ServiceDist.exponential(1.3).family == "exponential"
    assert ServiceDist.erlang(3, 3.0).family == "erlang"
    assert ServiceDist.hyperexponential([0.4, 0.6], [0.5, 2.0]).family == "hyperexponential"
    assert ServiceDist.erlang(1, 1.5).family == "exponential"
    assert ServiceDist.hyperexponential([1.0], [1.5]).family == "exponential"
    assert ServiceDist(rates=[2.0], shape=4).family == "erlang"
    with pytest.raises(AttributeError):
        ServiceDist.exponential(1.0).family = "erlang"
    with pytest.raises(TypeError):
        ServiceDist("erlang", rates=[1.0], shape=2)


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
    # a mixture of Erlang(k > 1) branches is no supported law
    with pytest.raises(ValueError, match="several rates must have shape 1"):
        ServiceDist(rates=[1, 2], shape=2, weights=[0.5, 0.5])
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
    ids=[f"erlang{k}" for k in range(1, 7)] + ["exponential1", "hyperexponential2", "hyperexponential3"],
)
def test_phases_sum_to_survival(d):
    # 1 - F(x) = sum_i w_i e^{-lam_i x} sum_{m < k} (lam_i x)^m / m! over the phase table
    x = np.linspace(0.0, 30.0, 3001)
    surv = np.zeros_like(x)
    for w, lam in zip(d.weights, d.rates):
        term = np.exp(-lam * x)
        for m in range(d.shape):
            surv += w * term
            term = term * lam * x / (m + 1)
    assert np.allclose(surv, 1.0 - d.cdf(x), rtol=0.0, atol=1e-14)
