import csv

import numpy as np
import pytest
from scipy.integrate import quad

from mdqueue import GridField2D, GridPath, conv_trap, cumtrap, trap_weights
from mdqueue.grids import LagConv
from reference import trap_integral


def test_trap_weights_sum():
    w = trap_weights(11, 0.1)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert w[0] == w[-1] == 0.05


def test_volterra_weights_rows_and_conv_trap():
    from scipy.linalg import toeplitz

    from reference import volterra_weights

    n, dt = 9, 0.25
    tw = volterra_weights(n, dt)
    assert not tw[0].any() and not np.triu(tw, 1).any()
    for i in range(1, n):
        row = np.full(i + 1, dt)
        row[0] = row[-1] = dt / 2
        assert np.array_equal(tw[i, : i + 1], row)
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    assert np.allclose((tw * toeplitz(a)) @ b, conv_trap(a, b, dt), atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 8, 401])
@pytest.mark.parametrize("k", [None, 3], ids=["1-D", "3-columns"])
def test_lag_conv_matches_dense(n, k):
    # each lag column g is the dense prefix-trapezoid matrix volterra_weights(n, 1) * toeplitz(g);
    # @ sums the columns' products and rmatvec gives each column's transpose
    from scipy.linalg import toeplitz

    from reference import volterra_weights

    rng = np.random.default_rng(n)
    g, u = rng.standard_normal((2, n) if k is None else (2, n, k))
    y = rng.standard_normal(n)
    dense = [volterra_weights(n, 1.0) * toeplitz(c) for c in (g[:, None] if k is None else g).T]
    T = LagConv.of(g)
    pairs = [(T @ u, sum(D @ c for D, c in zip(dense, (u[:, None] if k is None else u).T))),
             (T.rmatvec(y), np.column_stack([D.T @ y for D in dense]).reshape(g.shape))]
    for got, ref in pairs:
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [1, 2, 7])
def test_lags_index_is_toeplitz(n):
    from scipy.linalg import toeplitz

    from reference import lags

    v = np.random.default_rng(n).standard_normal(n)
    assert np.array_equal(v[lags(n)], toeplitz(v))


def test_trap_integral_polynomial_exact():
    # trapezoid is exact on affine functions
    t = np.linspace(0.0, 3.0, 31)
    assert trap_integral(2.0 * t + 1.0, 0.1) == pytest.approx(12.0, abs=1e-12)


def test_conv_trap_against_quad():
    t = np.linspace(0.0, 2.0, 401)
    a = np.exp(-t)
    b = np.sin(t)
    c = conv_trap(a, b, t[1] - t[0])
    ref = quad(lambda s: np.exp(-(1.5 - s)) * np.sin(s), 0.0, 1.5)[0]
    assert c[300] == pytest.approx(ref, abs=1e-4)
    assert c[0] == 0.0


def test_cumtrap_matches_antiderivative():
    t = np.linspace(0.0, 1.0, 201)
    out = cumtrap(t**2, t[1] - t[0])
    assert np.max(np.abs(out - t**3 / 3.0)) < 1e-5


def test_cumtrap_integrates_each_column_of_a_2d_array():
    values = np.random.default_rng(3).standard_normal((41, 7))
    out = cumtrap(values, 0.025)
    assert out.shape == values.shape
    for j in range(values.shape[1]):
        assert np.array_equal(out[:, j], cumtrap(values[:, j], 0.025))
    assert np.array_equal(cumtrap(values.T, 0.5).T[2], cumtrap(values[2], 0.5))


def test_gridpath_interp_and_constant_continuation():
    g = GridPath(1.0, np.array([0.0, 1.0, 2.0]))
    assert g.interp(0.25) == pytest.approx(0.5)
    assert g.interp(5.0) == pytest.approx(2.0)


def test_gridpath_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    g = GridPath(2.0, rng.standard_normal(51))
    p = tmp_path / "g.csv"
    g.to_csv(p)
    back = GridPath.from_csv(p)
    assert back.horizon == g.horizon
    assert np.array_equal(back.values, g.values)


def test_gridpath_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time,val\n0,0\n1,1\n2,2\n")
    with pytest.raises(ValueError, match="header"):
        GridPath.from_csv(p)


def test_gridpath_rejects_nonuniform(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("t,value\n0.0,0\n0.5,1\n2.0,2\n")
    with pytest.raises(ValueError):
        GridPath.from_csv(p)


def test_gridpath_validation():
    with pytest.raises(ValueError):
        GridPath(1.0, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        GridPath(-1.0, np.zeros(5))
    with pytest.raises(ValueError):
        GridPath(1.0, np.array([0.0, np.nan, 1.0]))


def test_field2d_integral_sq():
    f = GridField2D(2.0, np.ones((5, 9)))
    assert f.integral_sq() == pytest.approx(2.0, abs=1e-14)


def test_field2d_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    f = GridField2D(1.5, rng.standard_normal((4, 6)))
    p = tmp_path / "f.csv"
    f.to_csv(p)
    back = GridField2D.from_csv(p)
    assert back.t_horizon == f.t_horizon
    assert np.array_equal(back.values, f.values)


def test_csv_writers_match_csv_writer_reference(tmp_path):
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((5, 7)) * 10.0 ** rng.integers(-300, 300, size=(5, 7))
    vals[0, :3] = [0.0, -0.0, 1.0]
    f = GridField2D(1.3, vals)
    g = GridPath(1.3, vals[1])
    f.to_csv(tmp_path / "f.csv")
    g.to_csv(tmp_path / "g.csv")
    with open(tmp_path / "f_ref.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "t", "value"])
        for it, t in enumerate(f.t_grid):
            for ix, x in enumerate(f.x_grid):
                w.writerow([repr(float(x)), repr(float(t)), repr(float(f.values[ix, it]))])
    with open(tmp_path / "g_ref.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "value"])
        for t, v in zip(g.times, g.values):
            w.writerow([repr(float(t)), repr(float(v))])
    assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "f_ref.csv").read_bytes()
    assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "g_ref.csv").read_bytes()
