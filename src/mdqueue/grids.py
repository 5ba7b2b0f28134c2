"""Uniform-grid containers for paths and 2-D density fields, quadrature helpers and the
one trapezoid lag convolution."""
from __future__ import annotations

import csv
import logging
import os
from dataclasses import dataclass
from itertools import chain

import numpy as np

__all__ = [
    "GridPath",
    "GridField2D",
    "float_strs",
    "write_csv",
    "trap_weights",
    "conv_trap",
    "cumtrap",
    "LagConv",
]

log = logging.getLogger(__name__)
BLOCK_ROWS = 4096  # rows formatted and written at a time: bounds the strings alive at once


def float_strs(values) -> list:
    """repr() of each float in values, from orjson's shortest round-trip digits.  They can differ
    only where repr writes an exponent (0 < |x| < 1e-4, |x| >= 1e16) and on nan and inf (orjson
    writes 0.00001, -1e-7, 1e16 and null for 1e-05, -1e-07, 1e+16 and nan), so those entries take
    repr.  An integer array gives orjson's integer digits, which are str() of each entry."""
    import orjson
    a = np.asarray(values)
    integer = a.dtype.kind in "iu"
    a = np.ascontiguousarray(a if integer else a.astype(float, copy=False)).ravel()
    strs = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",") if a.size else []
    if integer:
        return strs
    fix = np.flatnonzero((np.abs(a) < 1e-4) & (a != 0.0) | ~(np.abs(a) < 1e16))
    for i, x in zip(fix.tolist(), a[fix].tolist()):
        strs[i] = repr(x)
    return strs


def write_csv(path, header: str, columns: list, newline: str = "\n") -> None:
    """Write the header line and one row per entry of the columns, BLOCK_ROWS rows at a time.  A column
    is an array of numbers, written by `float_strs`; an array of strings, written as given; or one
    string, written on every row (a separator).  A row is its columns' entries joined, then the
    newline, and a block is one join over its rows.  Logs the file's rows and bytes."""
    columns = [c if isinstance(c, str) else np.asarray(c) for c in columns]
    (n_rows,) = {len(c) for c in columns if not isinstance(c, str)}  # arrays of unequal length: ValueError
    k = len(columns) + 1  # pieces per row, the newline last
    with open(path, "w", newline="") as fh:
        n_bytes = fh.write(header + newline)
        for lo in range(0, n_rows, BLOCK_ROWS):
            m = min(BLOCK_ROWS, n_rows - lo)
            flat = [newline] * (k * m)
            for j, c in enumerate(columns):
                flat[j::k] = ([c] * m if isinstance(c, str) else c[lo:lo + m].tolist() if c.dtype.kind in "OU"
                              else float_strs(c[lo:lo + m]))
            n_bytes += fh.write("".join(flat))
    log.info("%s: %d rows, %d bytes", os.path.basename(path), n_rows, n_bytes)


def trap_weights(n_nodes: int, dt: float) -> np.ndarray:
    """Trapezoid weights for n_nodes uniformly spaced nodes with step dt."""
    if n_nodes == 1:
        return np.zeros(1)
    w = np.full(n_nodes, dt)
    w[0] = w[-1] = dt / 2.0
    return w


@dataclass(frozen=True)
class LagConv:
    """The trapezoid prefix convolution T at unit step with lag columns g_c on a uniform
    grid: (T u)_i = sum_c sum_{j<=i} tw_i[j] g_c[i-j] u_c[j], tw_i the trapezoid weights
    of [0, t_i] (1/2 at j = 0 and j = i; row 0 is zero).  With g_0 and u_0 halved, which
    meet only in row 0, T u is a linear convolution, applied by FFT zero-padded to
    n_fft >= 2n - 1 points so that nothing wraps.  A 1-D `lags` is one column."""

    lags: np.ndarray  # the lag columns g_c as given
    spectra: np.ndarray  # rfft of the lag columns, g_0 halved, to n_fft points
    n_fft: int

    @classmethod
    def of(cls, lags) -> "LagConv":
        lags = np.asarray(lags, dtype=float)
        g = lags.copy()
        g[0] *= 0.5
        n_fft = 1 << (2 * len(g) - 2).bit_length()
        return cls(lags, np.fft.rfft(g, n_fft, axis=0), n_fft)

    @classmethod
    def of_law(cls, d, horizon: float, n_steps: int) -> "LagConv":
        """T of the lag g_k = dt F'(t_k) of the service law d on t_k = k dt, dt = horizon / n_steps:
        (T u)_i is the trapezoid rule for int_0^{t_i} u(t_i - s) dF(s).  The one place the lag of
        dF is built: the adjoint's shift operator, the defect, the renewal march and the
        simulator's decomposition all take it from here."""
        return cls.of(horizon / n_steps * d.pdf(np.linspace(0.0, horizon, n_steps + 1)))

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        """T u, u of the shape of the lags: the sum over columns of their convolutions."""
        u = np.array(u, dtype=float)
        u[0] *= 0.5
        U = np.fft.rfft(u, self.n_fft, axis=0)
        # einsum sums over the columns without a (n_fft/2 + 1, k) product
        spectrum = self.spectra * U if U.ndim == 1 else np.einsum("fc,fc->f", self.spectra, U)
        out = np.fft.irfft(spectrum, self.n_fft)[: len(u)]
        out[0] = 0.0
        return out

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """T^T y, one column per lag: the correlation with y_1..y_N (row 0 of T is zero), halved at 0."""
        Y = np.fft.rfft(y[:0:-1], self.n_fft)
        out = np.fft.irfft(self.spectra * (Y if self.spectra.ndim == 1 else Y[:, None]), self.n_fft, axis=0)
        out = out[len(y) - 1 :: -1]
        out[0] *= 0.5
        return out


def conv_trap(a: np.ndarray, b: np.ndarray, dt: float) -> np.ndarray:
    """Prefix convolutions c_i = int_0^{t_i} a(t_i - s) b(s) ds by the trapezoid rule, a and b
    nodal samples on one uniform grid; c_0 = 0 exactly."""
    return dt * (LagConv.of(a) @ b)


def cumtrap(values: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid integral along a uniform grid (axis 0), starting at 0."""
    out = np.zeros_like(values, dtype=float)
    out[1:] = np.cumsum(0.5 * dt * (values[1:] + values[:-1]), axis=0)
    return out


def _read_grid(path, names: tuple) -> tuple[tuple, np.ndarray]:
    """The CSV grid file with header `names`,value: every row has the header's fields,
    each coordinate takes the nodes of a uniform grid from 0, and each node of their
    product has exactly one row.  Returns the nodes of each coordinate and the values
    indexed by node."""
    header = [*names, "value"]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path}: expected header {','.join(header)!r}")
    if set(map(len, rows[1:])) - {len(header)}:
        raise ValueError(f"{path}: every row must have the header's {len(header)} fields")
    data = np.fromiter(map(float, chain.from_iterable(rows[1:])), float).reshape(-1, len(header))
    nodes, index = zip(*(np.unique(c, return_inverse=True) for c in data[:, :-1].T))
    for name, grid in zip(names, nodes):
        step = np.diff(grid)
        if len(grid) < 2 or abs(grid[0]) > 1e-12 or not np.allclose(step, step[0], rtol=1e-9, atol=1e-12):
            raise ValueError(f"{path}: {name} must take the nodes of a uniform grid from 0, at least 2 of them")
    shape = tuple(map(len, nodes))
    if len(data) != np.prod(shape) or np.bincount(np.ravel_multi_index(index, shape)).max() > 1:
        raise ValueError(f"{path}: each node of the {' x '.join(map(str, shape))} grid must have exactly one row")
    values = np.empty(shape)
    values[index] = data[:, -1]
    return nodes, values


@dataclass(frozen=True)
class GridPath:
    """Scalar path sampled at t_i = i * T / N on [0, T]."""

    horizon: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or len(vals) < 3:
            raise ValueError("GridPath needs at least 3 nodes (N >= 2)")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if not np.all(np.isfinite(vals)):
            raise ValueError("GridPath values must be finite")

    @property
    def n_steps(self) -> int:
        return len(self.values) - 1

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, len(self.values))

    def weights(self) -> np.ndarray:
        return trap_weights(len(self.values), self.dt)

    def interp(self, t):
        """Linear interpolation, constant continuation beyond the horizon."""
        t = np.asarray(t, dtype=float)
        return np.interp(t, self.times, self.values)

    def to_csv(self, path) -> None:
        write_csv(path, "t,value", [self.times, ",", self.values], "\r\n")

    @classmethod
    def from_csv(cls, path) -> "GridPath":
        (t,), values = _read_grid(path, ("t",))
        return cls(horizon=float(t[-1]), values=values)


@dataclass(frozen=True)
class GridField2D:
    """Density field on [0, 1] x [0, T]: values[ix, it] at (x_ix, t_it)."""

    t_horizon: float
    values: np.ndarray  # shape (M+1, N+1)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2 or vals.shape[0] < 2 or vals.shape[1] < 2:
            raise ValueError("GridField2D needs at least a 2x2 node grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("GridField2D values must be finite")
        if not self.t_horizon > 0:
            raise ValueError("t_horizon must be positive")

    @property
    def x_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.values.shape[0])

    @property
    def t_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_horizon, self.values.shape[1])

    @property
    def dx(self) -> float:
        return 1.0 / (self.values.shape[0] - 1)

    @property
    def dt(self) -> float:
        return self.t_horizon / (self.values.shape[1] - 1)

    def integral_sq(self) -> float:
        """Trapezoid quadrature of the squared field over its rectangle."""
        wx = trap_weights(self.values.shape[0], self.dx)
        wt = trap_weights(self.values.shape[1], self.dt)
        return float(wx @ (self.values**2) @ wt)

    def to_csv(self, path) -> None:
        # rows in t-major order, x fastest; each x and t label carries the comma that follows it
        n_x, n_t = self.values.shape
        xs, ts = (np.array([s + "," for s in float_strs(g)], dtype=object) for g in (self.x_grid, self.t_grid))
        write_csv(path, "x,t,value", [np.tile(xs, n_t), np.repeat(ts, n_x), self.values.T.ravel()], "\r\n")

    @classmethod
    def from_csv(cls, path) -> "GridField2D":
        (x, t), values = _read_grid(path, ("x", "t"))
        if abs(x[-1] - 1.0) > 1e-12:
            raise ValueError(f"{path}: x must end at 1, not {x[-1]!r}")
        return cls(t_horizon=float(t[-1]), values=values)
