"""Uniform-grid containers for paths and 2-D density fields, plus quadrature helpers."""
from __future__ import annotations

import csv
import logging
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridPath",
    "GridField2D",
    "float_strs",
    "write_csv",
    "trap_weights",
    "trap_integral",
    "conv_trap",
    "cumtrap",
]

log = logging.getLogger(__name__)
BLOCK_ROWS = 4096  # rows formatted and written at a time: bounds the strings alive at once


def float_strs(values) -> list:
    """repr() of each float in values, from orjson's shortest round-trip digits.  The two
    differ only where repr writes an exponent (0 < |x| < 1e-4, |x| >= 1e16) or nan/inf:
    orjson writes 1e-5 and 1e16 for 1e-05 and 1e+16, so those entries take repr.  An
    integer array gives orjson's integer digits, which are str() of each entry."""
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


def write_csv(path, header: str, n_rows: int, columns, newline: str = "\n") -> None:
    """Write the header line and n_rows rows, BLOCK_ROWS at a time; columns(lo, hi)
    returns the string columns of rows lo..hi-1.  Logs the file's rows and bytes."""
    with open(path, "w", newline="") as fh:
        n_bytes = fh.write(header + newline)
        for lo in range(0, n_rows, BLOCK_ROWS):
            n_bytes += fh.write(newline.join(map(",".join, zip(*columns(lo, min(lo + BLOCK_ROWS, n_rows))))) + newline)
    log.info("%s: %d rows, %d bytes", os.path.basename(path), n_rows, n_bytes)


def trap_weights(n_nodes: int, dt: float) -> np.ndarray:
    """Trapezoid weights for n_nodes uniformly spaced nodes with step dt."""
    if n_nodes == 1:
        return np.zeros(1)
    w = np.full(n_nodes, dt)
    w[0] = w[-1] = dt / 2.0
    return w


def trap_integral(values: np.ndarray, dt: float) -> float:
    return float(trap_weights(len(values), dt) @ values)


def conv_trap(a: np.ndarray, b: np.ndarray, dt: float) -> np.ndarray:
    """Prefix convolutions c_i = int_0^{t_i} a(t_i - s) b(s) ds by the trapezoid rule.

    a and b are nodal samples on the same uniform grid; c_0 = 0 exactly.
    """
    n = len(a)
    c = dt * np.convolve(a, b)[:n]
    c -= 0.5 * dt * (a[0] * b + b[0] * a)
    return c


def cumtrap(values: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid integral along a uniform grid, starting at 0."""
    out = np.zeros_like(values, dtype=float)
    out[1:] = np.cumsum(0.5 * dt * (values[1:] + values[:-1]))
    return out


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
        t, v = self.times, self.values
        write_csv(path, "t,value", len(v), lambda lo, hi: (float_strs(t[lo:hi]), float_strs(v[lo:hi])), "\r\n")

    @classmethod
    def from_csv(cls, path) -> "GridPath":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != ["t", "value"]:
            raise ValueError(f"{path}: expected header 't,value'")
        t = np.array([float(r[0]) for r in rows[1:]])
        v = np.array([float(r[1]) for r in rows[1:]])
        if len(t) < 3 or np.any(np.diff(t) <= 0):
            raise ValueError(f"{path}: need strictly increasing t with N >= 2")
        dt = np.diff(t)
        if not np.allclose(dt, dt[0], rtol=1e-9, atol=1e-12) or abs(t[0]) > 1e-12:
            raise ValueError(f"{path}: grid must be uniform and start at 0")
        return cls(horizon=float(t[-1]), values=v)


@dataclass(frozen=True)
class GridField2D:
    """Density field on [0, 1] x [0, T]: values[ix, it] at (x_ix, t_it)."""

    t_horizon: float
    values: np.ndarray  # shape (M+1, N+1)
    x_max: float = 1.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2 or vals.shape[0] < 2 or vals.shape[1] < 2:
            raise ValueError("GridField2D needs at least a 2x2 node grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("GridField2D values must be finite")
        if not (self.t_horizon > 0 and self.x_max > 0):
            raise ValueError("grid extents must be positive")

    @property
    def x_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.x_max, self.values.shape[0])

    @property
    def t_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_horizon, self.values.shape[1])

    @property
    def dx(self) -> float:
        return self.x_max / (self.values.shape[0] - 1)

    @property
    def dt(self) -> float:
        return self.t_horizon / (self.values.shape[1] - 1)

    def integral_sq(self) -> float:
        """Trapezoid quadrature of the squared field over its rectangle."""
        wx = trap_weights(self.values.shape[0], self.dx)
        wt = trap_weights(self.values.shape[1], self.dt)
        return float(wx @ (self.values**2) @ wt)

    def to_csv(self, path) -> None:
        xs, ts = (np.array(float_strs(g), dtype=object) for g in (self.x_grid, self.t_grid))

        def columns(lo, hi):  # rows in t-major order: row r holds node divmod(r, M + 1) = (it, ix)
            it, ix = np.divmod(np.arange(lo, hi), self.values.shape[0])
            return xs[ix].tolist(), ts[it].tolist(), float_strs(self.values[ix, it])

        write_csv(path, "x,t,value", self.values.size, columns, "\r\n")

    @classmethod
    def from_csv(cls, path) -> "GridField2D":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != ["x", "t", "value"]:
            raise ValueError(f"{path}: expected header 'x,t,value'")
        data = np.array([[float(c) for c in r] for r in rows[1:]])
        xs = np.unique(data[:, 0])
        ts = np.unique(data[:, 1])
        if len(xs) * len(ts) != len(data):
            raise ValueError(f"{path}: not a full grid")
        vals = np.empty((len(xs), len(ts)))
        ix = np.searchsorted(xs, data[:, 0])
        it = np.searchsorted(ts, data[:, 1])
        vals[ix, it] = data[:, 2]
        return cls(t_horizon=float(ts[-1]), values=vals, x_max=float(xs[-1]))
