"""Dense references for the matrix-free Fredholm operator of `mdqueue.fredholm`
and for the oracle's minimum-norm solve."""
import numpy as np
from numpy.polynomial.legendre import leggauss

from mdqueue.fredholm import shift_matrix
from mdqueue.grids import trap_weights

_GAUSS_ORDER = 40  # Gauss-Legendre nodes of the inner integral in kernel_matrix


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


def bordered_min_norm(sys):
    """Minimum-weighted-norm controls u and value 1/2 u' W u of the QP `sys`
    through the Gram of all its constraint rows at once, the zero-mean rows
    bordering the path rows ((2N+2) x (2N+2) with them): the reference for the
    N x N Schur-complement solve of `oracle.solve_min_norm`."""
    from scipy.linalg import cho_factor, cho_solve

    A = np.stack([sys.A.rmatvec(e) for e in np.eye(sys.A.shape[0])])  # rows of the dense A
    lam = cho_solve(cho_factor((A / sys.w) @ A.T), sys.r)
    u = (A.T @ lam) / sys.w
    return u, 0.5 * float(u @ (sys.w * u))
