"""Reference (numpy/scipy) implementations of every computation we generate.

These are the ground truth against which generated kernels are validated,
and they double as the "algorithm specification" for the flop counts used
in the performance plots (paper's cost formulas, Figs. 14/15).

The oracles that need scipy import it on first call, so a process that
only builds cases and serves kernels never loads LAPACK's bindings
(``tests/test_import_footprint.py`` pins that).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


# ---------------------------------------------------------------------------
# HLAC kernels (Table 3 of the paper)
# ---------------------------------------------------------------------------


def potrf_upper(matrix: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor U with U^T U = A (A symmetric positive definite)."""
    return np.linalg.cholesky(matrix).T


def potrf_lower(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L with L L^T = A."""
    return np.linalg.cholesky(matrix)


def trsm(coefficient: np.ndarray, rhs: np.ndarray, lower: bool,
         transposed: bool = False) -> np.ndarray:
    """Solve ``op(T) X = B`` for X with T triangular."""
    import scipy.linalg
    return scipy.linalg.solve_triangular(coefficient, rhs, lower=lower,
                                         trans="T" if transposed else "N")


def trtri(coefficient: np.ndarray, lower: bool = True) -> np.ndarray:
    """Inverse of a triangular matrix (same triangle as the input)."""
    import scipy.linalg
    identity = np.eye(coefficient.shape[0])
    return scipy.linalg.solve_triangular(coefficient, identity, lower=lower)


def trsyl(lower_coeff: np.ndarray, upper_coeff: np.ndarray,
          rhs: np.ndarray) -> np.ndarray:
    """Solve the triangular Sylvester equation ``L X + X U = C``."""
    import scipy.linalg
    return scipy.linalg.solve_sylvester(lower_coeff, upper_coeff, rhs)


def trlya(lower_coeff: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the triangular continuous-time Lyapunov equation
    ``L X + X L^T = S`` (X symmetric when S is)."""
    import scipy.linalg
    return scipy.linalg.solve_sylvester(lower_coeff, lower_coeff.T, rhs)


# ---------------------------------------------------------------------------
# Well-conditioned random inputs
# ---------------------------------------------------------------------------


def random_spd(n: int, rng: np.random.Generator) -> np.ndarray:
    """A well-conditioned symmetric positive definite matrix."""
    factor = rng.standard_normal((n, n)) / np.sqrt(n)
    return factor @ factor.T + np.eye(n) * (1.0 + 0.1 * n / max(n, 1))


def random_lower_triangular(n: int, rng: np.random.Generator) -> np.ndarray:
    """A well-conditioned lower-triangular matrix (positive diagonal)."""
    matrix = np.tril(rng.standard_normal((n, n)) / np.sqrt(n))
    np.fill_diagonal(matrix, 1.0 + np.abs(rng.standard_normal(n)))
    return matrix


def random_upper_triangular(n: int, rng: np.random.Generator) -> np.ndarray:
    return random_lower_triangular(n, rng).T


# ---------------------------------------------------------------------------
# Applications (paper Fig. 13)
# ---------------------------------------------------------------------------


def kalman_filter_step(inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """One Kalman-filter iteration in the form of the paper's LA program
    (Fig. 13a): prediction followed by update, inversion via Cholesky."""
    import scipy.linalg
    F, B, Q, H, R = (inputs[k] for k in ("F", "B", "Q", "H", "R"))
    P, u, x, z = (inputs[k] for k in ("P", "u", "x", "z"))

    y = F @ x + B @ u
    Y = F @ P @ F.T + Q
    v0 = z - H @ y
    M1 = H @ Y
    M2 = Y @ H.T
    M3 = M1 @ H.T + R
    U = potrf_upper(M3)
    v1 = scipy.linalg.solve_triangular(U, v0, lower=False, trans="T")
    v2 = scipy.linalg.solve_triangular(U, v1, lower=False)
    M4 = scipy.linalg.solve_triangular(U, M1, lower=False, trans="T")
    M5 = scipy.linalg.solve_triangular(U, M4, lower=False)
    x_new = y + M2 @ v2
    P_new = Y - M2 @ M5
    return {"x": x_new, "P": P_new, "y": y, "Y": Y, "U": U}


def gaussian_process_regression(inputs: Dict[str, np.ndarray]
                                ) -> Dict[str, float]:
    """Gaussian-process regression for one noise-free test point
    (paper Fig. 13b): predictive mean phi, variance psi, log-likelihood term
    lambda."""
    import scipy.linalg
    K, X, x, y = (inputs[k] for k in ("K", "X", "x", "y"))
    L = potrf_lower(K)
    t0 = scipy.linalg.solve_triangular(L, y, lower=True)
    t1 = scipy.linalg.solve_triangular(L.T, t0, lower=False)
    k_star = X @ x
    phi = float((k_star.T @ t1).item())
    v = scipy.linalg.solve_triangular(L, k_star, lower=True)
    psi = float((x.T @ x - v.T @ v).item())
    lam = float((y.T @ t1).item())
    return {"phi": phi, "psi": psi, "lambda": lam}


def l1_analysis_step(inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """One iteration of the L1-analysis convex solver (paper Fig. 13c)."""
    W, A, x0, y = (inputs[k] for k in ("W", "A", "x0", "y"))
    v1, z1, v2, z2 = (inputs[k] for k in ("v1", "z1", "v2", "z2"))
    alpha, beta, tau = (float(np.asarray(inputs[k]).reshape(-1)[0])
                        for k in ("alpha", "beta", "tau"))

    y1 = alpha * v1 + tau * z1
    y2 = alpha * v2 + tau * z2
    x1 = W.T @ y1 - A.T @ y2
    x = x0 + beta * x1
    z1_new = y1 - W @ x
    z2_new = y2 - (y - A @ x)
    v1_new = alpha * v1 + tau * z1_new
    v2_new = alpha * v2 + tau * z2_new
    return {"v1": v1_new, "z1": z1_new, "v2": v2_new, "z2": z2_new}


# ---------------------------------------------------------------------------
# Cost formulas (flop counts used on the y-axes of the paper's plots)
# ---------------------------------------------------------------------------


def cost_potrf(n: int) -> float:
    return n ** 3 / 3.0


def cost_gemm(n: int) -> float:
    return 2.0 * n ** 3


def cost_trsm(n: int, nrhs: int) -> float:
    return n * n * nrhs


def cost_trtri(n: int) -> float:
    return n ** 3 / 3.0


def cost_trsyl(n: int) -> float:
    return 2.0 * n ** 3


def cost_trlya(n: int) -> float:
    return float(n ** 3)


def cost_kf(n: int, k: int) -> float:
    """Kalman filter cost; for k == n this is about 11.3 n^3 (paper Fig. 15a)."""
    gemm = 2.0 * n * n * n            # F*P, (F*P)*F^T  etc. dominate
    cost = 0.0
    cost += 2 * n * n                  # F*x, B*u
    cost += 2 * gemm                   # Y = F*P*F^T
    cost += 2 * k * n                  # H*y
    cost += 2 * k * n * n              # M1 = H*Y
    cost += 2 * n * n * k              # M2 = Y*H^T
    cost += 2 * k * k * n              # M3 = M1*H^T
    cost += cost_potrf(k)              # Cholesky of M3
    cost += 2 * k * k                  # two triangular vector solves
    cost += 2 * k * k * n              # two triangular matrix solves
    cost += 2 * n * k                  # x update
    cost += 2 * n * n * k              # P update
    return cost


def cost_gpr(n: int) -> float:
    return cost_potrf(n) + 3 * n * n + 2 * n * n + 6 * n


def cost_l1a(n: int) -> float:
    return 8.0 * n * n


__all__ = [name for name in dir() if not name.startswith("_")]
