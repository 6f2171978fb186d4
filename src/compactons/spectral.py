"""Spectral analysis of the degenerate linearization for quartic compactons.

The operator is L w = -phi (d^2/dx^2 + 2) (phi w) on the support interval of
a p = 4 compacton phi.  Writing y = phi*w turns every question about L into
one about y'' + 2y on (-x_r, x_r) with y = 0 at the ends, where the
coefficients are trigonometric: rho = phi^2 = c + Z cos(sqrt(2) x).  The
module exploits this throughout -- homogeneous solutions and Wronskians come
from closed trig forms, the inverse is a tridiagonal solve in y, and the
Schroedinger conjugate of the B = 0 case is handled on a truncated line.

Four parameter cases are supported, tagged B0c1, B14c1, B14c0, B14cm1 for
(B, c) = (0, 1), (1/4, 1), (1/4, 0), (1/4, -1).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh, eigh_tridiagonal, lu_factor, lu_solve, solve_banded

from .profiles import CompactonProfile, ModelParams, build_compacton

__all__ = [
    "CASE_PARAMS",
    "LinearizedOperator",
    "BOperator",
    "GreenKernel",
    "Spectrum",
    "LinearizedTrajectory",
    "make_operator",
    "apply_L",
    "homogeneous_solutions",
    "green_apply",
    "hs_norm_bound",
    "b_transform",
    "eig_b",
    "eig_green",
    "frobenius_exponents",
    "count_zeros",
    "energy_form",
    "evolve_linearized",
    "spectrum_json",
    "write_trajectory_csv",
]

SQRT2 = math.sqrt(2.0)

CASE_PARAMS = {
    "B0c1": (0.0, 1.0),
    "B14c1": (0.25, 1.0),
    "B14c0": (0.25, 0.0),
    "B14cm1": (0.25, -1.0),
}


def _check_case(case_tag):
    if case_tag not in CASE_PARAMS:
        raise ValueError(f"unknown case {case_tag!r}; expected one of {sorted(CASE_PARAMS)}")


def _check_k(k, available):
    if not 1 <= k <= available:
        raise ValueError(f"k = {k} eigenpairs requested; the grid gives 1 to {available}")


@dataclass(frozen=True)
class LinearizedOperator:
    case_tag: str
    profile: CompactonProfile
    interval: tuple

    @property
    def c(self):
        return self.profile.params.c

    @property
    def xs_interior(self):
        return self.profile.xs[1:-1]


@dataclass(frozen=True)
class BOperator:
    """Schroedinger conjugate -d^2/dt^2 + 1/4 + (15/4) V(t) of the B0c1 operator."""

    truncation: float
    ts: np.ndarray
    potential: np.ndarray
    constant_term: float
    coupling: float
    conjugator: np.ndarray
    x_of_t: np.ndarray


@dataclass(frozen=True)
class GreenKernel:
    case_tag: str
    xs: np.ndarray
    wronskian_constant: float
    q_minus: Optional[np.ndarray] = None
    q_plus: Optional[np.ndarray] = None
    q1: Optional[np.ndarray] = None
    q2: Optional[np.ndarray] = None
    q_star: Optional[np.ndarray] = None
    phi: Optional[np.ndarray] = None
    dq: dict = field(default_factory=dict, repr=False)


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray  # columns
    continuum_edge: Optional[float]
    zero_counts: list
    artifact_flags: list
    grid: dict


@dataclass
class LinearizedTrajectory:
    times: np.ndarray
    states: np.ndarray  # rows: v at each recorded time
    energy: np.ndarray  # quadratic form value E[v]
    flux: np.ndarray  # Upsilon(t): left-endpoint limit of L v
    ortho_phi: np.ndarray
    ortho_phix: np.ndarray
    xs: np.ndarray


def make_operator(case_tag: str, n: int = 4097) -> LinearizedOperator:
    _check_case(case_tag)
    B, c = CASE_PARAMS[case_tag]
    prof = build_compacton(ModelParams(4.0, 0.0, B, c), n)
    return LinearizedOperator(case_tag, prof, (-prof.half_width, prof.half_width))


# ---------------------------------------------------------------------------
# closed trig forms of rho and the homogeneous y-solutions


def _rho_coeffs(case_tag):
    B, c = CASE_PARAMS[case_tag]
    return c, math.sqrt(4 * B + c * c)


def _y_pair(case_tag, xr):
    """(y_a, y_b, dy_a, dy_b, W) with y = phi*q for the case's homogeneous pair."""
    if case_tag == "B0c1":
        ya = lambda x: -np.sin(SQRT2 * x) / SQRT2  # phi * phi_x
        dya = lambda x: -np.cos(SQRT2 * x)
        yb = lambda x: np.cos(SQRT2 * x) / 2  # phi * (phi - 1/phi)/2
        dyb = lambda x: -SQRT2 * np.sin(SQRT2 * x) / 2
        W = 0.5
    elif case_tag == "B14c0":
        ya = lambda x: np.cos(SQRT2 * x)  # phi * phi
        dya = lambda x: -SQRT2 * np.sin(SQRT2 * x)
        yb = lambda x: np.sin(SQRT2 * x) / SQRT2  # phi * q_star
        dyb = lambda x: np.cos(SQRT2 * x)
        W = 1.0
    else:
        ya = lambda x: np.sin(SQRT2 * (x + xr)) / SQRT2  # phi * q_minus
        dya = lambda x: np.cos(SQRT2 * (x + xr))
        yb = lambda x: np.sin(SQRT2 * (x - xr)) / SQRT2  # phi * q_plus
        dyb = lambda x: np.cos(SQRT2 * (x - xr))
        W = math.sin(2 * SQRT2 * xr) / SQRT2
    return ya, yb, dya, dyb, W


def homogeneous_solutions(case_tag: str, n: int = 4097) -> GreenKernel:
    """Sampled homogeneous pair of the case, with its constant modified Wronskian.

    B0c1 stores (q1, q2) = (phi_x, (phi - 1/phi)/2) with W = 1/2; the B = 1/4
    moving cases store q_pm = sin(sqrt2 (x -+ x_r))/(sqrt2 phi) with
    W = -sqrt2 c/(1 + c^2); the c = 0 case stores (phi, q_star).
    """
    op = make_operator(case_tag, n)
    xr = op.profile.half_width
    x = op.xs_interior
    phi = op.profile.phi[1:-1]
    c, Z = _rho_coeffs(case_tag)
    rho = c + Z * np.cos(SQRT2 * x)
    drho = -SQRT2 * Z * np.sin(SQRT2 * x)
    ya, yb, dya, dyb, W = _y_pair(case_tag, xr)

    def to_q(yf, dyf):
        q = yf(x) / phi
        dq = (dyf(x) - yf(x) * drho / (2 * rho)) / phi
        return q, dq

    qa, dqa = to_q(ya, dya)
    qb, dqb = to_q(yb, dyb)
    dq = {"a": dqa, "b": dqb}
    if case_tag == "B0c1":
        return GreenKernel(case_tag, x, W, q1=qa, q2=qb, dq=dq)
    if case_tag == "B14c0":
        return GreenKernel(case_tag, x, W, phi=phi * 1.0, q_star=qb, dq=dq)
    return GreenKernel(case_tag, x, W, q_minus=qa, q_plus=qb, dq=dq)


def wronskian_samples(kern: GreenKernel) -> np.ndarray:
    """phi^2 (q_a q_b' - q_a' q_b) at every sample; constant for true solutions."""
    qa = kern.q1 if kern.q1 is not None else (kern.q_minus if kern.q_minus is not None else kern.phi)
    qb = kern.q2 if kern.q2 is not None else (kern.q_plus if kern.q_plus is not None else kern.q_star)
    c, Z = _rho_coeffs(kern.case_tag)
    rho = c + Z * np.cos(SQRT2 * kern.xs)
    return rho * (qa * kern.dq["b"] - kern.dq["a"] * qb)


# ---------------------------------------------------------------------------
# applying and inverting the operator


def apply_L(op: LinearizedOperator, w: np.ndarray) -> np.ndarray:
    """-phi ((phi w)'' + 2 phi w) on interior samples; phi*w extends by zero."""
    phi = op.profile.phi[1:-1]
    if w.shape != phi.shape:
        raise ValueError(f"expected {phi.shape[0]} interior samples, got {w.shape[0]}")
    h = op.profile.xs[1] - op.profile.xs[0]
    y = phi * w
    ypad = np.concatenate(([0.0], y, [0.0]))
    d2 = (ypad[:-2] - 2 * y + ypad[2:]) / (h * h)
    return -phi * (d2 + 2 * y)


def _interior_grid(case_tag, m):
    op = make_operator(case_tag, m + 2)
    return op


def green_apply(case_tag: str, f: np.ndarray, enforce_orthogonality: bool = True) -> np.ndarray:
    """Solve L w = f on the interior grid that f is sampled on.

    Reduces to the Dirichlet problem y'' + 2y = -f/phi for y = phi*w, solved
    with the same second-order stencil `apply_L` uses, so the composition
    apply_L(green_apply(f)) returns f to rounding error.  The resonant cases
    (B0c1 and B14c0, where the Dirichlet problem has a null direction) require
    f orthogonal to phi_x resp. phi; the returned solution is fixed by
    orthogonality to that direction.
    """
    _check_case(case_tag)
    f = np.asarray(f, dtype=float)
    m = f.size
    op = _interior_grid(case_tag, m)
    phi = op.profile.phi[1:-1]
    h = op.profile.xs[1] - op.profile.xs[0]
    r = -f / phi

    # tridiagonal (D2 + 2I) y = r with Dirichlet ends
    main = np.full(m, -2.0 / (h * h) + 2.0)
    off = np.full(m - 1, 1.0 / (h * h))

    if case_tag == "B0c1":
        nf = np.linalg.norm(f)
        if abs(phi @ f) * h > 1e-8 * (1 + nf):
            raise ValueError("B0c1 right-hand side must be orthogonal to phi")
    resonant = case_tag in ("B0c1", "B14c0")
    if resonant:
        # discrete null direction of the Dirichlet problem
        vals, vecs = eigh_tridiagonal(main, off, select="v", select_range=(-0.5, 0.5))
        j = int(np.argmin(np.abs(vals)))
        null = vecs[:, j]
        null /= np.linalg.norm(null)
        # direction along which w is non-unique: null/phi (phi_x for B0c1, phi for c0)
        free_dir = null / phi
        comp = float(null @ r)
        if enforce_orthogonality and abs(comp) > 1e-8 * (1 + np.linalg.norm(r)):
            raise ValueError(
                f"right-hand side violates the {case_tag} solvability condition "
                f"(component {comp:.2e} along the null direction)"
            )
        r = r - comp * null

    ab = np.zeros((3, m))
    ab[0, 1:] = off
    ab[1] = main
    ab[2, :-1] = off
    y = solve_banded((1, 1), ab, r)
    if resonant:
        y = y - (null @ y) * null
    w = y / phi
    if resonant and enforce_orthogonality:
        # fix the free constant: orthogonality to the free direction
        w = w - (free_dir @ w) / (free_dir @ free_dir) * free_dir
    return w


# ---------------------------------------------------------------------------
# Hilbert-Schmidt bounds and the explicit kernel (B = 1/4)


def _green_pair(case_tag, x, xr):
    """(q_-, q_+, W, phi) on x for the non-resonant B = 1/4 cases.

    The inverse kernel is K(x, y) = -q_-(min(x, y)) q_+(max(x, y)) / W.
    """
    if case_tag not in ("B14c1", "B14cm1"):
        raise ValueError("explicit inverse kernel available for B14c1 and B14cm1 only")
    c, Z = _rho_coeffs(case_tag)
    phi = np.sqrt(np.maximum(c + Z * np.cos(SQRT2 * x), 1e-300))
    qm = np.sin(SQRT2 * (x + xr)) / (SQRT2 * phi)
    qp = np.sin(SQRT2 * (x - xr)) / (SQRT2 * phi)
    W = math.sin(2 * SQRT2 * xr) / SQRT2
    return qm, qp, W, phi


def _kernel_matrix(case_tag, x, xr):
    """K(x_i, x_j) of the inverse for the non-resonant B = 1/4 cases."""
    qm, qp, W, _ = _green_pair(case_tag, x, xr)
    lower = np.tril(np.outer(qp, qm))  # rows i >= cols j: q_-(x_j) q_+(x_i)
    K = lower + lower.T - np.diag(qm * qp)
    return -K / W


def _kernel_inverse(case_tag, x, xr):
    """(diagonal, off-diagonal) of the inverse of `_kernel_matrix`, which is tridiagonal.

    x must be increasing.  The kernel matrix is -G / W with the semiseparable
    Green matrix G_ij = q_-(x_min(i,j)) q_+(x_max(i,j)), so its inverse is
    -W T with T = G^-1 tridiagonal: T_{i,i+1} = -1/d_i, d_i = a_{i+1} b_i -
    a_i b_{i+1} (a = q_-, b = q_+), interior diagonal (a_{i+1} b_{i-1} -
    a_{i-1} b_{i+1}) / (d_{i-1} d_i), and ends a_1 / (a_0 d_0),
    b_{n-2} / (b_{n-1} d_{n-2}).  Both differences are taken in the closed form
    a_j b_i - a_i b_j = -sin(2 sqrt2 x_r) sin(sqrt2 (x_j - x_i)) / (2 phi_i phi_j),
    which does not cancel for close samples.
    """
    qm, qp, W, phi = _green_pair(case_tag, x, xr)
    s2r = math.sin(2 * SQRT2 * xr)
    d = -s2r * np.sin(SQRT2 * np.diff(x)) / (2 * phi[:-1] * phi[1:])
    num = -s2r * np.sin(SQRT2 * (x[2:] - x[:-2])) / (2 * phi[:-2] * phi[2:])
    diag = np.empty(x.size)
    diag[1:-1] = num / (d[:-1] * d[1:])
    diag[0] = qm[1] / (qm[0] * d[0])
    diag[-1] = qp[-2] / (qp[-1] * d[-1])
    return -W * diag, W / d


def green_orthogonalize(case_tag: str, f: np.ndarray) -> np.ndarray:
    """Project f onto the admissible right-hand sides of `green_apply`.

    Removes the components the resonant cases cannot invert (and, for B0c1,
    the component along phi), leaving non-resonant cases untouched.
    """
    _check_case(case_tag)
    f = np.asarray(f, dtype=float).copy()
    m = f.size
    if case_tag not in ("B0c1", "B14c0"):
        return f
    op = _interior_grid(case_tag, m)
    phi = op.profile.phi[1:-1]
    h = op.profile.xs[1] - op.profile.xs[0]
    main = np.full(m, -2.0 / (h * h) + 2.0)
    off = np.full(m - 1, 1.0 / (h * h))
    vals, vecs = eigh_tridiagonal(main, off, select="v", select_range=(-0.5, 0.5))
    null = vecs[:, int(np.argmin(np.abs(vals)))]
    g = null / phi  # solvability functional: <g, f> = 0 required
    f -= (g @ f) / (g @ g) * g
    if case_tag == "B0c1":
        f -= (phi @ f) / (phi @ phi) * phi
        f -= (g @ f) / (g @ g) * g
    return f


def hs_norm_bound(case_tag: str, levels=(256, 512, 1024)) -> list:
    """sup_x int |K(x, y)|^2 dy on successively refined uniform grids."""
    out = []
    op = make_operator(case_tag, 31)
    xr = op.profile.half_width
    for n in levels:
        x = np.linspace(-xr, xr, n + 2)[1:-1]
        h = x[1] - x[0]
        K = _kernel_matrix(case_tag, x, xr)
        row = np.sum(K * K, axis=1) * h
        out.append(float(np.max(row)))
    return out


def _graded_mesh(xr, n):
    """Midpoint mesh graded quadratically toward both endpoints."""
    ds = 2.0 / n
    s = -1.0 + (np.arange(n) + 0.5) * ds
    x = xr * s * (2 - np.abs(s))
    w = xr * 2 * (1 - np.abs(s)) * ds
    return x, w


def eig_green(case_tag: str, n: int = 1600, k: int = 6) -> Spectrum:
    """Lowest k eigenpairs of the B = 1/4 operators through their compact inverse.

    Nystrom discretization S = D K D, D = diag(sqrt(w)), of the inverse
    kernel K on a graded midpoint mesh with weights w; eigenvalues of L are
    reciprocals of the eigenvalues mu of S, and eigenfunctions are S's
    eigenvectors over sqrt(w).  k must lie between 1 and the number of
    eigenpairs the mesh gives (n, or n - 1 for B14c0).

    B14c1 and B14cm1: K is a semiseparable Green matrix whose inverse is
    tridiagonal (`_kernel_inverse`), so S^-1 = D^-1 K^-1 D^-1 is a symmetric
    tridiagonal matrix whose lowest k eigenpairs, the lowest k eigenpairs of
    L on the mesh, are computed directly in O(n k); no dense matrix is built.

    B14c0: the one-sided variation-of-parameters kernel is used on the
    complement of phi (the kernel of L).  S is its symmetric part projected
    off phi by rank-one updates, and only its k largest mu are computed, which
    are the lowest k eigenvalues since L is positive on that complement.
    """
    _check_case(case_tag)
    B, c = CASE_PARAMS[case_tag]
    if B != 0.25:
        raise ValueError("eig_green covers the B = 1/4 cases")
    if n < 2:
        raise ValueError(f"n = {n}: eig_green needs at least 2 mesh points")
    op = make_operator(case_tag, 31)
    xr = op.profile.half_width
    x, w = _graded_mesh(xr, n)
    sw = np.sqrt(w)
    if case_tag in ("B14c1", "B14cm1"):
        _check_k(k, n)
        k_diag, k_off = _kernel_inverse(case_tag, x, xr)
        lams, vecs = eigh_tridiagonal(
            k_diag / w, k_off / (sw[:-1] * sw[1:]), select="i", select_range=(0, k - 1)
        )
    else:
        _check_k(k, n - 1)
        # symmetric part of -sin(sqrt2 (x - y))/sqrt2 [x > y] / (phi(x) phi(y)), weighted
        phi = np.sqrt(np.maximum(np.cos(SQRT2 * x), 1e-300))
        s = sw / phi
        S = np.subtract.outer(x, x)
        np.abs(S, out=S)
        S *= SQRT2
        np.sin(S, out=S)
        S *= (-0.5 / SQRT2) * s[:, None]
        S *= s[None, :]
        # P S P with P = I - u u^T, as S - u z^T - z u^T with z = S u - (u.S u / 2) u
        u = phi * sw
        u /= np.linalg.norm(u)
        z = S @ u
        z -= 0.5 * (u @ z) * u
        S -= np.outer(u, z)
        S -= np.outer(z, u)
        mu, vecs = eigh(S, subset_by_index=[n - k, n - 1])
        lams, vecs = 1.0 / mu[::-1], vecs[:, ::-1]
    funcs = vecs / sw[:, None]
    zero_counts = [count_zeros(funcs[:, j]) for j in range(k)]
    return Spectrum(
        eigenvalues=lams,
        eigenfunctions=funcs,
        continuum_edge=None,
        zero_counts=zero_counts,
        artifact_flags=[False] * k,
        grid={"n": n, "x_r": xr, "method": "green"},
    )


# ---------------------------------------------------------------------------
# the Schroedinger conjugate (B = 0, c = 1)


def b_transform(op: LinearizedOperator, T: float = 12.0, n: int = 4097) -> BOperator:
    """Coordinate change t = -int_0^x 1/phi and conjugation to -d^2 + 1/4 + (15/4)V.

    x(t) solves dx/dt = -phi(x), x(0) = 0; V(t) = -phi(x(t))^2 / 2.  The
    conjugator g(t) = sqrt(phi(x(t))/phi(0)) is stored alongside.
    """
    if op.case_tag != "B0c1":
        raise ValueError("the Schroedinger conjugation is implemented for case B0c1")
    if n % 2 == 0:
        raise ValueError("n must be odd so the grid contains t = 0")
    ts = np.linspace(-T, T, n)
    t_half = ts[ts >= 0]
    sol = solve_ivp(
        lambda t, xv: [-_phi01(xv[0])],
        (0.0, T),
        [0.0],
        t_eval=t_half,
        rtol=1e-12,
        atol=1e-14,
        method="DOP853",
    )
    x_half = sol.y[0]
    x_of_t = np.concatenate((-x_half[1:][::-1], x_half))
    phi_t = np.array([_phi01(x) for x in x_of_t])
    V = -0.5 * phi_t**2
    if abs(V[-1]) > 1e-8:
        raise ValueError(f"truncation T = {T} too small: |V(T)| = {abs(V[-1]):.2e} > 1e-8")
    g = np.sqrt(phi_t / SQRT2)
    return BOperator(
        truncation=T,
        ts=ts,
        potential=V,
        constant_term=0.25,
        coupling=15.0 / 4.0,
        conjugator=g,
        x_of_t=x_of_t,
    )


def _phi01(x):
    xr = math.pi / SQRT2
    if abs(x) >= xr:
        return 0.0
    return SQRT2 * math.cos(x / SQRT2)


def eig_b(bop: BOperator, k: int = 2) -> Spectrum:
    """Lowest k eigenvalues of the truncated Schroedinger operator.

    Symmetric second-order finite differences with Dirichlet ends, Richardson
    extrapolated across the full and half-resolution grids.
    """
    _check_k(k, bop.ts[::2].size - 2)

    def levels(ts, V):
        h = ts[1] - ts[0]
        m = ts.size - 2
        pot = bop.constant_term + bop.coupling * V[1:-1]
        main = 2.0 / (h * h) + pot
        off = np.full(m - 1, -1.0 / (h * h))
        vals, vecs = eigh_tridiagonal(main, off, select="i", select_range=(0, k - 1))
        return vals, vecs

    vals_f, vecs_f = levels(bop.ts, bop.potential)
    vals_c, _ = levels(bop.ts[::2], bop.potential[::2])
    vals = (4 * vals_f - vals_c) / 3.0
    zero_counts = [count_zeros(vecs_f[:, j]) for j in range(vecs_f.shape[1])]
    flags = [bool(v >= 0.25) for v in vals]
    return Spectrum(
        eigenvalues=vals,
        eigenfunctions=vecs_f,
        continuum_edge=0.25,
        zero_counts=zero_counts,
        artifact_flags=flags,
        grid={"n": int(bop.ts.size), "T": float(bop.truncation), "method": "b"},
    )


# ---------------------------------------------------------------------------
# endpoint exponents, oscillation count, energy form


def frobenius_exponents(lam):
    """Both roots of alpha^2 + alpha + lambda = 0, larger real part first."""
    disc = cmath.sqrt(1 - 4 * lam)
    a1 = (-1 + disc) / 2
    a2 = (-1 - disc) / 2
    if a1.imag == 0:
        a1, a2 = a1.real, a2.real
    return (a1, a2) if (a1.real if isinstance(a1, complex) else a1) >= (
        a2.real if isinstance(a2, complex) else a2
    ) else (a2, a1)


def count_zeros(samples: np.ndarray) -> int:
    """Sign changes of the sampled function, ignoring amplitudes below 1e-9 of max."""
    s = np.asarray(samples, dtype=float)
    floor = 1e-9 * np.max(np.abs(s))
    sig = s[np.abs(s) > floor]
    if sig.size < 2:
        return 0
    return int(np.sum(np.sign(sig[:-1]) * np.sign(sig[1:]) < 0))


def energy_form(op: LinearizedOperator, w: np.ndarray) -> float:
    """E[w] = ||(phi w)'||^2 - 2 ||phi w||^2 with phi*w extended by zero."""
    phi = op.profile.phi[1:-1]
    h = op.profile.xs[1] - op.profile.xs[0]
    y = np.concatenate(([0.0], phi * w, [0.0]))
    dy = (y[1:] - y[:-1]) / h  # staggered first differences
    return float(h * np.sum(dy * dy) - 2 * h * np.sum((phi * w) ** 2))


# ---------------------------------------------------------------------------
# constrained linearized evolution v_t = (L v)_x + f


def _cell_operator(case_tag, N):
    """Cell-centered grid and the symmetric matrix of L with zero-extension BCs."""
    op = make_operator(case_tag, 31)
    xr = op.profile.half_width
    h = 2 * xr / N
    x = -xr + (np.arange(N) + 0.5) * h
    c, Z = _rho_coeffs(case_tag)
    rho = np.maximum(c + Z * np.cos(SQRT2 * x), 0.0)
    phi = np.sqrt(rho)
    # (D2 y)_j with ghost values y_{-1} = -y_0, y_N = -y_{N-1} (y = 0 at the faces)
    main = np.full(N, -3.0)
    main[1:-1] = -2.0
    D2 = (np.diag(main) + np.diag(np.ones(N - 1), 1) + np.diag(np.ones(N - 1), -1)) / (h * h)
    L = -(phi[:, None] * (D2 + 2 * np.eye(N)) * phi[None, :])
    return x, h, phi, L, xr


def _transport_matrix(N, h):
    """Centered d/dx with ghosts w_{-1} := w_0 (free left flux), w_N := -w_{N-1}."""
    D1 = (np.diag(np.ones(N - 1), 1) - np.diag(np.ones(N - 1), -1)) / (2 * h)
    D1[0, 0] = -1.0 / (2 * h)
    D1[-1, -1] = -1.0 / (2 * h)
    return D1


def _constraint_vectors(case_tag, L, phi, h):
    """Discrete eigenvectors of L standing in for phi (and phi_x for B0c1).

    Using the matrix eigenvectors instead of profile samples makes the
    multiplier-enforced constraints energy-neutral: for an eigenvector e,
    <L v, e> = lambda <v, e> = 0 on the constrained subspace, so the
    enforcement never feeds the quadratic form.
    """
    c = CASE_PARAMS[case_tag][1]
    vals, vecs = np.linalg.eigh(0.5 * (L + L.T))
    targets = [-2.0 * c]
    if case_tag == "B0c1":
        targets.append(0.0)
    out = []
    used = set()
    for t in targets:
        order = np.argsort(np.abs(vals - t))
        j = next(int(i) for i in order if int(i) not in used)
        used.add(j)
        out.append(vecs[:, j])
    return out


def constrain_initial(case_tag: str, v0: np.ndarray) -> np.ndarray:
    """Project initial data onto the orthogonality constraints of the evolution."""
    _check_case(case_tag)
    v0 = np.asarray(v0, dtype=float).copy()
    x, h, phi, L, xr = _cell_operator(case_tag, v0.size)
    for e in _constraint_vectors(case_tag, L, phi, h):
        v0 -= (v0 @ e) * e
    return v0


def evolve_linearized(
    op: LinearizedOperator,
    v0: np.ndarray,
    f: Optional[np.ndarray] = None,
    t_end: float = 1.0,
    N: int = 512,
    dt: Optional[float] = None,
    record_every: int = 1,
) -> LinearizedTrajectory:
    """Implicit-trapezoidal evolution of v_t = (L v)_x + f on the support.

    v vanishes at both endpoints and L v vanishes at the right endpoint; the
    surviving left-endpoint flux Upsilon = lim L v is recorded, and for f = 0
    the discrete energy E[v] = <v, L v> obeys dE/dt = -(Upsilon^2 + right
    closure flux) <= 0 exactly, step by step.  Orthogonality to the ground
    direction (and to the translation direction for B0c1) is enforced by
    projection of the generator, which keeps the constraints to rounding
    error without disturbing the energy identity.
    """
    _check_case(op.case_tag)
    x, h, phi, L, xr = _cell_operator(op.case_tag, N)
    v0 = np.asarray(v0, dtype=float)
    if v0.size != N:
        raise ValueError(f"initial data must have {N} cell samples")
    if dt is None:
        dt = 1e-3 * 2 * xr
    cons = _constraint_vectors(op.case_tag, L, phi, h)
    for e in cons:
        if abs(v0 @ e) > 1e-8 * np.linalg.norm(v0):
            raise ValueError("initial data violates an orthogonality constraint")
        v0 = v0 - (v0 @ e) * e
    D1 = _transport_matrix(N, h)
    P = np.eye(N)
    for e in cons:
        P -= np.outer(e, e)
    A = P @ (D1 @ L)
    src = np.zeros(N) if f is None else P @ np.asarray(f, dtype=float)

    steps = max(1, int(round(t_end / dt)))
    dt = t_end / steps
    lhs = np.eye(N) - 0.5 * dt * A
    rhs_m = np.eye(N) + 0.5 * dt * A
    lu = lu_factor(lhs)

    def diag(v):
        w = L @ v
        E = h * float(v @ w)
        ups = float(w[0])
        o_phi = h * float(v @ cons[0])
        o_phix = h * float(v @ cons[1]) if len(cons) > 1 else 0.0
        return E, ups, o_phi, o_phix

    times, states, Es, fluxes, o1s, o2s = [], [], [], [], [], []
    v = v0.copy()
    t = 0.0
    E, ups, o1, o2 = diag(v)
    times.append(t), states.append(v.copy()), Es.append(E)
    fluxes.append(ups), o1s.append(o1), o2s.append(o2)
    for istep in range(steps):
        v = lu_solve(lu, rhs_m @ v + dt * src)
        t = (istep + 1) * dt
        if (istep + 1) % record_every == 0 or istep == steps - 1:
            E, ups, o1, o2 = diag(v)
            times.append(t), states.append(v.copy()), Es.append(E)
            fluxes.append(ups), o1s.append(o1), o2s.append(o2)
    return LinearizedTrajectory(
        times=np.array(times),
        states=np.array(states),
        energy=np.array(Es),
        flux=np.array(fluxes),
        ortho_phi=np.array(o1s),
        ortho_phix=np.array(o2s),
        xs=x,
    )


# ---------------------------------------------------------------------------
# serialization


def spectrum_json(case_tag: str, spec: Spectrum) -> str:
    payload = {
        "case": case_tag,
        "eigenvalues": [float(v) for v in spec.eigenvalues],
        "continuum_edge": spec.continuum_edge,
        "zero_counts": [int(z) for z in spec.zero_counts],
        "grid": spec.grid,
    }
    return json.dumps(payload, indent=2)


def write_trajectory_csv(traj: LinearizedTrajectory, path):
    with open(path, "w") as fh:
        fh.write("t,energy_H,flux_upsilon,ortho_phi,ortho_phix\n")
        for t, E, u, o1, o2 in zip(traj.times, traj.energy, traj.flux, traj.ortho_phi, traj.ortho_phix):
            energy_h = math.sqrt(max(float(E), 0.0))
            fh.write(f"{float(t)!r},{energy_h!r},{float(u)!r},{float(o1)!r},{float(o2)!r}\n")
