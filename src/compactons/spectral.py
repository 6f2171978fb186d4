"""Spectral analysis of the degenerate linearization for quartic compactons.

The operator is L w = -phi (d^2/dx^2 + 2) (phi w) on the support interval of
a p = 4 compacton phi.  Writing y = phi*w turns every question about L into
one about y'' + 2y on (-x_r, x_r) with y = 0 at the ends, where the
coefficients are trigonometric: rho = phi^2 = c + Z cos(sqrt(2) x) with
Z = sqrt(4B + c^2) and half-width x_r = acos(-c/Z)/sqrt(2).  Every routine
takes (c, Z, x_r) and phi from `_geometry` and `_phi`, and every mode with a
closed form is computed from it:

- homogeneous solutions and Wronskians are trig pairs y = phi*q (`_y_pair`);
- the null mode of the Dirichlet matrix D2 + 2I that `green_apply` and
  `green_orthogonalize` project off is the sampled sine with the eigenvalue
  nearest zero (`_dirichlet_null_mode`);
- the constraint modes of `evolve_linearized` are the lowest eigenvectors of
  the symmetric tridiagonal cell matrix of L (`_constraint_vectors`), and its
  step matrix is banded plus a rank-k correction for the constraints;
- the coordinate change of `b_transform` is x(t) = -sqrt2 arctan(sinh t),
  which makes the conjugated potential exactly -sech^2 t;
- the inverse of the Green kernel is the exact three-point scheme of
  phi (-d^2 - 2) phi, a symmetric tridiagonal matrix (`_kernel_inverse`), so
  `eig_green` solves one tridiagonal eigenproblem for all three B = 1/4 cases
  and `hs_norm_bound` sums the semiseparable kernel with prefix sums.

Four parameter cases are supported, tagged B0c1, B14c1, B14c0, B14cm1 for
(B, c) = (0, 1), (1/4, 1), (1/4, 0), (1/4, -1).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.sparse.linalg import splu

from .profiles import CompactonProfile, ModelParams, _write_csv, build_compacton

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
    phi: np.ndarray
    qa: np.ndarray
    qb: np.ndarray
    dqa: np.ndarray
    dqb: np.ndarray


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
# the case geometry and the closed trig forms of phi and the homogeneous pairs


def _geometry(case_tag):
    """(c, Z, x_r): rho = phi^2 = c + Z cos(sqrt2 x) on the support (-x_r, x_r)."""
    _check_case(case_tag)
    B, c = CASE_PARAMS[case_tag]
    Z = math.sqrt(4 * B + c * c)
    return c, Z, math.acos(-c / Z) / SQRT2


def _phi(case_tag, x):
    """phi(x) = sqrt(rho(x)), floored so that 1/phi stays finite at the endpoints."""
    c, Z, _ = _geometry(case_tag)
    return np.sqrt(np.maximum(c + Z * np.cos(SQRT2 * x), 1e-300))


def _y_pair(case_tag, x, xr):
    """(y_a, y_b, y_a', y_b', W) on x, with y = phi*q for the case's homogeneous pair."""
    s = SQRT2 * x
    if case_tag == "B0c1":  # phi * phi_x and phi * (phi - 1/phi)/2
        return -np.sin(s) / SQRT2, np.cos(s) / 2, -np.cos(s), -SQRT2 * np.sin(s) / 2, 0.5
    if case_tag == "B14c0":  # phi * phi and phi * q_star
        return np.cos(s), np.sin(s) / SQRT2, -SQRT2 * np.sin(s), np.cos(s), 1.0
    # phi * q_- and phi * q_+, vanishing at -x_r and x_r respectively
    sm, sp = SQRT2 * (x + xr), SQRT2 * (x - xr)
    W = math.sin(2 * SQRT2 * xr) / SQRT2
    return np.sin(sm) / SQRT2, np.sin(sp) / SQRT2, np.cos(sm), np.cos(sp), W


def homogeneous_solutions(case_tag: str, n: int = 4097) -> GreenKernel:
    """Sampled homogeneous pair of the case, with its constant modified Wronskian.

    The samples are the n - 2 interior points of `make_operator(case_tag, n)`.
    (qa, qb) is (phi_x, (phi - 1/phi)/2) with W = 1/2 for B0c1, (phi, q_star)
    with q_star = sin(sqrt2 x)/(sqrt2 phi) and W = 1 for B14c0, and
    (q_-, q_+) = sin(sqrt2 (x +- x_r))/(sqrt2 phi) with W = -sqrt2 c/(1 + c^2)
    for B14c1 and B14cm1.  dqa, dqb use phi'/phi = rho'/(2 phi^2) in closed form.
    """
    _, Z, xr = _geometry(case_tag)
    x = np.linspace(-xr, xr, n)[1:-1]
    phi = _phi(case_tag, x)
    dlog = -SQRT2 * Z * np.sin(SQRT2 * x) / (2 * phi * phi)
    ya, yb, dya, dyb, W = _y_pair(case_tag, x, xr)
    return GreenKernel(
        case_tag, x, W, phi, ya / phi, yb / phi, (dya - ya * dlog) / phi, (dyb - yb * dlog) / phi
    )


def wronskian_samples(kern: GreenKernel) -> np.ndarray:
    """phi^2 (q_a q_b' - q_a' q_b) at every sample; constant for true solutions."""
    return kern.phi**2 * (kern.qa * kern.dqb - kern.dqa * kern.qb)


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


def _interior(case_tag, m):
    """(phi, h): phi on the m interior points of the uniform grid on [-x_r, x_r] and its spacing."""
    if m < 1:
        raise ValueError("need at least one interior sample")
    xr = _geometry(case_tag)[2]
    return _phi(case_tag, np.linspace(-xr, xr, m + 2)[1:-1]), 2 * xr / (m + 1)


def _dirichlet_null_mode(m, h):
    """Unit eigenvector of D2 + 2I (Dirichlet, m points, spacing h) nearest the null space.

    The eigenpairs are 2 - (4/h^2) sin^2(j pi / (2(m+1))) and sin(j pi i/(m+1)),
    i, j = 1..m; the mode with the smallest |eigenvalue| is returned.
    """
    idx = np.arange(1, m + 1)
    lam = 2.0 - (4.0 / (h * h)) * np.sin(idx * np.pi / (2 * (m + 1))) ** 2
    j = int(idx[np.argmin(np.abs(lam))])
    return math.sqrt(2.0 / (m + 1)) * np.sin(j * np.pi * idx / (m + 1))


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
    phi, h = _interior(case_tag, m)
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
        null = _dirichlet_null_mode(m, h)
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
    """(q_-, q_+, W) on x for the non-resonant B = 1/4 cases.

    The inverse kernel is K(x, y) = -q_-(min(x, y)) q_+(max(x, y)) / W.
    """
    if case_tag not in ("B14c1", "B14cm1"):
        raise ValueError("explicit inverse kernel available for B14c1 and B14cm1 only")
    phi = _phi(case_tag, x)
    ym, yp, _, _, W = _y_pair(case_tag, x, xr)
    return ym / phi, yp / phi, W


def _kernel_matrix(case_tag, x, xr):
    """K(x_i, x_j) of the inverse for the non-resonant B = 1/4 cases."""
    qm, qp, W = _green_pair(case_tag, x, xr)
    lower = np.tril(np.outer(qp, qm))  # rows i >= cols j: q_-(x_j) q_+(x_i)
    K = lower + lower.T - np.diag(qm * qp)
    return -K / W


def _kernel_inverse(case_tag, x, xr):
    """(diagonal, off-diagonal) of the exact three-point scheme of phi (-d^2 - 2) phi.

    x must be increasing.  With Dirichlet ends y(-x_r) = y(x_r) = 0 for
    y = phi*w, and x_{-1} = -x_r, x_n = x_r, the symmetric tridiagonal T has
    T_{i,i+1} = -sqrt2 phi_i phi_{i+1} / sin(sqrt2 (x_{i+1} - x_i)) and
    T_ii = sqrt2 phi_i^2 sin(sqrt2 (x_{i+1} - x_{i-1})) /
    (sin(sqrt2 (x_i - x_{i-1})) sin(sqrt2 (x_{i+1} - x_i))), which annihilates
    the samples of every solution of y'' + 2y = 0.  For B14c1 and B14cm1, T is
    the inverse of `_kernel_matrix`: the semiseparable Green matrix -G / W has
    the inverse -W G^-1, and the Wronskian W cancels out of every entry.  For
    B14c0 (W = 0) T is singular, with null vector phi.
    """
    phi = _phi(case_tag, x)
    xe = np.concatenate(([-xr], x, [xr]))
    sd = np.sin(SQRT2 * np.diff(xe))
    diag = SQRT2 * phi * phi * np.sin(SQRT2 * (xe[2:] - xe[:-2])) / (sd[:-1] * sd[1:])
    return diag, -SQRT2 * phi[:-1] * phi[1:] / sd[1:-1]


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
    phi, h = _interior(case_tag, m)
    g = _dirichlet_null_mode(m, h) / phi  # solvability functional: <g, f> = 0 required
    f -= (g @ f) / (g @ g) * g
    if case_tag == "B0c1":
        f -= (phi @ f) / (phi @ phi) * phi
        f -= (g @ f) / (g @ g) * g
    return f


def hs_norm_bound(case_tag: str, levels=(256, 512, 1024)) -> list:
    """sup_x int |K(x, y)|^2 dy on successively refined uniform grids.

    K is semiseparable, so row i of h sum_j K_ij^2 is
    h (q_+i^2 sum_{j<=i} q_-j^2 + q_-i^2 sum_{j>i} q_+j^2) / W^2, read from
    prefix sums without forming K.
    """
    out = []
    xr = _geometry(case_tag)[2]
    for n in levels:
        x = np.linspace(-xr, xr, n + 2)[1:-1]
        h = 2 * xr / (n + 1)
        qm, qp, W = _green_pair(case_tag, x, xr)
        a, b = qm * qm, qp * qp
        after = np.append(np.cumsum(b[::-1])[::-1][1:], 0.0)
        row = (b * np.cumsum(a) + a * after) * (h / (W * W))
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

    K^-1 is the tridiagonal T of `_kernel_inverse`, so S^-1 = D^-1 T D^-1 is
    a symmetric tridiagonal matrix whose lowest eigenpairs, the lowest
    eigenpairs of L on the mesh, are computed directly in O(n k); no dense
    matrix is built.  For B14c0, T is singular with null vector phi (the
    kernel of L, so K exists only on the complement of phi), and L is
    positive on that complement: the eigenpair of index 0 is phi and is
    skipped, and indices 1..k are returned.
    """
    _check_case(case_tag)
    B, c = CASE_PARAMS[case_tag]
    if B != 0.25:
        raise ValueError("eig_green covers the B = 1/4 cases")
    if n < 2:
        raise ValueError(f"n = {n}: eig_green needs at least 2 mesh points")
    first = 1 if case_tag == "B14c0" else 0
    _check_k(k, n - first)
    xr = _geometry(case_tag)[2]
    x, w = _graded_mesh(xr, n)
    sw = np.sqrt(w)
    k_diag, k_off = _kernel_inverse(case_tag, x, xr)
    lams, vecs = eigh_tridiagonal(
        k_diag / w, k_off / (sw[:-1] * sw[1:]), select="i", select_range=(first, first + k - 1)
    )
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

    For phi = sqrt2 cos(x/sqrt2), x(t) = -sqrt2 arctan(sinh t) solves
    dx/dt = -phi(x), x(0) = 0, so V(t) = -phi(x(t))^2 / 2 = -sech^2 t.  The
    conjugator g(t) = sqrt(phi(x(t))/phi(0)) is stored alongside.
    """
    if op.case_tag != "B0c1":
        raise ValueError("the Schroedinger conjugation is implemented for case B0c1")
    if n % 2 == 0:
        raise ValueError("n must be odd so the grid contains t = 0")
    ts = np.linspace(-T, T, n)
    x_of_t = -SQRT2 * np.arctan(np.sinh(ts))
    phi_t = op.profile(x_of_t)
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
    disc = cmath.sqrt(1 - 4 * lam)  # principal root: Re(disc) >= 0
    a1 = (-1 + disc) / 2
    a2 = (-1 - disc) / 2
    if a1.imag == 0:
        return a1.real, a2.real
    return a1, a2


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
    """Cell-centered grid and the bands of the symmetric tridiagonal matrix of L.

    The boundary condition is zero extension: (D2 y)_j uses the ghost values
    y_{-1} = -y_0, y_N = -y_{N-1}, so y = 0 at the faces.
    """
    xr = _geometry(case_tag)[2]
    h = 2 * xr / N
    x = -xr + (np.arange(N) + 0.5) * h
    phi = _phi(case_tag, x)
    main = np.full(N, -3.0)
    main[1:-1] = -2.0
    diag = -(phi * (main / (h * h) + 2.0) * phi)
    off = -(phi[:-1] * (1.0 / (h * h)) * phi[1:])
    return x, h, diag, off, xr


def _transport_matrix(N, h):
    """Bands (sub, main, super) of centered d/dx with ghosts w_{-1} := w_0 (free left
    flux) and w_N := -w_{N-1}: -1/(2h) on the main diagonal in the first and last rows."""
    off = np.full(N - 1, 1.0 / (2 * h))
    main = np.zeros(N)
    main[[0, -1]] = -1.0 / (2 * h)
    return -off, main, off


def _constraint_vectors(case_tag, diag, off):
    """Columns: discrete eigenvectors of L standing in for phi (and phi_x for B0c1).

    They are the lowest eigenvectors of the tridiagonal cell matrix, next to
    the eigenvalues -2c of phi (and 0 of phi_x for B0c1).  Using the matrix
    eigenvectors instead of profile samples makes the multiplier-enforced
    constraints energy-neutral: for an eigenvector e, <L v, e> = lambda <v, e>
    = 0 on the constrained subspace, so the enforcement never feeds the
    quadratic form.
    """
    k = 2 if case_tag == "B0c1" else 1
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))[1]


def constrain_initial(case_tag: str, v0: np.ndarray) -> np.ndarray:
    """Project initial data onto the orthogonality constraints of the evolution."""
    v0 = np.asarray(v0, dtype=float)
    _, _, diag, off, _ = _cell_operator(case_tag, v0.size)
    E = _constraint_vectors(case_tag, diag, off)
    return v0 - E @ (E.T @ v0)


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

    No N x N matrix is formed.  With M = D1 L pentadiagonal and P = I - E E^T
    for the k constraint columns E, the step matrix I - a P M (a = dt/2) is
    (I - a M) + a E (M^T E)^T: a banded matrix, factored once, plus a rank-k
    term handled by the Woodbury identity, so each step costs O(N).
    """
    if not math.isfinite(t_end) or t_end < 0:
        raise ValueError(f"t_end = {t_end}; the evolution runs from t = 0 to a finite time")
    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt = {dt}; the time step must be positive and finite")
    if record_every < 1:
        raise ValueError(f"record_every = {record_every}; it must be at least 1")
    x, h, diag, off, xr = _cell_operator(op.case_tag, N)
    v0 = np.asarray(v0, dtype=float)
    if v0.size != N:
        raise ValueError(f"initial data must have {N} cell samples")
    dt = 1e-3 * 2 * xr if dt is None else dt
    E = _constraint_vectors(op.case_tag, diag, off)
    if np.any(np.abs(v0 @ E) > 1e-8 * np.linalg.norm(v0)):
        raise ValueError("initial data violates an orthogonality constraint")
    f = np.zeros(N) if f is None else np.asarray(f, dtype=float)
    steps = max(1, int(round(t_end / dt)))
    dt = t_end / steps
    a = 0.5 * dt
    src = dt * (f - E @ (E.T @ f))

    # I - a P M = K + E W^T for the banded K = I - a M and W = a M^T E; Woodbury gives
    # (K + E W^T)^-1 r = y - G W^T y with y = K^-1 r, and I + a P M = I + a M - E W^T
    L = sparse.diags((off, diag, off), (-1, 0, 1), format="csr")
    M = sparse.diags(_transport_matrix(N, h), (-1, 0, 1)) @ L
    W = a * (M.T @ E)
    lu = splu((sparse.identity(N) - a * M).tocsc())
    Z = lu.solve(E)
    G = Z @ np.linalg.inv(np.eye(E.shape[1]) + W.T @ Z)

    recorded = np.append(np.arange(0, steps, record_every), steps)
    states = np.empty((recorded.size, N))
    v = states[0] = v0 - E @ (E.T @ v0)
    for i in range(1, steps + 1):
        y = lu.solve(v + a * (M @ v) - E @ (W.T @ v) + src)
        v = y - G @ (W.T @ y)
        if i % record_every == 0:
            states[i // record_every] = v
    states[-1] = v

    Lv = L @ states.T  # column j: L v at the j-th recorded time
    ortho = h * (states @ E)
    return LinearizedTrajectory(
        times=recorded * dt,
        states=states,
        energy=h * np.einsum("ij,ji->i", states, Lv),
        flux=Lv[0].copy(),
        ortho_phi=ortho[:, 0],
        ortho_phix=ortho[:, 1] if E.shape[1] > 1 else np.zeros(recorded.size),
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
    energy_h = [math.sqrt(max(float(E), 0.0)) for E in traj.energy]
    _write_csv(
        path, "t,energy_H,flux_upsilon,ortho_phi,ortho_phix",
        traj.times, energy_h, traj.flux, traj.ortho_phi, traj.ortho_phix,
    )
