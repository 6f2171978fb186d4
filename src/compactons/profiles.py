"""Traveling-wave profiles of the degenerate KdV/NLS family.

The profile ODE integrates twice to (phi')^2 = F(phi) with

    F(phi) = 2*B/phi**2 + 2*A/phi + c - (2/p)*phi**(p-2),

and the sign structure of F classifies the orbits: periodic orbits, fronts,
and compactly supported bumps (compactons).  For p = 4 and p = 2 the
compactons have closed forms; for other exponents the profile is recovered
by quadrature of x(phi) = int d(phi)/sqrt(F), with square-root substitutions
that remove the endpoint singularities analytically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

__all__ = [
    "ModelParams",
    "SolutionClass",
    "CompactonProfile",
    "PeriodicProfile",
    "MultiCompacton",
    "NlsProfile",
    "PhaseAsymptote",
    "ProfileError",
    "first_integral",
    "flux_squared",
    "stationary_point",
    "classify",
    "support_half_width",
    "build_compacton",
    "build_compacton_general",
    "build_periodic",
    "edge_expansion",
    "assemble_multi",
    "weak_residual",
    "nls_phase",
    "build_nls_compacton",
    "scale_params",
    "compacton_integrals",
    "write_profile_csv",
    "write_nls_profile_csv",
    "write_manifest",
]

_ROOT_TOL = 1e-12
_SCAN_POINTS = 256


class ProfileError(ValueError):
    """Raised for parameter sets outside the requested solution branch."""


@dataclass(frozen=True)
class ModelParams:
    """Exponent and integration constants selecting a traveling-wave branch."""

    p: float
    A: float = 0.0
    B: float = 0.0
    c: float = 0.0

    def __post_init__(self):
        if self.p < 2:
            raise ProfileError(f"exponent p must be >= 2, got {self.p}")


@dataclass(frozen=True)
class SolutionClass:
    tag: str  # "Periodic" | "Front" | "Compacton"
    edge_case: Optional[str] = None  # set iff tag == "Compacton"


@dataclass(frozen=True)
class CompactonProfile:
    """Sampled compacton, even and supported on [-half_width, half_width].

    ``dphi`` holds the derivative at every sample; at support endpoints where
    the derivative diverges (B > 0) the entry is NaN.  ``phi_dphi`` is the
    bounded flux phi*phi', which tends to -sign(x)*sqrt(2B) at the endpoints.
    """

    params: ModelParams
    half_width: float
    xs: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    phi_dphi: np.ndarray
    closed_form: bool
    _eval: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False, default=None)

    @property
    def n(self) -> int:
        return self.xs.size

    def __call__(self, x):
        """Profile value at arbitrary x (0 outside the support)."""
        return self._eval(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class PeriodicProfile:
    params: ModelParams
    period: float
    xs: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    phi_dphi: np.ndarray
    closed_form: bool


@dataclass(frozen=True)
class MultiCompacton:
    """Superposition spec: components (sign, shift, params) with a shared speed."""

    components: Sequence[tuple]  # (epsilon, shift, ModelParams)

    def __post_init__(self):
        cs = {comp[2].c for comp in self.components}
        if len(cs) > 1:
            raise ProfileError(f"multi-compacton components must share one speed, got {sorted(cs)}")
        for eps, _, _ in self.components:
            if eps not in (-1, 1):
                raise ProfileError(f"component sign must be +-1, got {eps}")


@dataclass(frozen=True)
class PhaseAsymptote:
    """Leading behavior of the NLS phase at the support edge x -> x_r.

    kind "inverse": theta ~ coefficient / (x_r - x)   (B = 0)
    kind "log":     theta ~ coefficient * log(x_r - x) (B > 0)
    """

    kind: str
    coefficient: float


@dataclass(frozen=True)
class NlsProfile:
    base: CompactonProfile
    v: float
    theta: np.ndarray  # phase at xs; +-inf at the support endpoints
    re: np.ndarray
    im: np.ndarray
    asymptote: PhaseAsymptote


# ---------------------------------------------------------------------------
# first integral and roots


def first_integral(phi_val: float, params: ModelParams):
    """F(phi) = 2B/phi^2 + 2A/phi + c - (2/p)phi^(p-2)."""
    phi_val = np.asarray(phi_val, dtype=float)
    if np.any(phi_val < 0):
        raise ProfileError("first_integral requires phi >= 0")
    if np.any(phi_val == 0) and (params.B != 0 or params.A != 0):
        raise ZeroDivisionError("F(0) undefined unless A = B = 0")
    p, A, B, c = params.p, params.A, params.B, params.c
    with np.errstate(divide="ignore"):
        out = np.where(
            phi_val > 0,
            2 * B / np.where(phi_val > 0, phi_val, 1.0) ** 2
            + 2 * A / np.where(phi_val > 0, phi_val, 1.0)
            + c
            - (2 / p) * phi_val ** (p - 2),
            c - (2 / p) * (phi_val ** (p - 2) if p != 2 else 1.0),
        )
    if out.ndim == 0:
        return float(out)
    return out


def flux_squared(phi_val, params: ModelParams):
    """(phi*phi')^2 expressed through phi: G = 2B + 2A phi + c phi^2 - (2/p)phi^p.

    Bounded up to the support edges, where it tends to 2B.
    """
    phi_val = np.asarray(phi_val, dtype=float)
    p, A, B, c = params.p, params.A, params.B, params.c
    return 2 * B + 2 * A * phi_val + c * phi_val**2 - (2 / p) * phi_val**p


def stationary_point(A: float, c: float, p: float) -> Optional[float]:
    """Unique positive root of A + c*z = z**(p-2), if any."""
    if p <= 2:
        raise ProfileError("stationary_point requires p > 2")

    def h(z):
        return A + c * z - z ** (p - 2)

    z_hi = max(1.0, (1.0 + abs(A) + abs(c)) ** (1.0 / (p - 2)) * 4.0)
    # expand until the power term dominates
    while h(z_hi) > 0:
        z_hi *= 2
        if z_hi > 1e12:
            return None
    zs = np.linspace(0.0, z_hi, _SCAN_POINTS)
    hs = h(zs[1:])
    sign_changes = np.nonzero(np.diff(np.sign(hs)))[0]
    if h(zs[1]) <= 0 and not sign_changes.size:
        return None
    if sign_changes.size:
        a, b = zs[1:][sign_changes[0]], zs[1:][sign_changes[0] + 1]
    else:
        a, b = zs[1], z_hi
    if h(a) == 0:
        return float(a)
    root = brentq(h, a, b, xtol=_ROOT_TOL, rtol=4 * np.finfo(float).eps)
    # polish with Newton
    for _ in range(3):
        dh = c - (p - 2) * root ** (p - 3)
        if dh != 0:
            step = h(root) / dh
            if abs(step) < 0.5 * abs(root):
                root -= step
    return float(root)


def _largest_positive_root_F(params: ModelParams) -> float:
    """Largest phi > 0 with F(phi) = 0 (the profile maximum)."""
    p, A, B, c = params.p, params.A, params.B, params.c

    def F(s):
        return first_integral(s, params)

    hi = max(1.0, (p * (abs(c) + 2 * abs(A) + 2 * abs(B) + 1)) ** (1.0 / max(p - 2, 1e-9))) * 2
    while F(hi) > 0:
        hi *= 2
    lo_grid = np.linspace(hi * 1e-9, hi, 4 * _SCAN_POINTS)
    vals = F(lo_grid)
    pos = np.nonzero(vals > 0)[0]
    if not pos.size:
        raise ProfileError("F has no positive region; no positive profile exists")
    i = pos[-1]
    if i + 1 >= lo_grid.size:
        raise ProfileError("failed to bracket the profile maximum")
    return float(brentq(F, lo_grid[i], lo_grid[i + 1], xtol=_ROOT_TOL))


# ---------------------------------------------------------------------------
# classification


def classify(params: ModelParams) -> SolutionClass:
    """Classify the positive orbit of (phi')^2 = F(phi): Periodic, Front or Compacton."""
    p, A, B, c = params.p, params.A, params.B, params.c
    if p <= 2:
        raise ProfileError("classification requires p > 2")

    unbounded_at_zero = B > 0 or (B == 0 and A > 0) or (A == 0 and B == 0 and c > 0)

    if not unbounded_at_zero:
        # B < 0, or B = 0 with A < 0, or A = B = 0 with c <= 0: level set bounded
        if _has_positive_region(params):
            return SolutionClass("Periodic")
        raise ProfileError("F < 0 for all phi > 0: no positive solution")

    z = stationary_point(A, c, p)
    if z is not None:
        Fz = first_integral(z, params)
        if abs(Fz) < 1e-10 * (1 + abs(c)) and _positive_below(params, z):
            return SolutionClass("Front")

    if not _has_positive_region(params):
        raise ProfileError("F < 0 for all phi > 0: no positive solution")

    if B > 0 and A != 0:
        edge = "B_pos_A_nonzero"
    elif B == 0 and A > 0:
        edge = "B_zero_A_pos"
    elif A == 0 and B > 0:
        edge = "A_zero_B_pos"
    else:
        edge = "A_B_zero_c_pos"
    return SolutionClass("Compacton", edge)


def _has_positive_region(params: ModelParams) -> bool:
    try:
        _largest_positive_root_F(params)
        return True
    except ProfileError:
        return False


def _positive_below(params: ModelParams, z: float) -> bool:
    s = np.linspace(z * 1e-6, z * (1 - 1e-9), _SCAN_POINTS)
    return bool(np.all(first_integral(s, params) > -1e-10 * (1 + abs(params.c))))


# ---------------------------------------------------------------------------
# quadrature machinery (substituted variable u with phi = phi_max - u^2)


_leggauss = cache(leggauss)


def _gauss_panels(f, bounds: np.ndarray, order: int = 8) -> np.ndarray:
    """Integrals of f over each panel [bounds[j], bounds[j+1]] by Gauss-Legendre.

    f maps the (m, order) array of nodes to values of shape (..., m, order);
    the result has shape (..., m).  The nodes never touch the panel
    boundaries, so f may be singular-in-derivative there.
    """
    nodes, weights = _leggauss(order)
    half = 0.5 * np.diff(bounds)
    return (f((bounds[:-1] + half)[:, None] + half[:, None] * nodes) @ weights) * half


def _gauss_cumulative(g, u_max: float, m: int, order: int = 8):
    """Cumulative integral of g on [0, u_max] at m+1 panel boundaries.

    Returns (u_bounds, cumulative).
    """
    ub = np.linspace(0.0, u_max, m + 1)
    return ub, np.concatenate(([0.0], np.cumsum(_gauss_panels(g, ub, order))))


def _compacton_g(params: ModelParams, phi_max: float):
    def g(u):
        phi = phi_max - u * u
        F = first_integral(np.maximum(phi, 1e-300), params)
        return 2 * u / np.sqrt(np.maximum(F, 1e-300))

    return g


def support_half_width(params: ModelParams) -> float:
    """Half-width x_r of the compacton support (A = 0 branch)."""
    p, A, B, c = params.p, params.A, params.B, params.c
    if A != 0:
        raise ProfileError("support_half_width is defined on the A = 0 compacton branch")
    if p == 2:
        if not (B > 0 and c < 1):
            raise ProfileError("p = 2 compactons require B > 0 and c < 1")
        return math.sqrt(2 * B) / (1 - c)
    if classify(params).tag != "Compacton":
        raise ProfileError("parameters do not lie in the compacton region")
    if p == 4:
        if B == 0:
            return math.pi / math.sqrt(2)
        return math.acos(-c / math.sqrt(4 * B + c * c)) / math.sqrt(2)
    return compacton_integrals(params, panels=512)[0]


def compacton_integrals(params: ModelParams, panels: int = 64, order: int = 16):
    """(x_r, M, S, Pp) for a compacton: half-width, mass, int (phi phi')^2, int phi^p.

    Evaluated as integrals in phi through the substituted variable, so no
    profile sampling or inversion is needed.  Used by the family minimizer.
    """
    p = params.p
    if p == 2:
        B, c = params.B, params.c
        xr = math.sqrt(2 * B) / (1 - c)
        M = (4.0 / 3.0) * (2 * B) ** 1.5 / (1 - c) ** 2
        # H = -(1+c)/4 M and H = S/2 - Pp/2 with Pp = int phi^2 = M
        S = 2 * (-(1 + c) / 4 * M) + M
        return xr, M, S, M
    phi_max = _largest_positive_root_F(params)

    def integrands(u):
        phi = phi_max - u * u
        g = 2 * u / np.sqrt(np.maximum(first_integral(phi, params), 1e-300))
        return np.stack((g, phi**2 * g, flux_squared(phi, params) * g, phi**p * g))

    bounds = np.linspace(0.0, math.sqrt(phi_max), panels + 1)
    xr, M, S, Pp = _gauss_panels(integrands, bounds, order).sum(axis=1)
    return float(xr), 2 * float(M), 2 * float(S), 2 * float(Pp)


# ---------------------------------------------------------------------------
# profile construction


def _closed_form_p4(params: ModelParams):
    B, c = params.B, params.c
    Z = math.sqrt(4 * B + c * c)
    xr = support_half_width(params)

    def rho(x):
        return c + Z * np.cos(math.sqrt(2) * x)

    def phi_of_x(x):
        inside = np.abs(x) <= xr
        r = np.where(inside, rho(np.where(inside, x, 0.0)), 0.0)
        return np.sqrt(np.maximum(r, 0.0))

    return xr, rho, phi_of_x


def _sample_even(xr: float, n: int, phi_half: Callable[[np.ndarray], np.ndarray]):
    """Uniform symmetric grid; compute the right half and mirror for exact evenness."""
    xs = np.linspace(-xr, xr, n)
    half = xs[xs >= 0]
    ph = phi_half(half)
    m = n // 2
    if n % 2:
        phi = np.concatenate((ph[1:][::-1], ph))
    else:
        phi = np.concatenate((ph[::-1], ph))
    assert phi.size == n
    return xs, phi


def _finish_compacton(params, xr, xs, phi, closed_form, evaluator):
    G = flux_squared(phi, params)
    phi_dphi = -np.sign(xs) * np.sqrt(np.maximum(G, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        dphi = np.where(phi > 0, phi_dphi / np.where(phi > 0, phi, 1.0), np.nan)
    # at the endpoints the derivative is finite only when B = 0 (A = 0, c > 0)
    if params.B == 0 and params.A == 0:
        dphi[0] = math.sqrt(max(params.c, 0.0))
        dphi[-1] = -math.sqrt(max(params.c, 0.0))
    return CompactonProfile(
        params=params,
        half_width=xr,
        xs=xs,
        phi=phi,
        dphi=dphi,
        phi_dphi=phi_dphi,
        closed_form=closed_form,
        _eval=evaluator,
    )


def build_compacton(params: ModelParams, n: int = 1024) -> CompactonProfile:
    """Construct the compacton Phi_{B,c} on n uniform samples spanning its support."""
    if n < 16:
        raise ProfileError("need at least 16 samples")
    p, A, B, c = params.p, params.A, params.B, params.c
    if A != 0:
        raise ProfileError("build_compacton covers the A = 0 branch; see build_compacton_general")
    if p == 2:
        if not (B > 0 and c < 1):
            raise ProfileError("p = 2 compactons require B > 0 and c < 1")
        xr = math.sqrt(2 * B) / (1 - c)
        Y = 2 * B / (1 - c)

        def phi_of_x(x):
            val = (c - 1) * x * x + Y
            return np.sqrt(np.maximum(val, 0.0))

        xs, phi = _sample_even(xr, n, phi_of_x)
        return _finish_compacton(params, xr, xs, phi, True, phi_of_x)

    cls = classify(params)
    if cls.tag != "Compacton":
        raise ProfileError(f"parameters classify as {cls.tag}, not Compacton")

    if p == 4:
        xr, _, phi_of_x = _closed_form_p4(params)
        xs, phi = _sample_even(xr, n, phi_of_x)
        return _finish_compacton(params, xr, xs, phi, True, phi_of_x)

    return _build_by_quadrature(params, n)


def build_compacton_general(params: ModelParams, n: int = 1024) -> CompactonProfile:
    """Quadrature construction admitting A != 0 (requires B > 0).

    Only used as a sampled diagnostic input (weak-defect residual); these
    profiles solve the ODE classically inside the support but are not
    distributional solutions on the line when A != 0.
    """
    cls = classify(params)
    if cls.tag != "Compacton":
        raise ProfileError(f"parameters classify as {cls.tag}, not Compacton")
    if params.A != 0 and params.B <= 0:
        raise ProfileError("general-A construction requires B > 0")
    return _build_by_quadrature(params, n)


def _build_by_quadrature(params: ModelParams, n: int, m: int = 8192) -> CompactonProfile:
    phi_max = _largest_positive_root_F(params)
    u_max = math.sqrt(phi_max)
    g = _compacton_g(params, phi_max)
    ub, cum = _gauss_cumulative(g, u_max, m)
    xr = float(cum[-1])
    if not np.all(np.diff(cum) > 0):
        raise ProfileError(
            f"quadrature inversion failed at speed c = {params.c!r}: x(phi) is not strictly "
            f"increasing over the support (half width {xr:.3g})"
        )
    # phi(x) on the right half through monotone interpolation of the samples
    # (x(u_i), phi(u_i)); x-samples are naturally graded toward the edge.
    phi_at_ub = phi_max - ub * ub
    interp = PchipInterpolator(cum, phi_at_ub, extrapolate=False)

    def phi_of_x(x):
        ax = np.abs(np.asarray(x, dtype=float))
        out = interp(np.minimum(ax, xr))
        out = np.where(ax <= xr, out, 0.0)
        return np.maximum(np.nan_to_num(out, nan=0.0), 0.0)

    xs, phi = _sample_even(xr, n, phi_of_x)
    phi[0] = phi[-1] = 0.0
    prof = _finish_compacton(params, xr, xs, phi, False, phi_of_x)
    if np.any(np.diff(prof.phi[xs >= 0]) > 1e-12):
        raise ProfileError("quadrature inversion produced a non-monotone right half")
    return prof


def build_periodic(params: ModelParams, n: int = 1024) -> PeriodicProfile:
    """One period of a positive periodic orbit, centered at its maximum."""
    if n < 16:
        raise ProfileError("need at least 16 samples")
    cls = classify(params)
    if cls.tag != "Periodic":
        raise ProfileError(f"parameters classify as {cls.tag}, not Periodic")
    p, A, B, c = params.p, params.A, params.B, params.c

    if p == 4 and A == 0:
        Z = math.sqrt(4 * B + c * c)
        period = math.sqrt(2) * math.pi

        def phi_of_x(x):
            return np.sqrt(c + Z * np.cos(math.sqrt(2) * np.asarray(x, dtype=float)))

        xs, phi = _sample_even(period / 2, n, phi_of_x)
        G = flux_squared(phi, params)
        phi_dphi = -np.sign(xs) * np.sqrt(np.maximum(G, 0.0))
        dphi = phi_dphi / phi
        return PeriodicProfile(params, period, xs, phi, dphi, phi_dphi, True)

    # general p: quadrature between the two positive simple roots of F
    phi2 = _largest_positive_root_F(params)

    def F(s):
        return first_integral(s, params)

    grid = np.linspace(phi2 * 1e-6, phi2 * (1 - 1e-9), 4 * _SCAN_POINTS)
    vals = F(grid)
    pos = np.nonzero(vals > 0)[0]
    if not pos.size:
        raise ProfileError("no open positive region between roots")
    i = pos[0]
    if i == 0:
        raise ProfileError("lower turning point not bracketed")
    phi1 = float(brentq(F, grid[i - 1], grid[i], xtol=_ROOT_TOL))
    phi_mid = 0.5 * (phi1 + phi2)

    def g_top(u):
        return 2 * u / np.sqrt(np.maximum(F(phi2 - u * u), 1e-300))

    def g_bot(w):
        return 2 * w / np.sqrt(np.maximum(F(phi1 + w * w), 1e-300))

    ub_t, cum_t = _gauss_cumulative(g_top, math.sqrt(phi2 - phi_mid), 2048)
    ub_b, cum_b = _gauss_cumulative(g_bot, math.sqrt(phi_mid - phi1), 2048)
    x_top = cum_t
    x_bot = cum_t[-1] + (cum_b[-1] - cum_b[::-1])
    half_period = float(x_bot[-1])
    xs_all = np.concatenate((x_top, x_bot[1:]))
    phi_all = np.concatenate((phi2 - ub_t * ub_t, (phi1 + ub_b * ub_b)[::-1][1:]))
    interp = PchipInterpolator(xs_all, phi_all)

    def phi_of_x(x):
        ax = np.abs(np.asarray(x, dtype=float))
        folded = np.minimum(ax, half_period)
        return np.asarray(interp(folded))

    xs, phi = _sample_even(half_period, n, phi_of_x)
    period = 2 * half_period
    G = flux_squared(phi, params)
    phi_dphi = -np.sign(xs) * np.sqrt(np.maximum(G, 0.0))
    dphi = phi_dphi / phi
    return PeriodicProfile(params, period, xs, phi, dphi, phi_dphi, False)


# ---------------------------------------------------------------------------
# edge expansions, multi-compactons, weak defect


def edge_expansion(params: ModelParams, order: int = 2):
    """Leading terms (coefficient, exponent) of phi(-X + x) as x -> 0+."""
    cls = classify(params)
    if cls.tag != "Compacton":
        raise ProfileError("edge expansions apply to compactons only")
    A, B, c = params.A, params.B, params.c
    if cls.edge_case == "B_pos_A_nonzero":
        terms = [(math.sqrt(2 * math.sqrt(2 * B)), 0.5), (2 * A / (3 * math.sqrt(2 * B)), 1.0)]
    elif cls.edge_case == "B_zero_A_pos":
        terms = [
            (3 ** (2 / 3) * A ** (1 / 3) / 2 ** (1 / 3), 2 / 3),
            (-(3 ** (4 / 3)) * c / (10 * math.sqrt(2)), 4 / 3),
        ]
    elif cls.edge_case == "A_zero_B_pos":
        terms = [
            (math.sqrt(2 * math.sqrt(2 * B)), 0.5),
            (c / (2**1.5 * (2 * B) ** 0.25), 1.5),
        ]
    else:  # A_B_zero_c_pos
        terms = [(math.sqrt(c), 1.0)]
    return terms[:order]


def assemble_multi(spec: MultiCompacton, grid: np.ndarray) -> np.ndarray:
    """Sum of signed, shifted compactons on a grid; supports must be disjoint."""
    grid = np.asarray(grid, dtype=float)
    built = []
    for eps, a, params in spec.components:
        prof = build_compacton(params, n=64)
        built.append((eps, a, prof))
    intervals = sorted(
        ((a - prof.half_width, a + prof.half_width, i) for i, (eps, a, prof) in enumerate(built))
    )
    for (l1, r1, i1), (l2, r2, i2) in zip(intervals, intervals[1:]):
        if l2 < r1 - 1e-12:
            raise ProfileError(f"supports of components {i1} and {i2} overlap on ({l2:g}, {r1:g})")
    out = np.zeros_like(grid)
    for eps, a, prof in built:
        out += eps * prof(grid - a)
    return out


def weak_residual(profile: CompactonProfile, test_fn, d1=None, d2=None, panels: int = 512):
    """Weak residual of the traveling-wave equation against a smooth test function.

    Tests -c*phi' + (phi(phi phi')' + phi^(p-1))' = 0 weakly, i.e. returns

        int (c*phi - phi^(p-1)) psi' + phi (phi')^2 psi' + phi^2 phi' psi'' dx

    over the support.  Zero for the A = 0 compactons; approximately
    A*(psi(-x_r) - psi(x_r)) for profiles built with A != 0.
    """
    params = profile.params
    if d1 is None:
        h = 1e-5

        def d1(x):
            return (test_fn(x + h) - test_fn(x - h)) / (2 * h)

    if d2 is None:
        h2 = 1e-4

        def d2(x):
            return (test_fn(x + h2) - 2 * test_fn(x) + test_fn(x - h2)) / (h2 * h2)

    p, A, B, c = params.p, params.A, params.B, params.c
    phi_max = _largest_positive_root_F(params)
    u_max = math.sqrt(phi_max)
    g = _compacton_g(params, phi_max)
    ub, cum = _gauss_cumulative(g, u_max, 2048)
    x_of_u = PchipInterpolator(ub, cum)

    def integrand(u):
        phi = phi_max - u * u
        F = first_integral(phi, params)
        gvals = 2 * u / np.sqrt(np.maximum(F, 1e-300))
        G = flux_squared(phi, params)
        x = x_of_u(u)
        total = 0.0
        for sgn in (+1.0, -1.0):
            xx = sgn * x
            psi1 = d1(xx)
            psi2 = d2(xx)
            # phi' = -sign(x) sqrt(F); phi (phi')^2 = G/phi; phi^2 phi' = -sign(x) phi sqrt(G)
            term = (c * phi - phi ** (p - 1)) * psi1
            term = term + (G / np.maximum(phi, 1e-300)) * psi1
            term = term - sgn * phi * np.sqrt(np.maximum(G, 0.0)) * psi2
            total = total + term * gvals
        return total

    return float(np.sum(_gauss_panels(integrand, np.linspace(0.0, u_max, panels + 1), 16)))


# ---------------------------------------------------------------------------
# NLS compactons


def nls_phase(base: CompactonProfile):
    """Phase theta with theta(0) = 0 and theta' = -1/(2 Phi^2) on the open support.

    Returns (theta, PhaseAsymptote); theta is +inf / -inf at the left/right
    support endpoints where the quadrature diverges.
    """
    params = base.params
    if np.any(base.phi[1:-1] <= 0):
        raise ProfileError("phase quadrature requires a positive interior profile")
    xs = base.xs
    # Gauss panels between consecutive samples, summed outward from x = 0
    inc = _gauss_panels(lambda x: -1.0 / (2.0 * np.maximum(base(x), 1e-300) ** 2), xs)
    mid = np.searchsorted(xs, 0.0)
    theta = np.empty(xs.size)
    theta[mid] = 0.0
    theta[mid + 1 :] = np.cumsum(inc[mid:])
    theta[:mid] = -np.cumsum(inc[:mid][::-1])[::-1]
    theta[0] = np.inf
    theta[-1] = -np.inf

    B, c = params.B, params.c
    if B > 0:
        asym = PhaseAsymptote("log", 1.0 / (4.0 * math.sqrt(2 * B)))
    else:
        asym = PhaseAsymptote("inverse", -1.0 / (2.0 * c))
    return theta, asym


def build_nls_compacton(params: ModelParams, v: float, n: int = 1024) -> NlsProfile:
    """Q = Phi * exp(i v theta), extended by zero outside the support."""
    base = build_compacton(params, n)
    theta, asym = nls_phase(base)
    finite = np.isfinite(theta)
    re = np.zeros(n)
    im = np.zeros(n)
    re[finite] = base.phi[finite] * np.cos(v * theta[finite])
    im[finite] = base.phi[finite] * np.sin(v * theta[finite])
    return NlsProfile(base=base, v=v, theta=theta, re=re, im=im, asymptote=asym)


def scale_params(params: ModelParams, lam: float) -> ModelParams:
    """Scaling map of the A = 0 family: (B, c) -> (B lam^p, c lam^(p-2)).

    The profiles satisfy lam * Phi_{B,c}(lam^(p/2-2) x) = Phi_{B lam^p, c lam^(p-2)}(x).
    """
    if lam <= 0:
        raise ProfileError("scaling factor must be positive")
    p = params.p
    return ModelParams(p=p, A=params.A, B=params.B * lam**p, c=params.c * lam ** (p - 2))


# ---------------------------------------------------------------------------
# serialization


def _fmt(x: float) -> str:
    return repr(float(x))


def write_profile_csv(profile, path):
    """CSV `x,phi,dphi` plus a JSON manifest next to it."""
    with open(path, "w") as fh:
        fh.write("x,phi,dphi\n")
        for x, ph, dp in zip(profile.xs, profile.phi, profile.dphi):
            fh.write(f"{_fmt(x)},{_fmt(ph)},{_fmt(dp)}\n")
    write_manifest(profile, str(path) + ".json")


def write_nls_profile_csv(nls: NlsProfile, path):
    """CSV `x,phi,theta,re,im` plus a JSON manifest next to it."""
    base = nls.base
    with open(path, "w") as fh:
        fh.write("x,phi,theta,re,im\n")
        for x, ph, th, re, im in zip(base.xs, base.phi, nls.theta, nls.re, nls.im):
            fh.write(f"{_fmt(x)},{_fmt(ph)},{_fmt(th)},{_fmt(re)},{_fmt(im)}\n")
    write_manifest(base, str(path) + ".json", v=nls.v)


def write_manifest(profile, path, v=None):
    params = profile.params
    half = getattr(profile, "half_width", None)
    if half is None:
        half = profile.period / 2
    manifest = {
        "p": params.p,
        "A": params.A,
        "B": params.B,
        "c": params.c,
        "v": v,
        "half_width": half,
        "n": int(profile.xs.size),
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
