"""Conserved functionals, variational identities, and the fixed-mass minimizer.

Mass M = int |u|^2, Hamiltonian H = 1/2 int |u u_x|^2 - (1/p) int |u|^p,
momenta P = int u and K = Im int conj(u) u_x.  On compacton profiles the
combination u*u_x is evaluated through the first integral, which keeps it
bounded up to the support edges; on NLS profiles the phase contribution is
folded in through the polar identities, since the raw phase derivative is
unbounded at the edges while rho*theta_x is not.

The fixed-mass minimizer searches the compacton family along its scaling
symmetry: one scale-invariant ratio r = B / c^(p/(p-2)) labels each member up
to rescaling, so the search is one-dimensional and every trial member is
integrated once, at unit speed, then scaled to the target mass exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.integrate import simpson
from scipy.optimize import minimize_scalar

from .profiles import (
    CompactonProfile,
    ModelParams,
    NlsProfile,
    PeriodicProfile,
    ProfileError,
    build_compacton,
    compacton_integrals,
)

__all__ = [
    "FunctionalReport",
    "MinimizerResult",
    "EscapingSequence",
    "mass",
    "hamiltonian",
    "momentum_P",
    "momentum_K",
    "pohozaev_residual",
    "identity_residuals",
    "report",
    "report_json",
    "minimize_in_family",
    "weinstein",
    "polar_functionals",
    "escaping_sequence",
]


@dataclass(frozen=True)
class FunctionalReport:
    mass: float
    hamiltonian: float
    momentum_P: float
    momentum_K: float
    pohozaev_residual: float
    energy_identity_residual: float


@dataclass(frozen=True)
class MinimizerResult:
    B_star: float
    c_star: float
    H_star: float
    mass: float
    iterations: int


@dataclass(frozen=True)
class EscapingSequence:
    """Polar representation of minimizer + far bump, with its functional report."""

    xs: np.ndarray
    rho: np.ndarray
    momentum_density: np.ndarray  # rho * theta_x (bounded)
    combined: FunctionalReport
    base_hamiltonian: float


# ---------------------------------------------------------------------------
# sample handling


def _samples(field):
    """Normalize input to (xs, values, profile-or-None)."""
    if isinstance(field, (CompactonProfile, PeriodicProfile)):
        return field.xs, field.phi, field
    if isinstance(field, NlsProfile):
        return field.base.xs, field.re + 1j * field.im, field
    xs, vals = field
    xs = np.asarray(xs, dtype=float)
    vals = np.asarray(vals)
    if xs.size < 3:
        raise ValueError("need at least 3 samples")
    return xs, vals, None


def _quad(vals, xs, periodic=False):
    if periodic:
        dx = xs[1] - xs[0]
        return float(np.real(np.sum(vals)) * dx)
    return float(simpson(np.real(vals), x=xs))


def _centered_derivative(vals, xs, periodic=False):
    dx = xs[1] - xs[0]
    if periodic:
        return (np.roll(vals, -1) - np.roll(vals, 1)) / (2 * dx)
    return np.gradient(vals, dx, edge_order=2)


# ---------------------------------------------------------------------------
# the four functionals


def mass(field, periodic=False) -> float:
    """M = int |u|^2 dx by composite Simpson (trapezoid for periodic data)."""
    xs, vals, _ = _samples(field)
    return _quad(np.abs(vals) ** 2, xs, periodic)


def hamiltonian(field, p: float = None, periodic=False) -> float:
    """H = 1/2 int |u u_x|^2 dx - (1/p) int |u|^p dx."""
    xs, vals, prof = _samples(field)
    if isinstance(prof, NlsProfile):
        # |Q Q_x|^2 = (Phi Phi')^2 + v^2/4 on the support, identically
        base = prof.base
        h0 = hamiltonian(base, p)
        return h0 + (prof.v**2 / 4) * base.half_width
    if prof is not None:
        p = prof.params.p if p is None else p
        uux = prof.phi_dphi
    else:
        if p is None:
            raise ValueError("exponent p required for raw sample input")
        uux = vals * _centered_derivative(vals, xs, periodic)
    kinetic = 0.5 * _quad(np.abs(uux) ** 2, xs, periodic)
    potential = _quad(np.abs(vals) ** p, xs, periodic) / p
    return kinetic - potential


def momentum_P(field, periodic=False) -> float:
    """P = int u dx (real part for complex samples)."""
    xs, vals, _ = _samples(field)
    return _quad(np.real(vals), xs, periodic)


def momentum_K(field, periodic=False) -> float:
    """K = Im int conj(u) u_x dx.

    For an NLS compacton the integrand in polar form is rho*(v*theta') =
    -v/2 on the support, so K = -v * half_width exactly; sampled complex
    fields use centered differences.
    """
    if isinstance(field, NlsProfile):
        return -field.v * field.base.half_width
    xs, vals, prof = _samples(field)
    if prof is not None or not np.iscomplexobj(vals):
        return 0.0
    dv = _centered_derivative(vals, xs, periodic)
    return _quad(np.imag(np.conj(vals) * dv), xs, periodic)


# ---------------------------------------------------------------------------
# identities


def identity_residuals(profile: CompactonProfile):
    """Residuals of the two integral identities underlying the H decomposition.

    energy:   c*M + 2*S - int Phi^p  (multiply the profile equation by Phi)
    pohozaev: -c*M + S + (2/p) int Phi^p - 4*B*x_r  (multiply by x*Phi')
    with S = int (Phi Phi')^2.
    """
    params = profile.params
    xr, M, S, Pp = compacton_integrals(params, panels=128)
    energy = params.c * M + 2 * S - Pp
    pohozaev = -params.c * M + S + (2 / params.p) * Pp - 4 * params.B * xr
    return energy, pohozaev


def _combined_identity(p, energy, pohozaev):
    """(2 energy + (p-4)/2 pohozaev)/(p+4), which expands to the combined identity."""
    return (2 * energy + 0.5 * (p - 4) * pohozaev) / (p + 4)


def pohozaev_residual(profile: CompactonProfile) -> float:
    """H - [c(p-8)/(2p+8) M + (p-4)/(p+4) * 2B x_r], the combined identity."""
    return _combined_identity(profile.params.p, *identity_residuals(profile))


def report(field) -> FunctionalReport:
    base = field.base if isinstance(field, NlsProfile) else field
    if isinstance(base, CompactonProfile):
        energy, pohozaev = identity_residuals(base)
        poho = _combined_identity(base.params.p, energy, pohozaev)
    else:
        energy = poho = 0.0
    return FunctionalReport(
        mass=mass(field),
        hamiltonian=hamiltonian(field),
        momentum_P=momentum_P(field),
        momentum_K=momentum_K(field),
        pohozaev_residual=poho,
        energy_identity_residual=energy,
    )


def report_json(rep: FunctionalReport) -> str:
    return json.dumps(asdict(rep), indent=2)


# ---------------------------------------------------------------------------
# fixed-mass minimization over the (B, c) family

# scale-invariant ratios r = B / c^(p/(p-2)) searched before refinement
_RATIO_GRID = np.concatenate(([0.0], np.geomspace(1e-6, 1e3, 16)))


def minimize_in_family(p: float, m: float) -> MinimizerResult:
    """Minimize H over the compacton family B >= 0, c > 0 at fixed mass m (2 < p < 8).

    The scaling (B, c) -> (B lam^p, c lam^(p-2)) multiplies M by lam^((8-p)/2)
    and H by lam^((p+4)/2), so every member is a rescaled unit-speed member
    Phi_{r,1} with r = B / c^(p/(p-2)), and at mass m

        H = m^((p+4)/(8-p)) * H_1(r) / M_1(r)^((p+4)/(8-p)).

    The ratio is minimized over a log grid in r that includes 0, refined by a
    bounded scalar search between the neighbours of the best grid point, and
    the minimizer is scaled back to mass m exactly.  Members whose quadrature
    fails are left out; ``iterations`` counts objective evaluations.
    """
    if not (2 < p < 8):
        raise ProfileError("family minimization requires 2 < p < 8")
    if m <= 0:
        raise ProfileError("target mass must be positive")

    if p == 4:
        c_star = m / (math.sqrt(2) * math.pi)
        return MinimizerResult(0.0, c_star, -(m**2) / (4 * math.sqrt(2) * math.pi), m, 0)

    k = (p + 4) / (8 - p)
    best = (math.inf, 0.0, 0.0)  # (objective, r, M_1(r))

    def objective(r):
        nonlocal best
        try:
            _, M1, S, Pp = compacton_integrals(ModelParams(p, 0.0, r, 1.0), panels=96)
        except ProfileError:
            return math.inf
        f = (0.5 * S - Pp / p) / M1**k
        best = min(best, (f, r, M1))
        return f

    grid = _RATIO_GRID
    i = int(np.argmin([objective(r) for r in grid]))
    if not math.isfinite(best[0]):
        raise ProfileError(f"no member of the p = {p} compacton family could be integrated")
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    refined = minimize_scalar(
        objective, bounds=(lo, hi), method="bounded", options={"xatol": 1e-6 * (hi - lo)}
    )
    f, r, M1 = best
    lam = (m / M1) ** (2 / (8 - p))
    return MinimizerResult(
        float(r * lam**p), float(lam ** (p - 2)), float(m**k * f), float(m), grid.size + refined.nfev
    )


# ---------------------------------------------------------------------------
# Weinstein functional


def weinstein(field, p: float) -> float:
    """||u||_p^p / (||u||_2^alpha ||u u_x||_2^beta), alpha=(p+4)/3, beta=(p-2)/3."""
    xs, vals, prof = _samples(field)
    if not np.any(vals):
        raise ValueError("Weinstein functional undefined for the zero field")
    if prof is not None and hasattr(prof, "phi_dphi"):
        uux = prof.phi_dphi
    else:
        uux = vals * _centered_derivative(vals, xs)
    alpha = (p + 4) / 3
    beta = (p - 2) / 3
    num = _quad(np.abs(vals) ** p, xs)
    l2 = math.sqrt(_quad(np.abs(vals) ** 2, xs))
    gl2 = math.sqrt(_quad(np.abs(uux) ** 2, xs))
    return num / (l2**alpha * gl2**beta)


# ---------------------------------------------------------------------------
# polar (hydrodynamic) representation


def polar_functionals(xs, rho, theta_x, p, rho_x=None):
    """(M, K, H) of u = sqrt(rho) e^{i theta} from density and phase slope.

    M = int rho, K = int rho*theta_x,
    H = 1/8 int rho_x^2 + 1/2 int (rho*theta_x)^2 - (1/p) int rho^(p/2).

    The momentum density rho*theta_x is the bounded physical quantity; at
    vacuum samples adjacent to a positive region (where theta_x may be
    non-finite) the neighboring interior value is used as its limit.
    """
    xs = np.asarray(xs, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < -1e-14):
        raise ValueError("density must be nonnegative")
    rho = np.maximum(rho, 0.0)
    theta_x = np.asarray(theta_x, dtype=float)
    with np.errstate(invalid="ignore"):
        j = np.where(rho > 0, rho * theta_x, 0.0)
    bad = ~np.isfinite(j) | ((rho == 0) & ~np.isfinite(theta_x))
    if np.any(bad):
        j = j.copy()
        idx = np.nonzero(bad)[0]
        for i in idx:
            if i + 1 < rho.size and rho[i + 1] > 0 and np.isfinite(j[i + 1]):
                j[i] = j[i + 1]
            elif i - 1 >= 0 and rho[i - 1] > 0 and np.isfinite(j[i - 1]):
                j[i] = j[i - 1]
            else:
                j[i] = 0.0
    if rho_x is None:
        rho_x = _centered_derivative(rho, xs)
    M = _quad(rho, xs)
    K = _quad(j, xs)
    H = 0.125 * _quad(np.asarray(rho_x) ** 2, xs) + 0.5 * _quad(j**2, xs) - _quad(
        rho ** (p / 2), xs
    ) / p
    return M, K, H


# ---------------------------------------------------------------------------
# escaping minimizing sequence


def _default_bump(s):
    s = np.asarray(s, dtype=float)
    return np.where(np.abs(s) < 1, (35.0 / 32.0) * (1 - s * s) ** 3, 0.0)


def _default_bump_deriv(s):
    s = np.asarray(s, dtype=float)
    return np.where(np.abs(s) < 1, (35.0 / 32.0) * (-6 * s) * (1 - s * s) ** 2, 0.0)


def escaping_sequence(M0, K0, p, R, eps, chi=None, chi_deriv=None, n_bump=4097):
    """Family minimizer plus a far small bump carrying all the momentum.

    The bump density is eps^2 * chi(./R) centered at 10R, with momentum
    density K0/(2R) on its support, so K = K0 and M = M0 + eps^2 R int(chi).
    Everything is kept in polar variables; the raw phase is never formed.
    """
    if R <= 0 or eps <= 0:
        raise ValueError("R and eps must be positive")
    if chi is None:
        chi, chi_deriv = _default_bump, _default_bump_deriv
    res = minimize_in_family(p, M0)
    phi = build_compacton(ModelParams(p, 0.0, res.B_star, res.c_star), 4097)
    if 10 * R - R <= phi.half_width:
        raise ValueError("bump support overlaps the minimizer support")

    xs_b = np.linspace(10 * R - R, 10 * R + R, n_bump)
    s = (xs_b - 10 * R) / R
    chi_s = np.asarray(chi(s), dtype=float)
    rho_b = eps**2 * chi_s
    j_b = np.full(n_bump, K0 / (2 * R))
    if chi_deriv is not None:
        rho_bx = eps**2 * np.asarray(chi_deriv(s), dtype=float) / R
    else:
        rho_bx = None

    with np.errstate(divide="ignore"):
        theta_x_b = np.where(rho_b > 0, j_b / np.where(rho_b > 0, rho_b, 1.0), np.inf)
    M_b, K_b, H_b = polar_functionals(xs_b, rho_b, theta_x_b, p, rho_x=rho_bx)

    rho_phi = phi.phi**2
    M_phi, _, H_phi = polar_functionals(
        phi.xs, rho_phi, np.zeros_like(rho_phi), p, rho_x=2 * phi.phi_dphi
    )

    energy, pohozaev = identity_residuals(phi)
    rep = FunctionalReport(
        mass=M_phi + M_b,
        hamiltonian=H_phi + H_b,
        momentum_P=0.0,
        momentum_K=K_b,
        pohozaev_residual=_combined_identity(p, energy, pohozaev),
        energy_identity_residual=energy,
    )
    xs_all = np.concatenate((phi.xs, xs_b))
    rho_all = np.concatenate((rho_phi, rho_b))
    j_all = np.concatenate((np.zeros_like(rho_phi), j_b))
    return EscapingSequence(xs_all, rho_all, j_all, rep, H_phi)
