"""Property checks on the program's outputs.

Each check compares an output with a property the method must have or with a
value the benchmark computes on its own (closed forms, finite differences,
scaling laws), never with a stored copy of an earlier output.  A violated
property raises `CheckFailed`.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)


class CheckFailed(Exception):
    """An output of the program violates a property it must have."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def close(a, b, tol, label):
    require(abs(a - b) <= tol, f"{label}: {a!r} differs from {b!r} by more than {tol:g}")


# ---------------------------------------------------------------------------
# evolution


def periodic_offset(x, L):
    """x wrapped into [-L/2, L/2)."""
    return (np.asarray(x, dtype=float) + L / 2) % L - L / 2


def dkdv_exact(xs, x0, c, t, L):
    """The B = 0, p = 4 compacton sqrt(c + c cos(sqrt2 s)) centred at x0 + c t."""
    s = periodic_offset(xs - x0 - c * t, L)
    inside = np.abs(s) <= math.pi / SQRT2
    return np.where(inside, np.sqrt(np.maximum(c + c * np.cos(SQRT2 * s), 0.0)), 0.0)


def check_dkdv_final(xs, u, x0, c, t, L, tol, core=0.6):
    """Peak at x0 + c t within 2 dx, and the state within tol of the closed form.

    The closed form is compared on the core |x - x0 - c t| <= core * x_r of the
    support: at the edges, where the profile has a corner, the regularized
    derivative rounds the wave off by a few per cent of its peak.
    """
    dx = xs[1] - xs[0]
    peak = xs[int(np.argmax(u))]
    miss = abs(float(periodic_offset(peak - (x0 + c * t), L)))
    require(miss <= 2 * dx, f"peak at {peak:.6f}, expected {x0 + c * t:.6f} (off by {miss / dx:.2f} dx)")
    inner = np.abs(periodic_offset(xs - x0 - c * t, L)) <= core * math.pi / SQRT2
    err = float(np.max(np.abs(u - dkdv_exact(xs, x0, c, t, L))[inner]))
    amp = math.sqrt(2 * c)
    require(err <= tol * amp, f"state differs from the travelling closed form by {err / amp:.3e} of its peak")


def check_drift(values, limit, label):
    """Largest relative change of a conserved quantity along a run."""
    v = np.asarray(values, dtype=float)
    drift = float(np.max(np.abs(v - v[0]))) / abs(v[0])
    require(drift < limit, f"{label} drifts by {drift:.3e} (limit {limit:g})")


# ---------------------------------------------------------------------------
# profiles and functionals


def first_integral(phi, p, B, c, A=0.0):
    """F(phi) = 2B/phi^2 + 2A/phi + c - (2/p) phi^(p-2), for phi > 0."""
    return 2 * B / phi**2 + 2 * A / phi + c - (2 / p) * phi ** (p - 2)


def check_profile_residual(xs, phi, p, B, c, tol):
    """Finite-difference phi'^2 against F(phi) away from the support edges."""
    dphi = np.gradient(phi, xs, edge_order=2)
    xr = xs[-1]
    inner = np.abs(xs) <= 0.9 * xr
    F = first_integral(phi[inner], p, B, c)
    res = float(np.max(np.abs(dphi[inner] ** 2 - F))) / max(1.0, float(np.max(np.abs(F))))
    require(res <= tol, f"profile residual |phi'^2 - F(phi)| = {res:.3e} (p={p}, B={B}, c={c})")


def p4_half_width(B, c):
    """Support half-width of the p = 4 compacton: pi/sqrt2 at B = 0, else the arccos formula."""
    if B == 0:
        return math.pi / SQRT2
    return math.acos(-c / math.sqrt(4 * B + c * c)) / SQRT2


def p2_half_width(B, c):
    return math.sqrt(2 * B) / (1 - c)


def check_p4_identity(M, H, c, tol):
    """H = -(c/4) M on every p = 4 compacton."""
    close(H, -c / 4 * M, tol * max(1.0, abs(H)), "H + (c/4) M")


def check_identities(rep, tol):
    """Pohozaev and energy identity residuals of a report are zero."""
    close(rep.pohozaev_residual, 0.0, tol, "Pohozaev residual")
    close(rep.energy_identity_residual, 0.0, tol, "energy identity residual")


def check_nls(rep_q, rep_phi, v, xr, Q_abs2, phi, tol):
    """K = -v x_r, H(Q) - H(Phi) = v^2 x_r / 4, and |Q| = Phi pointwise."""
    close(rep_q.momentum_K, -v * xr, tol, "momentum K of the NLS profile")
    close(rep_q.hamiltonian - rep_phi.hamiltonian, v * v * xr / 4, tol, "H(Q) - H(Phi)")
    close(rep_q.mass, rep_phi.mass, tol, "mass of |Q| against mass of Phi")
    err = float(np.max(np.abs(Q_abs2 - phi**2)))
    require(err <= tol, f"|Q|^2 differs from Phi^2 by {err:.3e}")


def check_p4_minimizer(res, m):
    """The p = 4 minimizer is the resting family member with c* = m / (sqrt2 pi)."""
    close(res.c_star, m / (SQRT2 * math.pi), 1e-12, "p = 4 minimizing speed")
    close(res.B_star, 0.0, 1e-10, "p = 4 minimizing B")
    close(res.H_star, -(m**2) / (4 * SQRT2 * math.pi), 1e-12, "p = 4 minimal H")


def check_minimizer_profile(res, m, M_built, H_built, rel):
    """The profile built at (B*, c*) has mass m and Hamiltonian H*."""
    close(M_built, m, rel * m, "mass of the minimizing profile")
    close(H_built, res.H_star, rel * abs(res.H_star), "Hamiltonian of the minimizing profile")
    close(res.mass, m, rel * m, "reported minimizer mass")


def check_scaling_law(p, m1, H1, m2, H2, rel):
    """H*(m) = m^((p+4)/(8-p)) H*(1), compared between two masses."""
    expected = H1 * (m2 / m1) ** ((p + 4) / (8 - p))
    close(H2, expected, rel * abs(expected), f"scaling law H*(m) at p = {p}")


def check_not_above(H_star, H_other, label):
    """A minimum lies at or below another member of the family searched."""
    require(H_star <= H_other + 1e-6 * abs(H_other), f"minimum {H_star!r} exceeds {label} {H_other!r}")


# ---------------------------------------------------------------------------
# spectral


def check_spectrum(case, eigenvalues, zero_counts, tol):
    """Known eigenvalues and the Sturm node count of each eigenfunction.

    The ground state has no interior zero and the j-th one has j.  For B14c0
    the ground direction phi is the kernel and is projected out, so the
    counts start at 1 and every eigenvalue is positive.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    k = lam.size
    require(np.all(np.diff(lam) > 0), f"{case}: eigenvalues not increasing: {lam}")
    if case == "B0c1":
        close(lam[0], -2.0, tol, "B0c1 ground eigenvalue")
        close(lam[1], 0.0, tol, "B0c1 translation eigenvalue")
    elif case == "B14c1":
        close(lam[0], -2.0, tol, "B14c1 ground eigenvalue")
        require(lam[1] > 0, f"B14c1: second eigenvalue {lam[1]!r} is not positive")
    elif case == "B14cm1":
        close(lam[0], 2.0, tol, "B14cm1 ground eigenvalue")
    elif case == "B14c0":
        require(lam[0] > 0, f"B14c0: eigenvalue {lam[0]!r} on the complement of the kernel is not positive")
    first = 1 if case == "B14c0" else 0
    expected = list(range(first, first + k))
    require(list(zero_counts) == expected, f"{case}: zero counts {list(zero_counts)}, expected {expected}")


def check_inverse(f, back, tol):
    """apply_L(green_apply(f)) returns f."""
    err = float(np.max(np.abs(back - f)))
    require(err <= tol * float(np.max(np.abs(f))), f"L G f differs from f by {err:.3e}")


def check_energy_decay(energy, ortho, tol):
    """Linearized energy never increases, and the orthogonality constraint holds."""
    E = np.asarray(energy, dtype=float)
    scale = max(1.0, abs(float(E[0])))
    rise = float(np.max(np.diff(E))) if E.size > 1 else 0.0
    require(rise <= tol * scale, f"linearized energy increased by {rise:.3e}")
    drift = float(np.max(np.abs(ortho)))
    require(drift <= 1e-8, f"orthogonality to phi drifted to {drift:.3e}")


# ---------------------------------------------------------------------------
# command line


def check_report_matches(from_file, expected, rel, label):
    """Every field of a CLI functionals report agrees with the reference values."""
    for key, ref in expected.items():
        got = from_file[key]
        close(got, ref, rel * max(1.0, abs(ref)), f"{label}: {key}")


def trapezoid_mass(xs, phi):
    return float(np.sum(0.5 * (phi[1:] ** 2 + phi[:-1] ** 2) * np.diff(xs)))
