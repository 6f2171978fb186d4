"""Nonlinear time evolution on periodic domains.

Three models: the degenerate KdV flow u_t + (u (u (u)_x)_x + u^(p-1))_x = 0
with regularized pseudospectral derivatives, the degenerate NLS variant
-i v_t = |v|^(p-2) v + conj(v) (v v_x)_x with centered differences, and the
hydrodynamic pair rho_t + (rho u)_x = 0, u_t + 3 u u_x = rho (rho_xxx +
2 rho_x).  Spectral derivatives of real fields use real FFTs and the
half-spectrum multiplier i k / (1 + nu k^4), which each grid builds once per
strength nu and keeps; a right-hand side transforms each field once.  Time
stepping is an adaptive two-stage implicit method (trapezoidal step to an
interior node followed by a second-order backward differentiation closure)
with an embedded third-order error estimate and matrix-free Newton-Krylov
stage solves.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from . import functionals
from .profiles import ModelParams, _write_csv, build_compacton, build_periodic

__all__ = [
    "PeriodicGrid",
    "FieldState",
    "RegularizationConfig",
    "IntegratorConfig",
    "DiagnosticsSeries",
    "IntegrationError",
    "regularized_derivative",
    "dkdv_rhs",
    "dnls_rhs",
    "hydro_rhs",
    "integrate",
    "initial_condition",
    "diagnostics",
    "write_series_csv",
    "write_snapshot_csv",
    "write_run_manifest",
]

GAMMA = 2.0 - math.sqrt(2.0)


class IntegrationError(RuntimeError):
    def __init__(self, message, last_time=None, last_state=None):
        super().__init__(message)
        self.last_time = last_time
        self.last_state = last_state


@dataclass(frozen=True)
class PeriodicGrid:
    length: float
    n: int
    xs: np.ndarray = field(init=False, repr=False, compare=False)
    k: np.ndarray = field(init=False, repr=False, compare=False)
    _multipliers: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if self.n < 4 or self.n & (self.n - 1):
            raise ValueError(f"grid size must be a power of two >= 4, got {self.n}")
        object.__setattr__(
            self, "xs", -self.length / 2 + self.length / self.n * np.arange(self.n)
        )
        object.__setattr__(self, "k", 2 * np.pi * np.fft.fftfreq(self.n, d=self.dx))

    @property
    def dx(self):
        return self.length / self.n

    def _multiplier(self, nu: float) -> np.ndarray:
        """Half-spectrum multiplier i k / (1 + nu k^4) on the rfft wavenumbers, built once per nu."""
        mult = self._multipliers.get(nu)
        if mult is None:
            kr = 2 * np.pi * np.fft.rfftfreq(self.n, d=self.dx)
            mult = self._multipliers[nu] = 1j * kr / (1.0 + nu * kr**4)
            mult.flags.writeable = False  # shared by every caller on this grid
        return mult


@dataclass
class FieldState:
    kind: str  # "real" | "complex" | "hydro"
    grid: PeriodicGrid
    data: object  # ndarray, or (rho, u) tuple for hydro
    t: float = 0.0
    floor_incidents: int = 0


@dataclass(frozen=True)
class RegularizationConfig:
    """Strength of the spectral low-pass regularization.

    The damped multiplier is applied only to the outermost divergence of the
    conservative flux, which keeps the semi-discrete flow a skew gradient of
    the energy and conserves it up to aliasing.
    """

    nu: float = 1e-4

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError("regularization strength must be nonnegative")


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-6
    atol: float = 1e-9
    initial_step: float = 1e-3
    max_step: float = 0.1

    def __post_init__(self):
        for name in ("rtol", "atol", "initial_step", "max_step"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} = {value}; it must be positive and finite")


@dataclass
class DiagnosticsSeries:
    times: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    hamiltonian: list = field(default_factory=list)
    momentum: list = field(default_factory=list)

    def append(self, t, M, H, Pm):
        self.times.append(t)
        self.mass.append(M)
        self.hamiltonian.append(H)
        self.momentum.append(Pm)


# ---------------------------------------------------------------------------
# spatial operators


def regularized_derivative(v, grid: PeriodicGrid, nu: float, order: int = 1):
    """Spectral derivative with multiplier (i k / (1 + nu k^4))^order."""
    mult = grid._multiplier(nu)
    if np.isrealobj(v):
        return np.fft.irfft(mult**order * np.fft.rfft(v), grid.n)
    # i k / (1 + nu k^4) is odd in k: extend it to the negative fft wavenumbers
    full = np.concatenate((mult[:-1], -mult[:0:-1]))
    return np.fft.ifft(full**order * np.fft.fft(v))


def dkdv_rhs(u, grid: PeriodicGrid, p: float = 4.0, nu: float = 1e-4, conserve_mass: bool = True):
    """-D(u D(u D u) + u^(p-1)) with a regularized outermost derivative.

    The inner derivatives are exact spectral ones, so the flow is a skew
    image of the energy gradient and the energy integral is conserved up to
    aliasing.

    With conserve_mass=True a small conservative flux correction
    mu * (u^2)_x is added, with mu chosen at each evaluation so the rate of
    change of the squared-L2 mass vanishes identically.  mu scales with the
    regularization defect (it is zero when nu = 0 up to aliasing), so the
    corrected right-hand side stays within the regularization error of the
    uncorrected one.
    """
    n, exact, damped = grid.n, grid._multiplier(0.0), grid._multiplier(nu)
    rfft, irfft = np.fft.rfft, np.fft.irfft
    uhat = rfft(u)
    flux = u * irfft(exact * rfft(u * irfft(exact * uhat, n)), n)
    flux += np.sign(u) * np.abs(u) ** (p - 1)
    if conserve_mass:
        # d/dt int u^2 = -2 <D_nu u, flux>; cancel it along the smooth
        # conservative direction (u^2)_x, whose pairing with D_nu u is O(1).
        du = irfft(damped * uhat, n)
        r = irfft(exact * rfft(u * u), n)
        denom = float(np.dot(du, r))
        if abs(denom) > 1e-300:
            flux -= (np.dot(du, flux) / denom) * r
    return -irfft(damped * rfft(flux), n)


def dnls_rhs(v, grid: PeriodicGrid, p: float = 4.0):
    """i (|v|^(p-2) v + conj(v) (v v_x)_x) with centered periodic differences."""
    dx = grid.dx

    def D(w):
        return (np.roll(w, -1) - np.roll(w, 1)) / (2 * dx)

    return 1j * (np.abs(v) ** (p - 2) * v + np.conj(v) * D(v * D(v)))


def hydro_rhs(rho, u, grid: PeriodicGrid, nu: float = 1e-4):
    """(-(rho u)_x, -3 u u_x + rho (rho_xxx + 2 rho_x)), regularized derivatives."""
    n, m = grid.n, grid._multiplier(nu)
    rfft, irfft = np.fft.rfft, np.fft.irfft
    drho_dt = -irfft(m * rfft(rho * u), n)
    du_dt = -3 * u * irfft(m * rfft(u), n) + rho * irfft(m * (m * m + 2) * rfft(rho), n)
    return drho_dt, du_dt


# ---------------------------------------------------------------------------
# state packing


def _pack(state: FieldState) -> np.ndarray:
    if state.kind == "real":
        return np.asarray(state.data, dtype=float).copy()
    if state.kind == "complex":
        v = np.asarray(state.data)
        return np.concatenate((v.real, v.imag))
    rho, u = state.data
    return np.concatenate((np.asarray(rho, float), np.asarray(u, float)))


def _unpack(kind, grid, y):
    n = grid.n
    if kind == "real":
        return y
    if kind == "complex":
        return y[:n] + 1j * y[n:]
    return y[:n], y[n:]


def _model_rhs(state: FieldState, p, reg: RegularizationConfig) -> Callable:
    kind, grid = state.kind, state.grid

    if kind == "real":

        def rhs(y):
            return dkdv_rhs(y, grid, p, reg.nu)

    elif kind == "complex":

        def rhs(y):
            v = _unpack("complex", grid, y)
            dv = dnls_rhs(v, grid, p)
            return np.concatenate((dv.real, dv.imag))

    else:

        def rhs(y):
            rho, u = _unpack("hydro", grid, y)
            dr, du = hydro_rhs(np.maximum(rho, 0.0), u, grid, reg.nu)
            return np.concatenate((dr, du))

    return rhs


# ---------------------------------------------------------------------------
# implicit two-stage integrator


def _newton_stage(rhs, z0, target, d, tol):
    """Solve z - d*rhs(z) = target by matrix-free Newton-Krylov."""
    z = z0.copy()
    scale = np.linalg.norm(target) + 1.0
    for _ in range(12):
        fz = rhs(z)
        g = z - d * fz - target
        gn = np.linalg.norm(g)
        if gn <= tol * scale:
            return z, fz, True
        eps_base = 1e-7 * (np.linalg.norm(z) + 1.0)

        def matvec(w):
            nw = np.linalg.norm(w)
            if nw == 0:
                return w
            e = eps_base / nw
            return w - d * (rhs(z + e * w) - fz) / e

        Aop = LinearOperator((z.size, z.size), matvec=matvec)
        dz, info = gmres(Aop, g, rtol=1e-4, atol=0.0, maxiter=60, restart=30)
        if info != 0 and np.linalg.norm(dz) == 0:
            return z, fz, False
        z = z - dz
    fz = rhs(z)
    return z, fz, np.linalg.norm(z - d * fz - target) <= 10 * tol * scale


def _check_end_time(t_end, t0):
    if not math.isfinite(t_end):
        raise ValueError(f"t_end = {t_end}; the integration needs a finite end time")
    if t_end < t0:
        raise ValueError(f"t_end = {t_end} precedes the initial time {t0}")


def integrate(
    rhs: Callable,
    state0: FieldState,
    t_end: float,
    config: IntegratorConfig = IntegratorConfig(),
    t_eval=None,
    callback=None,
):
    """Adaptive implicit integration of y' = rhs(y) from state0.t to t_end.

    Returns (times, states) at the requested sample times (t_eval), with
    dense output by cubic Hermite interpolation on accepted steps.
    """
    _check_end_time(t_end, state0.t)
    y = _pack(state0)
    t = state0.t
    if t_eval is None:
        t_eval = np.array([t_end])
    t_eval = np.asarray(t_eval, dtype=float)
    out_times, out_states = [], []
    ieval = 0
    while ieval < t_eval.size and t_eval[ieval] <= t + 1e-14:
        out_times.append(t_eval[ieval])
        out_states.append(y.copy())
        ieval += 1

    h = min(config.initial_step, config.max_step, t_end - t)
    fy = rhs(y)
    if not np.all(np.isfinite(fy)):
        raise IntegrationError("non-finite right-hand side at the initial state", t, y)

    g = GAMMA
    b0 = b1 = 1.0 / (2 * (2 - g))
    b2 = g / 2
    bh1 = 1.0 / (6 * g * (1 - g))
    bh2 = 0.5 - g * bh1
    bh0 = 1.0 - bh1 - bh2
    d0, d1v, d2v = bh0 - b0, bh1 - b1, bh2 - b2

    newton_tol = 1e-3 * min(config.rtol, 1.0)
    while t < t_end - 1e-14:
        h = min(h, t_end - t)
        d = g * h / 2
        # trapezoidal stage to t + g*h
        target1 = y + d * fy
        z1, f1, ok1 = _newton_stage(rhs, y + g * h * fy, target1, d, newton_tol)
        # backward-differentiation closure to t + h
        a1 = 1.0 / (g * (2 - g))
        a0 = -((1 - g) ** 2) / (g * (2 - g))
        target2 = a1 * z1 + a0 * y
        z2, f2, ok2 = _newton_stage(rhs, z1 + (1 - g) * h * f1, target2, d, newton_tol)
        finite = np.all(np.isfinite(z2))
        if ok1 and ok2 and finite:
            est = h * (d0 * fy + d1v * f1 + d2v * f2)
            sc = config.atol + config.rtol * np.maximum(np.abs(y), np.abs(z2))
            # the factor 2 keeps the accumulated global error within a
            # small multiple of rtol over unit time, not just the local one
            err = 2.0 * math.sqrt(float(np.mean((est / sc) ** 2)))
        else:
            err = np.inf
        if err <= 1.0:
            t_new = t + h
            # flux-form restatement of the accepted step: algebraically equal
            # when the stage equations hold exactly, but it transfers linear
            # invariants of the right-hand side (e.g. total mass under a
            # conservative flux) to the discrete solution at roundoff level
            # instead of Newton-residual level.
            z2 = y + h * (b0 * fy + b1 * f1 + b2 * f2)
            # emit dense output on [t, t_new] (cubic Hermite)
            while ieval < t_eval.size and t_eval[ieval] <= t_new + 1e-12:
                s = (t_eval[ieval] - t) / h
                h00 = (1 + 2 * s) * (1 - s) ** 2
                h10 = s * (1 - s) ** 2
                h01 = s * s * (3 - 2 * s)
                h11 = s * s * (s - 1)
                yi = h00 * y + h10 * h * fy + h01 * z2 + h11 * h * f2
                out_times.append(t_eval[ieval])
                out_states.append(yi)
                ieval += 1
            y, fy, t = z2, f2, t_new
            if callback is not None:
                callback(t, y)
            fac = 0.9 * err ** (-1.0 / 3.0) if err > 0 else 2.0
            h = min(config.max_step, h * min(3.0, max(0.3, fac)))
        else:
            h *= 0.5 if not np.isfinite(err) else max(0.2, 0.9 * err ** (-1.0 / 3.0))
            if h < 1e-13 * max(1.0, abs(t_end)):
                raise IntegrationError("step-size underflow", t, y)
    states = [
        _state_like(state0, _unpack(state0.kind, state0.grid, s), tt)
        for tt, s in zip(out_times, out_states)
    ]
    return np.array(out_times), states


def _state_like(proto: FieldState, data, t):
    floor = proto.floor_incidents
    if proto.kind == "hydro":
        rho, u = data
        neg = int(np.sum(rho < 0))
        floor += neg
        data = (np.maximum(rho, 0.0), u)
    return FieldState(proto.kind, proto.grid, data, t, floor)


# ---------------------------------------------------------------------------
# initial data and diagnostics


def initial_condition(kind: str, grid: PeriodicGrid, B=0.0, c=1.0, x0=0.0, p=4.0):
    """Standard initial states: compacton, perturbed compacton, periodic, gaussian."""
    xs = grid.xs
    if kind in ("compacton", "perturbed"):
        prof = build_compacton(ModelParams(p, 0.0, B, c), 4097)
        if 2 * prof.half_width >= grid.length:
            raise ValueError("compacton support does not fit the periodic box")
        u = prof(xs - x0)
        if kind == "perturbed":
            rel = xs - x0
            u = u * (1 + 0.01 * rel**2 * u**3)
        return FieldState("real", grid, u)
    if kind == "periodic":
        prof = build_periodic(ModelParams(p, 0.0, B, c), 4097)
        ratio = grid.length / prof.period
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("box must be an integer number of profile periods")
        half = prof.period / 2
        folded = (xs - x0 + half) % prof.period - half
        interp = np.interp(folded, prof.xs, prof.phi)
        return FieldState("complex", grid, interp.astype(complex))
    if kind == "gaussian":
        rho = np.exp(-((xs - x0) ** 2) / 4.0)
        u = np.ones_like(xs)
        return FieldState("hydro", grid, (rho, u))
    raise ValueError(f"unknown initial-condition kind {kind!r}")


def diagnostics(state: FieldState, p: float = 4.0):
    """(mass, hamiltonian, momentum) on the periodic grid (trapezoid quadrature)."""
    grid = state.grid
    if state.kind == "real":
        u = state.data
        M = functionals.mass((grid.xs, u), periodic=True)
        H = functionals.hamiltonian((grid.xs, u), p, periodic=True)
        Pm = functionals.momentum_P((grid.xs, u), periodic=True)
        return M, H, Pm
    if state.kind == "complex":
        v = state.data
        M = functionals.mass((grid.xs, v), periodic=True)
        H = functionals.hamiltonian((grid.xs, v), p, periodic=True)
        Pm = functionals.momentum_K((grid.xs, v), periodic=True)
        return M, H, Pm
    rho, u = state.data
    thresh = 1e-8 * max(np.max(rho), 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta_x = np.where(rho > thresh, u / (2 * np.where(rho > thresh, rho, 1.0)), 0.0)
    dx = grid.dx
    rho_x = (np.roll(rho, -1) - np.roll(rho, 1)) / (2 * dx)
    j = rho * theta_x
    M = float(np.sum(rho) * dx)
    K = float(np.sum(j) * dx)
    H = float(
        0.125 * np.sum(rho_x**2) * dx + 0.5 * np.sum(j**2) * dx - np.sum(rho ** (p / 2)) * dx / p
    )
    return M, H, K


def run_model(
    state0: FieldState,
    t_end: float,
    p: float = 4.0,
    reg: RegularizationConfig = RegularizationConfig(),
    config: IntegratorConfig = IntegratorConfig(),
    n_samples: int = 21,
):
    """Integrate a model state and collect conservation diagnostics at n_samples times."""
    if n_samples < 2:
        raise ValueError(f"n_samples = {n_samples}; the initial and final states need at least 2")
    _check_end_time(t_end, state0.t)
    t_eval = np.linspace(state0.t, t_end, n_samples)
    times, states = integrate(_model_rhs(state0, p, reg), state0, t_end, config, t_eval)
    series = DiagnosticsSeries()
    for st in states:
        M, H, Pm = diagnostics(st, p)
        series.append(st.t, M, H, Pm)
    return times, states, series


# ---------------------------------------------------------------------------
# artifacts


def write_series_csv(series: DiagnosticsSeries, path):
    _write_csv(
        path, "t,mass,hamiltonian,momentum",
        series.times, series.mass, series.hamiltonian, series.momentum,
    )


def write_snapshot_csv(state: FieldState, path):
    xs = state.grid.xs
    if state.kind == "real":
        _write_csv(path, "x,u", xs, state.data)
    elif state.kind == "complex":
        v = np.asarray(state.data)
        _write_csv(path, "x,re,im", xs, v.real, v.imag)
    else:
        _write_csv(path, "x,rho,u", xs, *state.data)


def write_run_manifest(path, model, grid: PeriodicGrid, reg, config, wall_time, state: FieldState):
    manifest = {
        "model": model,
        "grid": {"L": grid.length, "n": grid.n},
        "nu": reg.nu,
        "rtol": config.rtol,
        "atol": config.atol,
        "wall_time_s": wall_time,
        "rho_floor_incidents": state.floor_incidents,
        "final_time": state.t,
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
