"""Each output check accepts a correct result and rejects a perturbed one.

Run from the root of a checkout:  python3 -m pytest perfbench/test_checks.py
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks as ck  # noqa: E402
from compactons import functionals as fn  # noqa: E402
from compactons import profiles as pr  # noqa: E402

L_DKDV, X0, C, T = 40.0, -3.0, 1.02, 0.1
XS = -L_DKDV / 2 + L_DKDV / 2048 * np.arange(2048)


def dkdv(u):
    ck.check_dkdv_final(XS, u, X0, C, T, L_DKDV, 1e-2)


@pytest.fixture(scope="module")
def p3():
    return pr.build_compacton(pr.ModelParams(3, 0.0, 0.1, 1.0), 1024)


@pytest.fixture(scope="module")
def nls():
    B, c, v = 0.2, 0.8, 0.6
    q = pr.build_nls_compacton(pr.ModelParams(4, 0.0, B, c), v, 1024)
    return q, fn.report(q), fn.report(q.base), v, ck.p4_half_width(B, c)


def test_dkdv_final_state():
    exact = ck.dkdv_exact(XS, X0, C, T, L_DKDV)
    dkdv(exact)
    with pytest.raises(ck.CheckFailed, match="peak"):
        dkdv(np.roll(exact, 3))
    with pytest.raises(ck.CheckFailed, match="peak"):
        dkdv(ck.dkdv_exact(XS, X0, C, 0.0, L_DKDV))
    with pytest.raises(ck.CheckFailed, match="closed form"):
        dkdv(1.02 * exact)


def test_drift():
    ck.check_drift([2.0, 2.0 + 1e-5, 2.0 - 1e-5], 1e-4, "mass")
    with pytest.raises(ck.CheckFailed, match="mass"):
        ck.check_drift([2.0, 2.0, 2.0 + 4e-4], 1e-4, "mass")


def test_profile_residual(p3):
    ck.check_profile_residual(p3.xs, p3.phi, 3, 0.1, 1.0, 1e-3)
    with pytest.raises(ck.CheckFailed, match="residual"):
        ck.check_profile_residual(p3.xs, 1.01 * p3.phi, 3, 0.1, 1.0, 1e-3)
    with pytest.raises(ck.CheckFailed, match="residual"):
        ck.check_profile_residual(p3.xs * 1.01, p3.phi, 3, 0.1, 1.0, 1e-3)


def test_p4_half_width_and_identity():
    prof = pr.build_compacton(pr.ModelParams(4, 0.0, 0.3, 0.7), 1024)
    ck.close(prof.half_width, ck.p4_half_width(0.3, 0.7), 1e-12, "half-width")
    M, H = fn.mass(prof), fn.hamiltonian(prof)
    ck.check_p4_identity(M, H, 0.7, 1e-6)
    with pytest.raises(ck.CheckFailed):
        ck.close(prof.half_width, ck.p4_half_width(0.3, 0.71), 1e-12, "half-width")
    with pytest.raises(ck.CheckFailed):
        ck.check_p4_identity(M, H * (1 + 1e-4), 0.7, 1e-6)


def test_identities(p3):
    rep = fn.report(p3)
    ck.check_identities(rep, 1e-6)
    with pytest.raises(ck.CheckFailed, match="Pohozaev"):
        ck.check_identities(replace(rep, pohozaev_residual=1e-4), 1e-6)
    with pytest.raises(ck.CheckFailed, match="energy"):
        ck.check_identities(replace(rep, energy_identity_residual=-1e-4), 1e-6)


def test_nls_relations(nls):
    q, rep_q, rep_phi, v, xr = nls
    abs2 = q.re**2 + q.im**2
    ck.check_nls(rep_q, rep_phi, v, xr, abs2, q.base.phi, 1e-6)
    with pytest.raises(ck.CheckFailed, match="momentum K"):
        ck.check_nls(replace(rep_q, momentum_K=1.01 * rep_q.momentum_K), rep_phi, v, xr, abs2, q.base.phi, 1e-6)
    with pytest.raises(ck.CheckFailed, match="H\\(Q\\)"):
        ck.check_nls(replace(rep_q, hamiltonian=rep_q.hamiltonian + 1e-3), rep_phi, v, xr, abs2, q.base.phi, 1e-6)
    with pytest.raises(ck.CheckFailed, match="Phi\\^2"):
        ck.check_nls(rep_q, rep_phi, v, xr, 1.001 * abs2, q.base.phi, 1e-6)


def test_minimizer_checks():
    m = 1.3
    res = fn.minimize_in_family(4.0, m)
    ck.check_p4_minimizer(res, m)
    with pytest.raises(ck.CheckFailed, match="speed"):
        ck.check_p4_minimizer(replace(res, c_star=res.c_star * (1 + 1e-9)), m)
    ck.check_minimizer_profile(res, m, m, res.H_star, 1e-6)
    with pytest.raises(ck.CheckFailed, match="mass"):
        ck.check_minimizer_profile(res, m, m * (1 + 1e-5), res.H_star, 1e-6)
    with pytest.raises(ck.CheckFailed, match="Hamiltonian"):
        ck.check_minimizer_profile(res, m, m, res.H_star * (1 + 1e-5), 1e-6)
    ck.check_not_above(-1.0, -0.5, "B = 0 member")
    with pytest.raises(ck.CheckFailed, match="exceeds"):
        ck.check_not_above(-0.5, -1.0, "B = 0 member")


def test_scaling_law():
    p, h1 = 3.0, -0.16
    h2 = h1 * 1.2 ** ((p + 4) / (8 - p))
    ck.check_scaling_law(p, 1.0, h1, 1.2, h2, 1e-6)
    with pytest.raises(ck.CheckFailed, match="scaling"):
        ck.check_scaling_law(p, 1.0, h1, 1.2, h2 * (1 + 1e-5), 1e-6)


@pytest.mark.parametrize(
    "case, good, bad",
    [
        ("B0c1", [-2.0, 1e-5], [-1.99, 1e-5]),
        ("B0c1", [-2.0, 1e-5], [-2.0, 0.01]),
        ("B14c1", [-2.0, 1.79, 5.57], [-2.0, -0.1, 5.57]),
        ("B14cm1", [2.0, 7.4], [1.98, 7.4]),
        ("B14c0", [3.35, 7.72], [-0.1, 7.72]),
    ],
)
def test_spectrum_values(case, good, bad):
    counts = list(range(1, 1 + len(good))) if case == "B14c0" else list(range(len(good)))
    ck.check_spectrum(case, good, counts, 1e-3)
    with pytest.raises(ck.CheckFailed):
        ck.check_spectrum(case, bad, counts, 1e-3)


def test_spectrum_zero_counts():
    ck.check_spectrum("B14c1", [-2.0, 1.8, 5.6], [0, 1, 2], 1e-3)
    with pytest.raises(ck.CheckFailed, match="zero counts"):
        ck.check_spectrum("B14c1", [-2.0, 1.8, 5.6], [0, 2, 1], 1e-3)
    with pytest.raises(ck.CheckFailed, match="zero counts"):
        ck.check_spectrum("B14c0", [3.3, 7.7], [0, 1], 1e-3)
    with pytest.raises(ck.CheckFailed, match="increasing"):
        ck.check_spectrum("B14cm1", [2.0, 7.4, 7.0], [0, 1, 2], 1e-3)


def test_inverse():
    f = np.sin(np.linspace(0, 3, 100))
    ck.check_inverse(f, f + 1e-9, 1e-6)
    with pytest.raises(ck.CheckFailed):
        ck.check_inverse(f, f * (1 + 1e-4), 1e-6)


def test_energy_decay():
    E = np.array([1.0, 0.9, 0.85, 0.85])
    ck.check_energy_decay(E, np.zeros(4), 1e-10)
    with pytest.raises(ck.CheckFailed, match="increased"):
        ck.check_energy_decay(np.array([1.0, 0.9, 0.91]), np.zeros(3), 1e-10)
    with pytest.raises(ck.CheckFailed, match="orthogonality"):
        ck.check_energy_decay(E, np.array([0, 0, 1e-6, 0]), 1e-10)


def test_report_matches(p3):
    ref = {"mass": 1.5, "hamiltonian": -0.2}
    ck.check_report_matches(dict(ref), ref, 1e-9, "cli")
    with pytest.raises(ck.CheckFailed, match="hamiltonian"):
        ck.check_report_matches({"mass": 1.5, "hamiltonian": -0.2 + 1e-6}, ref, 1e-9, "cli")
    mass = ck.trapezoid_mass(p3.xs, p3.phi)
    ck.close(fn.mass(p3), mass, 1e-4 * mass, "mass")
    with pytest.raises(ck.CheckFailed):
        ck.close(fn.mass(p3), ck.trapezoid_mass(p3.xs, 1.001 * p3.phi), 1e-4 * mass, "mass")
