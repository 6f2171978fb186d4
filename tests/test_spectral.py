import json
import math

import numpy as np
import pytest

from compactons import spectral
from compactons.spectral import (
    CASE_PARAMS,
    apply_L,
    b_transform,
    constrain_initial,
    count_zeros,
    eig_b,
    eig_green,
    energy_form,
    evolve_linearized,
    frobenius_exponents,
    green_apply,
    homogeneous_solutions,
    hs_norm_bound,
    make_operator,
    spectrum_json,
    wronskian_samples,
    write_trajectory_csv,
)

SQRT2 = math.sqrt(2.0)
ALL_CASES = sorted(CASE_PARAMS)


def smooth_bump(x, xr, center=0.0, width=0.35):
    """C^inf bump compactly supported well inside (-xr, xr)."""
    s = (x - center) / (width * xr)
    out = np.zeros_like(x)
    inside = np.abs(s) < 1
    out[inside] = np.exp(-1.0 / (1 - s[inside] ** 2))
    return out


class TestOperator:
    def test_case_parameters(self):
        assert CASE_PARAMS["B0c1"] == (0.0, 1.0)
        assert CASE_PARAMS["B14cm1"] == (0.25, -1.0)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_ground_direction(self, case):
        op = make_operator(case, 4097)
        phi = op.profile.phi[1:-1]
        res = apply_L(op, phi) + 2 * op.c * phi
        assert np.max(np.abs(res)) < 1e-4

    def test_translation_direction_is_annihilated(self):
        op = make_operator("B0c1", 4097)
        w = op.profile.dphi[1:-1]
        res = apply_L(op, w)
        assert np.max(np.abs(res)) < 1e-4

    def test_zero(self):
        op = make_operator("B0c1", 257)
        assert np.max(np.abs(apply_L(op, np.zeros(255)))) == 0.0


class TestHomogeneousSolutions:
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_wronskian_constancy(self, case):
        kern = homogeneous_solutions(case)
        w = wronskian_samples(kern)
        assert np.max(np.abs(w - kern.wronskian_constant)) < 1e-8 * max(
            1.0, abs(kern.wronskian_constant)
        )

    def test_wronskian_values(self):
        assert homogeneous_solutions("B0c1").wronskian_constant == pytest.approx(
            0.5, abs=1e-10
        )
        # the moving B = 1/4 pair has |W| = sqrt(2)|c|/(1 + c^2)
        for case, c in (("B14c1", 1.0), ("B14cm1", -1.0)):
            W = homogeneous_solutions(case).wronskian_constant
            assert abs(W) == pytest.approx(SQRT2 * abs(c) / (1 + c * c), abs=1e-10)
            assert math.copysign(1.0, W) == -math.copysign(1.0, c)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_pairs_solve_the_operator(self, case):
        op = make_operator(case, 4097)
        kern = homogeneous_solutions(case, 4097)
        for q in (kern.q1, kern.q2, kern.q_minus, kern.q_plus, kern.q_star, kern.phi):
            if q is None:
                continue
            res = apply_L(op, q)
            interior = slice(40, -40)  # away from the degenerate endpoints
            assert np.max(np.abs(res[interior])) < 1e-6 * np.max(np.abs(q[interior]))


class TestGreenInverse:
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_inverse_composition(self, case):
        op = make_operator(case, 4097)
        x = op.xs_interior
        xr = op.profile.half_width
        rng = np.random.default_rng(7)
        for _ in range(5):
            center = rng.uniform(-0.3, 0.3) * xr
            width = rng.uniform(0.2, 0.4)
            f = smooth_bump(x, xr, center, width)
            f = spectral.green_orthogonalize(case, f)
            w = green_apply(case, f)
            back = apply_L(op, w)
            interior = slice(30, -30)
            scale = np.max(np.abs(f)) or 1.0
            assert np.max(np.abs(back[interior] - f[interior])) < 1e-6 * scale

    def test_zero_maps_to_zero(self):
        op = make_operator("B0c1", 1025)
        out = green_apply("B0c1", np.zeros(op.xs_interior.size))
        assert np.max(np.abs(out)) == 0.0

    def test_orthogonality_enforced(self):
        op = make_operator("B0c1", 1025)
        phi = op.profile.phi[1:-1]
        with pytest.raises(ValueError):
            green_apply("B0c1", phi)

    @pytest.mark.parametrize("case", ["B14c1", "B14cm1"])
    def test_kernel_norm_bounded_under_refinement(self, case):
        seq = hs_norm_bound(case, levels=(256, 512, 1024))
        assert seq[-1] < 1.1 * seq[0]


class TestSchroedingerConjugate:
    def test_assembly_constants(self):
        bop = b_transform(make_operator("B0c1"))
        assert bop.constant_term == 0.25
        assert bop.coupling == 3.75
        mid = bop.ts.size // 2
        assert bop.potential[mid] == pytest.approx(-1.0, abs=1e-10)

    def test_potential_is_a_squared_secant(self):
        # the coordinate change linearizes to V(t) = -sech(t)^2 exactly
        bop = b_transform(make_operator("B0c1"))
        assert np.max(np.abs(bop.potential + 1 / np.cosh(bop.ts) ** 2)) < 1e-9

    def test_exponential_decay(self):
        bop = b_transform(make_operator("B0c1"))
        t = bop.ts[bop.ts > 2]
        v = np.abs(bop.potential[bop.ts > 2])
        slope = np.polyfit(t, np.log(v), 1)[0]
        assert slope == pytest.approx(-2.0, abs=1e-2)

    def test_small_truncation_rejected(self):
        with pytest.raises(ValueError):
            b_transform(make_operator("B0c1"), T=6.0)


class TestEigenvalues:
    def test_discrete_pair_via_conjugation(self):
        spec = eig_b(b_transform(make_operator("B0c1")), k=2)
        assert spec.eigenvalues[0] == pytest.approx(-2.0, abs=1e-3)
        assert spec.eigenvalues[1] == pytest.approx(0.0, abs=1e-3)
        assert spec.continuum_edge == 0.25
        assert spec.zero_counts == [0, 1]

    def test_spectral_gap(self):
        spec = eig_b(b_transform(make_operator("B0c1")), k=6)
        lam = np.asarray(spec.eigenvalues)
        assert not np.any((lam > -1.95) & (lam < -0.05))

    def test_moving_cases_ground_energy(self):
        assert eig_green("B14c1", k=1).eigenvalues[0] == pytest.approx(-2.0, abs=1e-3)
        assert eig_green("B14cm1", k=1).eigenvalues[0] == pytest.approx(2.0, abs=1e-3)

    def test_second_mode_positive(self):
        spec = eig_green("B14c1", k=2)
        assert spec.eigenvalues[1] > 0

    def test_simple_and_ordered_with_zero_counts(self):
        spec = eig_green("B14c1", k=5)
        lam = np.asarray(spec.eigenvalues)
        assert np.all(np.diff(lam) > 1e-2)
        assert spec.zero_counts == [0, 1, 2, 3, 4]

    def test_json_payload(self):
        spec = eig_green("B14cm1", k=1)
        payload = json.loads(spectrum_json("B14cm1", spec))
        assert payload["case"] == "B14cm1"
        assert payload["eigenvalues"][0] == pytest.approx(2.0, abs=1e-3)
        assert payload["zero_counts"] == [0]


def dense_green_spectrum(case, n, k):
    """Lowest k eigenpairs from the full dense eigensolve of the Nystrom matrix."""
    xr = make_operator(case, 31).profile.half_width
    x, w = spectral._graded_mesh(xr, n)
    sw = np.sqrt(w)
    if case == "B14c0":
        phi = np.sqrt(np.maximum(np.cos(SQRT2 * x), 1e-300))
        diff = x[:, None] - x[None, :]
        K1 = -np.where(diff > 0, np.sin(SQRT2 * diff) / SQRT2, 0.0) / np.outer(phi, phi)
        A = K1 * np.outer(sw, sw)
        u = phi * sw / np.linalg.norm(phi * sw)
        P = np.eye(n) - np.outer(u, u)
        S = P @ A @ P
    else:
        S = spectral._kernel_matrix(case, x, xr) * np.outer(sw, sw)
    mu, vecs = np.linalg.eigh(0.5 * (S + S.T))
    keep = np.abs(mu) > 1e-8 * np.max(np.abs(mu))
    lams = 1.0 / mu[keep]
    order = np.argsort(lams)[:k]
    return lams[order], (vecs[:, keep] / sw[:, None])[:, order]


class TestGreenEigensolver:
    @pytest.mark.parametrize("case", ["B14c1", "B14cm1", "B14c0"])
    def test_matches_dense_eigensolve(self, case):
        spec = eig_green(case, n=400, k=6)
        lams, funcs = dense_green_spectrum(case, 400, 6)
        assert np.max(np.abs(spec.eigenvalues - lams) / np.abs(lams)) < 1e-9
        for j in range(6):
            f, g = spec.eigenfunctions[:, j], funcs[:, j]
            sign = math.copysign(1.0, f @ g)
            assert np.max(np.abs(f - sign * g)) < 1e-9 * np.max(np.abs(g))

    @pytest.mark.parametrize("case", ["B14c1", "B14cm1"])
    @pytest.mark.parametrize("n", [2, 5, 24])
    def test_tridiagonal_inverse_of_the_kernel_matrix(self, case, n):
        xr = make_operator(case, 31).profile.half_width
        x, _ = spectral._graded_mesh(xr, n)
        K = spectral._kernel_matrix(case, x, xr)
        diag, off = spectral._kernel_inverse(case, x, xr)
        T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.max(np.abs(T @ K - np.eye(n))) < 1e-10

    def test_zero_speed_case(self):
        spec = eig_green("B14c0", k=4)
        assert np.all(spec.eigenvalues > 0)
        assert spec.zero_counts == [1, 2, 3, 4]

    @pytest.mark.parametrize("case,n,k", [
        ("B14c1", 200, 0), ("B14c1", 200, -1), ("B14c1", 200, 201),
        ("B14c0", 200, 200), ("B14cm1", 1, 1),
    ])
    def test_rejects_eigenpair_count(self, case, n, k):
        with pytest.raises(ValueError):
            eig_green(case, n=n, k=k)

    def test_largest_eigenpair_count(self):
        assert eig_green("B14c1", n=50, k=50).eigenvalues.size == 50
        assert eig_green("B14c0", n=50, k=49).eigenvalues.size == 49

    def test_conjugated_solver_rejects_eigenpair_count(self):
        bop = b_transform(make_operator("B0c1"), n=101)
        for k in (0, -1, 50):
            with pytest.raises(ValueError):
                eig_b(bop, k=k)
        assert eig_b(bop, k=49).eigenvalues.size == 49


class TestEndpointExponents:
    def test_translation_mode(self):
        assert frobenius_exponents(0.0) == (0, -1)

    def test_double_root_at_the_edge(self):
        a1, a2 = frobenius_exponents(0.25)
        assert a1 == a2 == pytest.approx(-0.5)

    def test_ground_mode(self):
        assert frobenius_exponents(-2.0) == (1, -2)

    def test_complex_above_the_edge(self):
        a1, _ = frobenius_exponents(1.0)
        assert isinstance(a1, complex) and a1.imag != 0


class TestZeroCountsAndEnergy:
    def test_count_zeros(self):
        x = np.linspace(0.05, 0.95, 201)
        assert count_zeros(np.sin(3 * math.pi * x)) == 2
        assert count_zeros(np.ones(100)) == 0

    def test_energy_of_translation_mode(self):
        op = make_operator("B0c1", 8193)
        w = op.profile.dphi[1:-1]
        assert abs(energy_form(op, w)) < 1e-6

    def test_energy_of_ground_mode(self):
        op = make_operator("B0c1", 8193)
        phi = op.profile.phi[1:-1]
        h = op.profile.xs[1] - op.profile.xs[0]
        m = float(np.sum(phi * phi) * h)
        assert energy_form(op, phi) == pytest.approx(-2 * m, rel=1e-6)

    def test_energy_of_zero(self):
        op = make_operator("B0c1", 257)
        assert energy_form(op, np.zeros(255)) == 0.0


class TestLinearizedEvolution:
    def test_zero_stays_zero(self):
        op = make_operator("B0c1", 257)
        traj = evolve_linearized(op, np.zeros(128), t_end=0.1, N=128)
        assert np.max(np.abs(traj.states)) == 0.0

    def test_energy_monotone_and_contraction(self):
        op = make_operator("B0c1", 257)
        rng = np.random.default_rng(3)
        v0 = constrain_initial("B0c1", rng.standard_normal(256))
        traj = evolve_linearized(op, v0, t_end=0.5, N=256)
        diffs = np.diff(traj.energy)
        assert np.all(diffs < 1e-10)
        assert math.sqrt(max(traj.energy[-1], 0)) <= math.sqrt(max(traj.energy[0], 0)) + 1e-12

    def test_constraint_drift(self):
        op = make_operator("B14c1", 257)
        rng = np.random.default_rng(4)
        v0 = constrain_initial("B14c1", rng.standard_normal(256))
        traj = evolve_linearized(op, v0, t_end=1.0, N=256)
        assert np.max(np.abs(traj.ortho_phi)) < 1e-8

    def test_unconstrained_data_rejected(self):
        op = make_operator("B0c1", 257)
        with pytest.raises(ValueError):
            evolve_linearized(op, np.ones(256), t_end=0.1, N=256)

    def test_trajectory_csv(self, tmp_path):
        op = make_operator("B0c1", 257)
        rng = np.random.default_rng(5)
        v0 = constrain_initial("B0c1", rng.standard_normal(128))
        traj = evolve_linearized(op, v0, t_end=0.05, N=128, record_every=10)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        header = path.read_text().split("\n", 1)[0]
        assert header == "t,energy_H,flux_upsilon,ortho_phi,ortho_phix"
