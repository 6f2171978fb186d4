import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal, lu_factor, lu_solve

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
        for q in (kern.qa, kern.qb):
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

    @pytest.mark.parametrize("case", ["B14c1", "B14cm1"])
    def test_kernel_norm_matches_dense_row_sums(self, case):
        levels = (1, 2, 24, 256)
        xr = spectral._geometry(case)[2]
        dense = []
        for n in levels:
            x = np.linspace(-xr, xr, n + 2)[1:-1]
            K = spectral._kernel_matrix(case, x, xr)
            dense.append(np.max(np.sum(K * K, axis=1)) * 2 * xr / (n + 1))
        assert hs_norm_bound(case, levels) == pytest.approx(dense, rel=1e-12)


def profile_interior(case, m):
    """phi and h of the m interior points read off a built compacton (the former route)."""
    prof = make_operator(case, m + 2).profile
    return prof.phi[1:-1], prof.xs[1] - prof.xs[0]


class TestClosedFormInteriorGrid:
    @pytest.mark.parametrize("m", [255, 2047])
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_phi_and_spacing_match_the_profile(self, case, m):
        phi, h = spectral._interior(case, m)
        phi_ref, h_ref = profile_interior(case, m)
        assert np.max(np.abs(phi - phi_ref) / phi_ref) < 1e-12
        assert abs(h - h_ref) < 1e-13 * h_ref

    @pytest.mark.parametrize("m", [255, 2047])
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_green_apply_matches_the_profile_route(self, case, m, monkeypatch):
        xr = spectral._geometry(case)[2]
        x = np.linspace(-xr, xr, m + 2)[1:-1]
        f = smooth_bump(x, xr, 0.1 * xr, 0.3) + 0.2 * smooth_bump(x, xr, -0.2 * xr, 0.25)

        def solve():
            g = spectral.green_orthogonalize(case, f)
            return g, green_apply(case, g)

        g, w = solve()
        monkeypatch.setattr(spectral, "_interior", profile_interior)
        g_ref, w_ref = solve()
        assert np.max(np.abs(g - g_ref)) < 1e-10 * np.max(np.abs(g_ref))
        assert np.max(np.abs(w - w_ref)) < 1e-10 * np.max(np.abs(w_ref))

    def test_green_apply_builds_no_profile(self, monkeypatch):
        calls = []
        monkeypatch.setattr(spectral, "build_compacton", lambda *a, **k: calls.append(a))
        f = spectral.green_orthogonalize("B14c0", np.ones(255))
        green_apply("B14c0", f)
        assert calls == []


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
        assert np.max(np.abs(bop.potential + 1 / np.cosh(bop.ts) ** 2)) < 1e-13

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
        sizes = [(400, 6), (1600, 5)] if case == "B14c0" else [(400, 6)]
        for n, k in sizes:
            spec = eig_green(case, n=n, k=k)
            lams, funcs = dense_green_spectrum(case, n, k)
            assert np.max(np.abs(spec.eigenvalues - lams) / np.abs(lams)) < 1e-9
            for j in range(k):
                f, g = spec.eigenfunctions[:, j], funcs[:, j]
                sign = math.copysign(1.0, f @ g)
                assert np.max(np.abs(f - sign * g)) < 1e-9 * np.max(np.abs(g))
            assert spec.zero_counts == [count_zeros(funcs[:, j]) for j in range(k)]

    @pytest.mark.parametrize("n", [24, 400, 1600])
    def test_zero_speed_tridiagonal_annihilates_phi(self, n):
        xr = spectral._geometry("B14c0")[2]
        x, _ = spectral._graded_mesh(xr, n)
        diag, off = spectral._kernel_inverse("B14c0", x, xr)
        phi = spectral._phi("B14c0", x)
        T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.max(np.abs(T @ phi)) < 1e-13 * np.max(np.abs(diag * phi))

    def test_zero_speed_case_builds_no_dense_matrix(self):
        n = 1600
        eig_green("B14c0", n=50, k=5)
        tracemalloc.start()
        try:
            eig_green("B14c0", n=n, k=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4

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

    @pytest.mark.parametrize("case", ALL_CASES)
    @pytest.mark.parametrize("N", [128, 512])
    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("record_every", [1, 7])
    def test_matches_the_dense_oracle(self, case, N, forced, record_every):
        rng = np.random.default_rng(N + record_every)
        op = make_operator(case, N + 1)
        v0 = constrain_initial(case, rng.standard_normal(N))
        f = rng.standard_normal(N) if forced else None
        kw = dict(f=f, t_end=0.25, N=N, record_every=record_every)
        got, ref = evolve_linearized(op, v0, **kw), dense_evolve_linearized(op, v0, **kw)
        assert np.array_equal(got.times, ref.times)
        assert np.array_equal(got.xs, ref.xs)
        for name in ("states", "flux"):
            a, b = getattr(got, name), getattr(ref, name)
            assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b)), name
        assert np.max(np.abs(got.energy - ref.energy) / np.abs(ref.energy)) < 1e-12
        for name in ("ortho_phi", "ortho_phix"):
            assert np.max(np.abs(getattr(got, name) - getattr(ref, name))) < 1e-10, name

    def test_builds_no_dense_matrix(self):
        N = 1024
        op = make_operator("B14cm1", 257)
        v0 = constrain_initial("B14cm1", np.random.default_rng(6).standard_normal(N))
        evolve_linearized(op, v0, t_end=0.01, N=N, record_every=10**6)
        tracemalloc.start()
        try:
            evolve_linearized(op, v0, t_end=0.01, N=N, record_every=10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < N * N * 8 / 4


def dense_evolve_linearized(op, v0, f=None, t_end=1.0, N=512, dt=None, record_every=1):
    """`evolve_linearized` with dense N x N matrices: P (D1 L) and one dense LU factorization."""
    x, h, diag, off, xr = spectral._cell_operator(op.case_tag, N)
    if dt is None:
        dt = 1e-3 * 2 * xr
    cons = spectral._constraint_vectors(op.case_tag, diag, off).T
    L = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    v0 = np.asarray(v0, dtype=float)
    for e in cons:
        v0 = v0 - (v0 @ e) * e
    D1 = (np.diag(np.ones(N - 1), 1) - np.diag(np.ones(N - 1), -1)) / (2 * h)
    D1[0, 0] = D1[-1, -1] = -1.0 / (2 * h)
    P = np.eye(N)
    for e in cons:
        P -= np.outer(e, e)
    A = P @ (D1 @ L)
    src = np.zeros(N) if f is None else P @ np.asarray(f, dtype=float)
    steps = max(1, int(round(t_end / dt)))
    dt = t_end / steps
    lu = lu_factor(np.eye(N) - 0.5 * dt * A)
    rhs_m = np.eye(N) + 0.5 * dt * A
    times, states = [0.0], [v0]
    v = v0
    for istep in range(steps):
        v = lu_solve(lu, rhs_m @ v + dt * src)
        if (istep + 1) % record_every == 0 or istep == steps - 1:
            times.append((istep + 1) * dt)
            states.append(v)
    states = np.array(states)
    w = states @ L
    ortho = [h * states @ e for e in cons] + [np.zeros(len(times))]
    return spectral.LinearizedTrajectory(
        times=np.array(times),
        states=states,
        energy=np.array([h * float(s @ r) for s, r in zip(states, w)]),
        flux=w[:, 0],
        ortho_phi=ortho[0],
        ortho_phix=ortho[1],
        xs=x,
    )


def eigensolver_null_mode(case, m):
    """Unit null mode of the Dirichlet matrix D2 + 2I from a windowed tridiagonal eigensolve."""
    op = make_operator(case, m + 2)
    h = op.profile.xs[1] - op.profile.xs[0]
    main = np.full(m, -2.0 / (h * h) + 2.0)
    off = np.full(m - 1, 1.0 / (h * h))
    vals, vecs = eigh_tridiagonal(main, off, select="v", select_range=(-0.5, 0.5))
    null = vecs[:, int(np.argmin(np.abs(vals)))]
    return null / np.linalg.norm(null), h


def dense_constraint_vectors(case, N):
    """Eigenvectors of the dense cell matrix of L nearest the eigenvalues -2c (and 0 for B0c1)."""
    B, c = CASE_PARAMS[case]
    xr = make_operator(case, 31).profile.half_width
    h = 2 * xr / N
    x = -xr + (np.arange(N) + 0.5) * h
    phi = np.sqrt(np.maximum(c + math.sqrt(4 * B + c * c) * np.cos(SQRT2 * x), 0.0))
    main = np.full(N, -3.0)
    main[1:-1] = -2.0
    D2 = (np.diag(main) + np.diag(np.ones(N - 1), 1) + np.diag(np.ones(N - 1), -1)) / (h * h)
    L = -(phi[:, None] * (D2 + 2 * np.eye(N)) * phi[None, :])
    vals, vecs = np.linalg.eigh(0.5 * (L + L.T))
    targets = [-2.0 * c] + ([0.0] if case == "B0c1" else [])
    out, used = [], set()
    for t in targets:
        j = next(int(i) for i in np.argsort(np.abs(vals - t)) if int(i) not in used)
        used.add(j)
        out.append(vecs[:, j])
    return out


def integrated_coordinate_change(T, n):
    """x(t) from a DOP853 integration of dx/dt = -phi(x), x(0) = 0, mirrored to t < 0."""

    def phi(x):
        return SQRT2 * math.cos(x / SQRT2) if abs(x) < math.pi / SQRT2 else 0.0

    ts = np.linspace(-T, T, n)
    sol = solve_ivp(
        lambda t, xv: [-phi(xv[0])], (0.0, T), [0.0],
        t_eval=ts[ts >= 0], rtol=1e-12, atol=1e-14, method="DOP853",
    )
    x_half = sol.y[0]
    return np.concatenate((-x_half[1:][::-1], x_half))


def assert_equal_up_to_sign(a, b, tol):
    sign = math.copysign(1.0, a @ b)
    assert np.max(np.abs(a - sign * b)) < tol


class TestClosedForms:
    @pytest.mark.parametrize("case", ["B0c1", "B14c0"])
    @pytest.mark.parametrize("m", [255, 2047])
    def test_null_mode_matches_the_eigensolver(self, case, m):
        ref, h = eigensolver_null_mode(case, m)
        assert_equal_up_to_sign(spectral._dirichlet_null_mode(m, h), ref, 1e-11)

    @pytest.mark.parametrize("case", ALL_CASES)
    @pytest.mark.parametrize("N", [64, 256, 512])
    def test_constraint_modes_match_the_dense_eigensolve(self, case, N):
        _, _, diag, off, _ = spectral._cell_operator(case, N)
        got = spectral._constraint_vectors(case, diag, off).T
        ref = dense_constraint_vectors(case, N)
        assert len(got) == len(ref)
        for e, r in zip(got, ref):
            assert_equal_up_to_sign(e, r, 1e-11)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_half_width_matches_the_profile(self, case):
        xr = spectral._geometry(case)[2]
        assert xr == pytest.approx(make_operator(case).profile.half_width, rel=1e-15, abs=0)

    def test_coordinate_change_matches_integration(self):
        bop = b_transform(make_operator("B0c1"))
        ref = integrated_coordinate_change(bop.truncation, bop.ts.size)
        assert np.max(np.abs(bop.x_of_t - ref)) < 1e-10


def resting_operator():
    return make_operator("B0c1", 257)


GUARDED_CALLS = [
    pytest.param(lambda: make_operator("B1c1"), id="make_operator-unknown-case"),
    pytest.param(lambda: green_apply("B1c1", np.ones(10)), id="green_apply-unknown-case"),
    pytest.param(lambda: b_transform(make_operator("B14c1", 257)), id="b_transform-moving-case"),
    pytest.param(lambda: b_transform(resting_operator(), n=4096), id="b_transform-even-n"),
    pytest.param(lambda: hs_norm_bound("B0c1"), id="hs_norm_bound-B0c1"),
    pytest.param(lambda: hs_norm_bound("B14c0"), id="hs_norm_bound-B14c0"),
    pytest.param(lambda: eig_green("B0c1"), id="eig_green-B0c1"),
    pytest.param(lambda: apply_L(resting_operator(), np.zeros(254)), id="apply_L-sample-count"),
    pytest.param(
        lambda: evolve_linearized(resting_operator(), np.zeros(100), N=128),
        id="evolve_linearized-sample-count",
    ),
    pytest.param(
        lambda: evolve_linearized(resting_operator(), np.zeros(128), t_end=-1.0, N=128),
        id="evolve_linearized-negative-time",
    ),
    pytest.param(
        lambda: evolve_linearized(resting_operator(), np.zeros(128), N=128, record_every=0),
        id="evolve_linearized-record-every",
    ),
    *[
        pytest.param(
            lambda t_end=t_end: evolve_linearized(resting_operator(), np.zeros(128), t_end=t_end, N=128),
            id=f"evolve_linearized-{name}-time",
        )
        for name, t_end in (("infinite", math.inf), ("nan", math.nan))
    ],
    *[
        pytest.param(
            lambda dt=dt: evolve_linearized(resting_operator(), np.zeros(128), t_end=0.1, N=128, dt=dt),
            id=f"evolve_linearized-{name}-dt",
        )
        for name, dt in (("zero", 0.0), ("negative", -0.01), ("infinite", math.inf), ("nan", math.nan))
    ],
    pytest.param(lambda: green_apply("B14c0", np.ones(255)), id="green_apply-B14c0-solvability"),
    pytest.param(lambda: green_apply("B14c1", np.ones(0)), id="green_apply-no-samples"),
    pytest.param(
        lambda: spectral.green_orthogonalize("B0c1", np.ones(0)), id="green_orthogonalize-empty"
    ),
]


class TestInputGuards:
    @pytest.mark.parametrize("call", GUARDED_CALLS)
    def test_rejected(self, call):
        with pytest.raises(ValueError):
            call()

    def test_zero_time_is_valid(self):
        traj = evolve_linearized(resting_operator(), np.zeros(128), t_end=0.0, N=128)
        assert np.all(traj.times == 0.0)
