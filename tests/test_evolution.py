import json
import math

import numpy as np
import pytest

from compactons import evolution as ev
from compactons import functionals
from compactons.evolution import (
    DiagnosticsSeries,
    FieldState,
    IntegrationError,
    IntegratorConfig,
    PeriodicGrid,
    RegularizationConfig,
    diagnostics,
    dkdv_rhs,
    dnls_rhs,
    hydro_rhs,
    initial_condition,
    integrate,
    regularized_derivative,
    run_model,
    write_run_manifest,
    write_series_csv,
    write_snapshot_csv,
)

SQRT2 = math.sqrt(2.0)


def complex_rhs(fn):
    """Wrap a complex-field map as a packed real right-hand side."""

    def rhs(y):
        n = y.size // 2
        dv = fn(y[:n] + 1j * y[n:])
        return np.concatenate((dv.real, dv.imag))

    return rhs


class TestGrid:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            PeriodicGrid(10.0, 100)

    def test_layout(self):
        g = PeriodicGrid(8.0, 16)
        assert g.dx == 0.5
        assert g.xs[0] == -4.0
        assert g.xs[-1] == pytest.approx(4.0 - g.dx)


class TestRegularizedDerivative:
    def test_exact_when_unregularized(self):
        g = PeriodicGrid(2 * math.pi, 64)
        out = regularized_derivative(np.sin(3 * g.xs), g, 0.0)
        assert np.max(np.abs(out - 3 * np.cos(3 * g.xs))) < 1e-12

    def test_multiplier_attenuation(self):
        # at k = 10 and strength 1e-4 the response is k/(1 + 1e-4 k^4) = 5
        g = PeriodicGrid(2 * math.pi, 64)
        out = regularized_derivative(np.sin(10 * g.xs), g, 1e-4)
        assert np.max(np.abs(out - 5 * np.cos(10 * g.xs))) < 1e-12

    def test_constant(self):
        g = PeriodicGrid(5.0, 32)
        assert np.max(np.abs(regularized_derivative(np.ones(32), g, 1e-4))) < 1e-13

    def test_higher_order(self):
        g = PeriodicGrid(2 * math.pi, 64)
        out = regularized_derivative(np.sin(2 * g.xs), g, 0.0, order=3)
        assert np.max(np.abs(out + 8 * np.cos(2 * g.xs))) < 1e-10


def trig_field(grid, a=0.8, b=0.35, k=None):
    """Trig polynomial with closed-form derivatives of every order."""
    if k is None:
        k = 2 * 2 * math.pi / grid.length  # second harmonic, exactly on-grid
    x = grid.xs
    u = a + b * np.sin(k * x)
    d1 = b * k * np.cos(k * x)
    d2 = -b * k * k * np.sin(k * x)
    d3 = -b * k**3 * np.cos(k * x)
    return u, d1, d2, d3


class TestConservativeThirdOrderRhs:
    def test_constant_field(self):
        g = PeriodicGrid(20.0, 64)
        assert np.max(np.abs(dkdv_rhs(0.7 * np.ones(64), g, nu=1e-4))) < 1e-12

    def test_analytic_oracle(self):
        # product/chain rule expansion of -(u(u'^2 + u u'') + u^3)' for a
        # trig polynomial; independent of any discrete differentiation
        g = PeriodicGrid(4 * math.pi, 256)
        u, d1, d2, d3 = trig_field(g)
        gg = d1**2 + u * d2
        exact = -(d1 * gg + u * (3 * d1 * d2 + u * d3) + 3 * u**2 * d1)
        out = dkdv_rhs(u, g, nu=0.0)
        assert np.max(np.abs(out - exact)) < 1e-6

    def test_traveling_wave_relation(self):
        # for the exact profile the flux reduces to c*u, so the rhs is -c*u_x;
        # the low-pass multiplier keeps the support-corner ringing local, so
        # the comparison is made away from the two corners
        g = PeriodicGrid(40.0, 4096)
        state = initial_condition("compacton", g)
        u = state.data
        out = dkdv_rhs(u, g, nu=1e-4)
        ux = regularized_derivative(u, g, 1e-4)
        interior = np.abs(np.abs(g.xs) - math.pi / SQRT2) > 0.2
        assert np.max(np.abs(out + ux)[interior]) < 1e-3

    def test_mass_neutral_correction_inactive_when_exact(self):
        g = PeriodicGrid(4 * math.pi, 256)
        u, *_ = trig_field(g)
        with_fix = dkdv_rhs(u, g, nu=0.0, conserve_mass=True)
        without = dkdv_rhs(u, g, nu=0.0, conserve_mass=False)
        assert np.max(np.abs(with_fix - without)) < 1e-10

    def test_correction_removes_quadratic_drift(self):
        g = PeriodicGrid(40.0, 1024)
        state = initial_condition("compacton", g)
        out = dkdv_rhs(state.data, g, nu=1e-4)
        drift = np.dot(state.data, out) * g.dx
        assert abs(drift) < 1e-12


class TestSchroedingerTypeRhs:
    def test_zero(self):
        g = PeriodicGrid(SQRT2 * math.pi, 64)
        assert np.max(np.abs(dnls_rhs(np.zeros(64, complex), g))) == 0.0

    def test_plane_wave_oracle(self):
        g = PeriodicGrid(2 * math.pi, 1024)
        a, k = 0.7, 3
        v = a * np.exp(1j * k * g.xs)
        out = dnls_rhs(v, g)
        exact = 1j * a**3 * (1 - 2 * k * k) * np.exp(1j * k * g.xs)
        assert np.max(np.abs(out - exact)) < 5e-3 * np.max(np.abs(exact))

    def test_stationary_profile_rotates(self):
        g = PeriodicGrid(SQRT2 * math.pi, 1024)
        state = initial_condition("periodic", g, B=-0.2, c=1.0)
        out = dnls_rhs(state.data, g)
        assert np.max(np.abs(out - 1j * state.data)) < 1e-4


class TestHydroRhs:
    def test_constants(self):
        g = PeriodicGrid(10.0, 64)
        drho, du = hydro_rhs(np.ones(64), 2 * np.ones(64), g, nu=1e-4)
        assert np.max(np.abs(drho)) < 1e-12
        assert np.max(np.abs(du)) < 1e-12

    def test_cosine_equilibrium(self):
        # rho''' + 2 rho' = 0 for the sqrt(2)-wavenumber cosine
        g = PeriodicGrid(4 * SQRT2 * math.pi, 256)
        rho = 1 + 0.5 * np.cos(SQRT2 * g.xs)
        drho, du = hydro_rhs(rho, np.zeros(256), g, nu=0.0)
        assert np.max(np.abs(drho)) < 1e-12
        assert np.max(np.abs(du)) < 1e-10

    def test_continuity_is_transport_for_constant_velocity(self):
        g = PeriodicGrid(40.0, 512)
        rho = np.exp(-(g.xs**2) / 4)
        drho, _ = hydro_rhs(rho, np.ones(512), g, nu=0.0)
        rho_x = regularized_derivative(rho, g, 0.0)
        assert np.max(np.abs(drho + rho_x)) < 1e-10


# ---------------------------------------------------------------------------
# the earlier route, kept as an oracle: a complex FFT pair per derivative and
# the multiplier (i k / (1 + nu k^4))^order rebuilt on every call


def oracle_derivative(v, grid, nu, order=1):
    vhat = np.fft.fft(v)
    mult = (1j * grid.k / (1.0 + nu * grid.k**4)) ** order
    out = np.fft.ifft(mult * vhat)
    if np.isrealobj(v):
        return out.real
    return out


def oracle_dkdv(u, grid, p=4.0, nu=1e-4, conserve_mass=True):
    def D(w, s):
        return oracle_derivative(w, grid, s)

    flux = u * D(u * D(u, 0.0), 0.0) + np.sign(u) * np.abs(u) ** (p - 1)
    if conserve_mass:
        du = D(u, nu)
        r = D(u * u, 0.0)
        denom = float(np.dot(du, r))
        if abs(denom) > 1e-300:
            flux = flux - (np.dot(du, flux) / denom) * r
    return -D(flux, nu)


def oracle_hydro(rho, u, grid, nu=1e-4):
    def D(w, order=1):
        return oracle_derivative(w, grid, nu, order)

    return -D(rho * u), -3 * u * D(u) + rho * (D(rho, 3) + 2 * D(rho))


def smooth_random_field(n, seed):
    """Real field with random Fourier coefficients under a Gaussian envelope (peak 1)."""
    rng = np.random.default_rng(seed)
    j = np.arange(n // 2 + 1)
    coef = rng.standard_normal(j.size) + 1j * rng.standard_normal(j.size)
    u = np.fft.irfft(coef * np.exp(-((12 * j / n) ** 2)), n)
    return u / np.max(np.abs(u))


def assert_matches_oracle(new, oracle, fields):
    """new(*fields) agrees with oracle(*fields) within 1e-12 of the oracle's peak.

    Where a derivative amplifies rounding (order 3, or nu = 0 on a fine grid)
    the oracle itself is only as exact as its rounding; there the bound is
    four times the oracle's spread under circular shifts of the grid, which
    change nothing but the rounding.
    """
    def flat(out, shift=0):
        parts = out if isinstance(out, tuple) else (out,)
        return np.concatenate([np.roll(a, -shift) for a in parts])

    ref = flat(oracle(*fields))
    spread = 0.0
    for s in (1, fields[0].size // 3):
        moved = flat(oracle(*(np.roll(f, s) for f in fields)), s)
        spread = max(spread, np.max(np.abs(moved - ref)))
    err = np.max(np.abs(flat(new(*fields)) - ref))
    assert err <= max(1e-12 * np.max(np.abs(ref)), 4 * spread)


ORACLE_GRIDS = [(16, 8.0), (256, 40.0), (2048, 40.0)]


def oracle_fields(n, length):
    grid = PeriodicGrid(length, n)
    return grid, {
        "compacton": initial_condition("compacton", grid).data,
        "smooth": smooth_random_field(n, n),
    }


class TestRealFftRouteMatchesOracle:
    @pytest.mark.parametrize("n,length", ORACLE_GRIDS)
    @pytest.mark.parametrize("nu", [0.0, 1e-4])
    @pytest.mark.parametrize("conserve_mass", [True, False])
    def test_dkdv_rhs(self, n, length, nu, conserve_mass):
        grid, fields = oracle_fields(n, length)
        for u in fields.values():
            assert_matches_oracle(
                lambda w: dkdv_rhs(w, grid, 4.0, nu, conserve_mass),
                lambda w: oracle_dkdv(w, grid, 4.0, nu, conserve_mass),
                (u,),
            )

    @pytest.mark.parametrize("n,length", ORACLE_GRIDS)
    @pytest.mark.parametrize("nu", [0.0, 1e-4])
    @pytest.mark.parametrize("order", [1, 3])
    def test_regularized_derivative(self, n, length, nu, order):
        grid, fields = oracle_fields(n, length)
        wave = np.exp(2j * np.pi * grid.xs / length)
        for u in fields.values():
            for v in (u, u * wave):
                out = regularized_derivative(v, grid, nu, order)
                assert out.dtype == v.dtype
                assert_matches_oracle(
                    lambda w: regularized_derivative(w, grid, nu, order),
                    lambda w: oracle_derivative(w, grid, nu, order),
                    (v,),
                )

    @pytest.mark.parametrize("n,length", ORACLE_GRIDS)
    @pytest.mark.parametrize("nu", [0.0, 1e-4])
    def test_hydro_rhs(self, n, length, nu):
        grid, fields = oracle_fields(n, length)
        rho = 1.2 + fields["smooth"]
        u = np.roll(fields["smooth"], n // 4)
        assert_matches_oracle(
            lambda r, w: hydro_rhs(r, w, grid, nu),
            lambda r, w: oracle_hydro(r, w, grid, nu),
            (rho, u),
        )

    @pytest.mark.parametrize("nu", [0.0, 1e-4])
    def test_hydro_rhs_on_acceptance_states(self, nu):
        # the two initial states of the hydrodynamic acceptance criterion
        grid = PeriodicGrid(4 * SQRT2 * math.pi, 256)
        rho = 1 + math.sqrt(0.2) * np.cos(SQRT2 * grid.xs)
        states = [(grid, rho, np.zeros(grid.n))]
        grid = PeriodicGrid(40.0, 1024)
        states.append((grid, *initial_condition("gaussian", grid).data))
        for g, rho, u in states:
            assert_matches_oracle(
                lambda r, w: hydro_rhs(r, w, g, nu),
                lambda r, w: oracle_hydro(r, w, g, nu),
                (rho, u),
            )

    def test_multiplier_built_once_per_grid_and_strength(self, monkeypatch):
        seen = {}
        orig = PeriodicGrid._multiplier

        def spy(self, nu):
            out = orig(self, nu)
            seen.setdefault((id(self), nu), []).append(out)
            return out

        monkeypatch.setattr(PeriodicGrid, "_multiplier", spy)
        grid = PeriodicGrid(40.0, 256)
        run_model(initial_condition("compacton", grid), 0.02, n_samples=2)
        assert sorted(nu for _, nu in seen) == [0.0, 1e-4]
        for arrays in seen.values():
            assert len(arrays) > 100
            assert all(a is arrays[0] for a in arrays)


class TestIntegrate:
    def test_linear_rotation_accuracy(self):
        g = PeriodicGrid(2 * math.pi, 8)
        v0 = np.exp(1j * g.xs)
        state = FieldState("complex", g, v0)
        rhs = complex_rhs(lambda v: 1j * v)
        rtol = 1e-6
        _, states = integrate(rhs, state, 1.0, IntegratorConfig(rtol=rtol, atol=1e-12))
        err = np.max(np.abs(states[-1].data - v0 * np.exp(1j))) / np.max(np.abs(v0))
        assert err < rtol * 10

    def test_halving_rtol_reduces_error(self):
        g = PeriodicGrid(2 * math.pi, 8)
        v0 = np.exp(1j * g.xs)
        state = FieldState("complex", g, v0)
        rhs = complex_rhs(lambda v: 1j * v)
        errs = []
        for rtol in (1e-6, 5e-7):
            _, states = integrate(rhs, state, 1.0, IntegratorConfig(rtol=rtol, atol=1e-12))
            errs.append(np.max(np.abs(states[-1].data - v0 * np.exp(1j))))
        assert errs[0] / errs[1] >= 1.5

    def test_zero_stays_zero(self):
        g = PeriodicGrid(10.0, 32)
        state = FieldState("real", g, np.zeros(32))
        _, states = integrate(lambda y: np.zeros_like(y), state, 1.0, IntegratorConfig())
        assert np.max(np.abs(states[-1].data)) == 0.0

    def test_dense_output_between_steps(self):
        g = PeriodicGrid(2 * math.pi, 8)
        v0 = np.exp(1j * g.xs)
        state = FieldState("complex", g, v0)
        rhs = complex_rhs(lambda v: 1j * v)
        t_eval = np.linspace(0, 1, 11)
        ts, states = integrate(rhs, state, 1.0, IntegratorConfig(), t_eval)
        assert np.allclose(ts, t_eval)
        for t, st in zip(ts, states):
            assert np.max(np.abs(st.data - v0 * np.exp(1j * t))) < 1e-4

    def test_nonfinite_rhs_reported(self):
        g = PeriodicGrid(10.0, 32)
        state = FieldState("real", g, np.ones(32))
        with pytest.raises(IntegrationError):
            integrate(lambda y: np.full_like(y, np.nan), state, 1.0, IntegratorConfig())

    def test_backward_time_rejected(self):
        state = FieldState("real", PeriodicGrid(2 * math.pi, 16), np.ones(16), 1.0)
        with pytest.raises(ValueError):
            integrate(lambda y: -y, state, 0.5)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_nonfinite_end_time_rejected(self, t_end):
        state = FieldState("real", PeriodicGrid(2 * math.pi, 16), np.ones(16))
        with pytest.raises(ValueError):
            integrate(lambda y: -y, state, t_end)
        with pytest.raises(ValueError):
            run_model(initial_condition("gaussian", PeriodicGrid(40.0, 64)), t_end)

    @pytest.mark.parametrize("name", ["rtol", "atol", "initial_step", "max_step"])
    @pytest.mark.parametrize("value", [0.0, -0.1, math.inf, math.nan])
    def test_config_values_must_be_positive_and_finite(self, name, value):
        with pytest.raises(ValueError):
            IntegratorConfig(**{name: value})


class TestInitialConditions:
    def test_compacton_peak(self):
        g = PeriodicGrid(40.0, 1024)
        state = initial_condition("compacton", g)
        assert state.data.max() == pytest.approx(SQRT2, rel=1e-6)

    def test_perturbation_vanishes_at_center(self):
        g = PeriodicGrid(40.0, 2048)
        base = initial_condition("compacton", g, x0=-5.0)
        pert = initial_condition("perturbed", g, x0=-5.0)
        i0 = int(np.argmin(np.abs(g.xs + 5.0)))
        assert pert.data[i0] == pytest.approx(base.data[i0], abs=1e-6)
        assert np.max(np.abs(pert.data - base.data)) > 1e-3

    def test_periodic_minimum_modulus(self):
        g = PeriodicGrid(SQRT2 * math.pi, 512)
        state = initial_condition("periodic", g, B=-0.2, c=1.0)
        assert np.min(np.abs(state.data)) == pytest.approx(
            math.sqrt(1 - math.sqrt(0.2)), rel=1e-9
        )

    def test_box_must_hold_whole_periods(self):
        g = PeriodicGrid(5.0, 512)
        with pytest.raises(ValueError):
            initial_condition("periodic", g, B=-0.2, c=1.0)

    def test_support_must_fit(self):
        g = PeriodicGrid(4.0, 64)
        with pytest.raises(ValueError):
            initial_condition("compacton", g)

    def test_gaussian_pair(self):
        g = PeriodicGrid(40.0, 256)
        state = initial_condition("gaussian", g)
        rho, u = state.data
        assert rho.max() == pytest.approx(1.0, rel=1e-10)
        assert np.all(u == 1.0)


class TestDiagnostics:
    def test_zero_state(self):
        g = PeriodicGrid(10.0, 64)
        M, H, P = diagnostics(FieldState("real", g, np.zeros(64)))
        assert (M, H, P) == (0.0, 0.0, 0.0)

    def test_compacton_matches_profile_quadrature(self):
        g = PeriodicGrid(40.0, 4096)
        state = initial_condition("compacton", g)
        M, H, P = diagnostics(state)
        assert M == pytest.approx(SQRT2 * math.pi, rel=1e-6)
        assert H == pytest.approx(-SQRT2 * math.pi / 4, rel=1e-4)
        assert P == pytest.approx(4.0, rel=1e-5)

    def test_hydro_mass(self):
        g = PeriodicGrid(40.0, 512)
        state = initial_condition("gaussian", g)
        M, H, K = diagnostics(state)
        assert M == pytest.approx(2 * math.sqrt(math.pi), rel=1e-8)
        assert np.isfinite(H) and np.isfinite(K)


class TestRunModelAndArtifacts:
    def test_series_and_files(self, tmp_path):
        g = PeriodicGrid(40.0, 512)
        state = initial_condition("gaussian", g)
        cfg = IntegratorConfig(rtol=1e-5, atol=1e-8)
        times, states, series = run_model(
            state, 0.2, 4.0, RegularizationConfig(1e-4), cfg, n_samples=5
        )
        assert len(series.times) == 5
        assert np.all(np.isfinite(series.mass))

        spath = tmp_path / "series.csv"
        write_series_csv(series, spath)
        lines = spath.read_text().strip().split("\n")
        assert lines[0] == "t,mass,hamiltonian,momentum"
        assert len(lines) == 6
        # round-trip decimal formatting
        assert float(lines[1].split(",")[1]) == series.mass[0]

        snap = tmp_path / "snap.csv"
        write_snapshot_csv(states[-1], snap)
        assert snap.read_text().split("\n", 1)[0] == "x,rho,u"

        man = tmp_path / "run.json"
        write_run_manifest(man, "hydro", g, RegularizationConfig(1e-4), cfg, 1.0, states[-1])
        payload = json.loads(man.read_text())
        assert payload["grid"] == {"L": 40.0, "n": 512}
        assert payload["nu"] == 1e-4
        assert payload["final_time"] == pytest.approx(0.2)

    def test_complex_snapshot_header(self, tmp_path):
        g = PeriodicGrid(SQRT2 * math.pi, 64)
        state = initial_condition("periodic", g, B=-0.2, c=1.0)
        path = tmp_path / "c.csv"
        write_snapshot_csv(state, path)
        assert path.read_text().split("\n", 1)[0] == "x,re,im"

    @pytest.mark.parametrize("n_samples", [1, 0])
    def test_needs_two_samples(self, n_samples):
        state = initial_condition("gaussian", PeriodicGrid(40.0, 64))
        with pytest.raises(ValueError):
            run_model(state, 0.1, n_samples=n_samples)

    def test_regularization_validation(self):
        with pytest.raises(ValueError):
            RegularizationConfig(-1e-4)
