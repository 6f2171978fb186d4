import json
import math
import re

import numpy as np
import pytest

from compactons.profiles import (
    CompactonProfile,
    ModelParams,
    MultiCompacton,
    ProfileError,
    assemble_multi,
    build_compacton,
    build_compacton_general,
    build_nls_compacton,
    build_periodic,
    classify,
    compacton_integrals,
    edge_expansion,
    first_integral,
    nls_phase,
    scale_params,
    stationary_point,
    support_half_width,
    weak_residual,
    write_nls_profile_csv,
    write_profile_csv,
)

SQRT2 = math.sqrt(2.0)


def interior_residual(prof: CompactonProfile) -> float:
    """max |(phi')^2 - F(phi)| over interior samples."""
    inner = slice(1, -1)
    F = first_integral(prof.phi[inner], prof.params)
    return float(np.max(np.abs(prof.dphi[inner] ** 2 - F)))


class TestFirstIntegral:
    def test_direct_substitution(self):
        assert first_integral(1.0, ModelParams(4, 0, 0, 1)) == pytest.approx(0.5)

    def test_turning_point(self):
        assert first_integral(SQRT2, ModelParams(4, 0, 0, 1)) == pytest.approx(0.0, abs=1e-14)

    def test_blow_up_toward_zero(self):
        params = ModelParams(4, 0, 0.25, 1)
        vals = first_integral(np.geomspace(1e-1, 1e-6, 12), params)
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] > 1e10

    def test_zero_rejected_with_singular_terms(self):
        with pytest.raises(ZeroDivisionError):
            first_integral(0.0, ModelParams(4, 0, 0.25, 1))

    def test_zero_allowed_when_regular(self):
        assert first_integral(0.0, ModelParams(4, 0, 0, 1)) == pytest.approx(1.0)


class TestStationaryPoint:
    def test_unit_root(self):
        assert stationary_point(0.0, 1.0, 4.0) == pytest.approx(1.0, abs=1e-12)

    def test_pure_constant(self):
        assert stationary_point(1.0, 0.0, 4.0) == pytest.approx(1.0, abs=1e-12)

    def test_absent(self):
        assert stationary_point(0.0, -1.0, 4.0) is None


class TestClassify:
    def test_periodic(self):
        assert classify(ModelParams(4, 0, -0.2, 1)).tag == "Periodic"

    def test_compacton_with_singular_edge(self):
        cls = classify(ModelParams(4, 0, 0.25, 1))
        assert cls.tag == "Compacton"
        assert cls.edge_case == "A_zero_B_pos"

    def test_compacton_with_linear_edge(self):
        cls = classify(ModelParams(4, 0, 0, 1))
        assert cls.tag == "Compacton"
        assert cls.edge_case == "A_B_zero_c_pos"

    def test_rejects_low_exponent(self):
        with pytest.raises(ProfileError):
            classify(ModelParams(2, 0, 0.5, 0))

    def test_rejects_empty_orbit(self):
        with pytest.raises(ProfileError):
            classify(ModelParams(4, 0, 0, -1))


class TestHalfWidth:
    def test_cosine_case(self):
        assert support_half_width(ModelParams(4, 0, 0, 1)) == pytest.approx(
            math.pi / SQRT2, abs=1e-14
        )

    def test_zero_speed_case(self):
        assert support_half_width(ModelParams(4, 0, 0.25, 0)) == pytest.approx(
            math.pi / (2 * SQRT2), abs=1e-14
        )

    def test_parabolic_branch(self):
        assert support_half_width(ModelParams(2, 0, 0.5, 0)) == pytest.approx(1.0, abs=1e-14)

    def test_quadrature_matches_closed_form(self):
        # the general-p integral evaluated at p = 4 values must agree
        params = ModelParams(4, 0, 0.25, 1)
        xr_quad = compacton_integrals(params, panels=128)[0]
        assert xr_quad == pytest.approx(support_half_width(params), abs=1e-10)


class TestBuildCompacton:
    def test_peak_values(self):
        assert build_compacton(ModelParams(4, 0, 0, 1), 257).phi.max() == pytest.approx(SQRT2)
        assert build_compacton(ModelParams(4, 0, 0.25, 1), 257).phi.max() == pytest.approx(
            math.sqrt(1 + SQRT2)
        )

    def test_quadrature_branch_residual(self):
        prof = build_compacton(ModelParams(3, 0, 0.25, 1), 4096)
        assert interior_residual(prof) < 1e-8

    def test_evenness(self):
        for params in (ModelParams(4, 0, 0, 1), ModelParams(3, 0, 0.25, 1)):
            prof = build_compacton(params, 4096)
            assert np.max(np.abs(prof.phi - prof.phi[::-1])) < 1e-12

    def test_monotone_right_half(self):
        prof = build_compacton(ModelParams(4, 0, 0.25, 1), 1025)
        right = prof.phi[prof.xs >= 0]
        assert np.all(np.diff(right) <= 1e-14)

    def test_endpoint_flux(self):
        # (phi phi')^2 tends to 2B at the support endpoints
        for B, c in ((0.25, 1.0), (1.0, -1.0)):
            prof = build_compacton(ModelParams(4, 0, B, c), 4097)
            edge = prof.phi_dphi[-5:] ** 2
            # Richardson-style extrapolation along the last samples
            assert abs(edge[-1] - 2 * B) < 1e-6 or abs(
                2 * edge[-1] - edge[-2] - 2 * B
            ) < 1e-6

    def test_closed_vs_quadrature(self):
        params = ModelParams(4, 0, 0.25, 1)
        closed = build_compacton(params, 2049)
        quad = build_compacton_general(params, 2049)
        grid = np.linspace(-closed.half_width, closed.half_width, 1001)
        assert np.max(np.abs(closed(grid) - quad(grid))) < 1e-6

    def test_callable_vanishes_outside(self):
        prof = build_compacton(ModelParams(4, 0, 0, 1), 257)
        assert prof(np.array([-10.0, 10.0])).tolist() == [0.0, 0.0]

    def test_rejects_nonzero_A(self):
        with pytest.raises(ProfileError):
            build_compacton(ModelParams(4, 1.0, 0.25, 1), 64)

    def test_failed_quadrature_inversion_names_the_speed(self):
        # the p = 7.9, m = 1 minimizer: the support is too wide for x(phi) to resolve
        c = 3.7632844206113546e-39
        with pytest.raises(ProfileError, match=re.escape(repr(c))):
            build_compacton(ModelParams(7.9, 0, 0.0, c), 1024)


class TestBuildPeriodic:
    def test_extremes_and_period(self):
        prof = build_periodic(ModelParams(4, 0, -0.2, 1), 2048)
        assert prof.phi.max() == pytest.approx(math.sqrt(1 + math.sqrt(0.2)), rel=1e-6)
        assert prof.phi.min() == pytest.approx(math.sqrt(1 - math.sqrt(0.2)), abs=1e-12)
        assert prof.period == pytest.approx(SQRT2 * math.pi, abs=1e-12)

    def test_positive_everywhere(self):
        prof = build_periodic(ModelParams(4, 0, -0.2, 1), 512)
        assert prof.phi.min() > 0

    def test_small_B_limit_approaches_compacton_width(self):
        prof = build_periodic(ModelParams(4, 0, -1e-10, 1), 512)
        assert prof.period == pytest.approx(2 * math.pi / SQRT2, rel=1e-6)

    def test_rejects_compacton_params(self):
        with pytest.raises(ProfileError):
            build_periodic(ModelParams(4, 0, 0.25, 1), 512)


class TestEdgeExpansion:
    def test_linear_edge(self):
        (coef, expo), = edge_expansion(ModelParams(4, 0, 0, 1), order=1)
        assert (coef, expo) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_square_root_edge(self):
        (coef, expo), _ = edge_expansion(ModelParams(4, 0, 0.25, 1), order=2)
        assert coef == pytest.approx(math.sqrt(2 * math.sqrt(0.5)), abs=1e-12)
        assert expo == 0.5

    def test_two_thirds_edge(self):
        (coef, expo), _ = edge_expansion(ModelParams(4, 1.0, 0, 1), order=2)
        assert coef == pytest.approx(3 ** (2 / 3) / 2 ** (1 / 3), abs=1e-12)
        assert expo == pytest.approx(2 / 3)

    def test_leading_term_matches_profile(self):
        params = ModelParams(4, 0, 0.25, 1)
        prof = build_compacton(params, 8193)
        (coef, expo), _ = edge_expansion(params, order=2)
        d = 1e-4
        val = prof(prof.half_width - d)
        assert val == pytest.approx(coef * d**expo, rel=5e-3)


class TestMultiCompacton:
    def test_mass_additivity(self):
        params = ModelParams(4, 0, 0, 1)
        spec = MultiCompacton([(1, -10.0, params), (1, 10.0, params)])
        grid = np.linspace(-20, 20, 32001)
        field = assemble_multi(spec, grid)
        mass = np.trapezoid(field**2, grid)
        assert mass == pytest.approx(2 * SQRT2 * math.pi, rel=1e-8)

    def test_sign_flip(self):
        params = ModelParams(4, 0, 0, 1)
        grid = np.linspace(-3, 3, 257)
        single = assemble_multi(MultiCompacton([(1, 0.0, params)]), grid)
        flipped = assemble_multi(MultiCompacton([(-1, 0.0, params)]), grid)
        assert np.array_equal(flipped, -single)

    def test_overlap_rejected(self):
        params = ModelParams(4, 0, 0, 1)
        spec = MultiCompacton([(1, 0.0, params), (1, 1.0, params)])
        with pytest.raises(ProfileError):
            assemble_multi(spec, np.linspace(-5, 5, 64))

    def test_mixed_speeds_rejected(self):
        with pytest.raises(ProfileError):
            MultiCompacton(
                [(1, -10.0, ModelParams(4, 0, 0, 1)), (1, 10.0, ModelParams(4, 0, 0, 2))]
            )


class TestWeakResidual:
    def test_vanishes_without_defect(self):
        prof = build_compacton(ModelParams(4, 0, 0.25, 1), 1025)
        psi = lambda x: np.exp(-(x**2))
        assert abs(weak_residual(prof, psi)) < 1e-6

    def test_defect_amplitude(self):
        params = ModelParams(4, 0.3, 0.25, 1)
        prof = build_compacton_general(params, 1025)
        xr = prof.half_width

        def psi(x):
            # smooth, ~1 near -x_r and ~0 near +x_r
            return 0.5 * (1 - np.tanh(8 * np.asarray(x, dtype=float)))

        val = weak_residual(prof, psi)
        assert val == pytest.approx(0.3 * (psi(-xr) - psi(xr)), abs=5e-3)

    def test_interior_test_function(self):
        prof = build_compacton_general(ModelParams(4, 0.3, 0.25, 1), 1025)
        psi = lambda x: np.exp(-((np.asarray(x) / 0.3) ** 2))
        assert abs(weak_residual(prof, psi)) < 1e-8


class TestNlsPhase:
    def test_normalization_and_oddness(self):
        base = build_compacton(ModelParams(4, 0, 0.25, 1), 4097)
        theta, _ = nls_phase(base)
        mid = theta[base.xs.size // 2]
        assert mid == 0.0
        finite = np.isfinite(theta)
        assert np.max(np.abs(theta[finite] + theta[::-1][finite[::-1]])) < 1e-12

    @pytest.mark.parametrize("c", [0.7, 1.0])
    def test_resting_closed_form(self, c):
        # B = 0, p = 4: Phi^2 = 2c cos^2(x/sqrt2), so theta = -(sqrt2/(4c)) tan(x/sqrt2)
        base = build_compacton(ModelParams(4, 0, 0, c), 4097)
        theta, _ = nls_phase(base)
        inner = np.abs(base.xs) <= 0.99 * base.half_width
        ref = -(math.sqrt(2) / (4 * c)) * np.tan(base.xs[inner] / math.sqrt(2))
        assert np.max(np.abs(theta[inner] - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_matches_sample_by_sample_loop(self):
        # reference: one 8-point Gauss panel per sample interval, summed in a loop
        base = build_compacton(ModelParams(3, 0, 0.1, 1), 257)
        theta, _ = nls_phase(base)
        nodes, weights = np.polynomial.legendre.leggauss(8)
        xs, mid = base.xs, base.xs.size // 2
        ref = np.zeros(xs.size)
        for j in range(mid, xs.size - 2):
            a, b = xs[j], xs[j + 1]
            vals = -0.5 / base(0.5 * (a + b) + 0.5 * (b - a) * nodes) ** 2
            ref[j + 1] = ref[j] + 0.5 * (b - a) * (weights @ vals)
        right = slice(mid, xs.size - 1)
        assert np.max(np.abs(theta[right] - ref[right])) <= 1e-12 * np.max(np.abs(ref[right]))

    def test_inverse_edge_asymptote(self):
        base = build_compacton(ModelParams(4, 0, 0, 1), 4097)
        theta, asym = nls_phase(base)
        assert asym.kind == "inverse"
        # theta(x_r - d) ~ coefficient / d
        j = base.xs.size - 8
        d = base.half_width - base.xs[j]
        assert theta[j] * d == pytest.approx(asym.coefficient, rel=5e-2)

    def test_log_edge_asymptote(self):
        base = build_compacton(ModelParams(4, 0, 0.25, 1), 16385)
        theta, asym = nls_phase(base)
        assert asym.kind == "log"
        j = base.xs.size - 6
        d = base.half_width - base.xs[j]
        assert theta[j] / math.log(d) == pytest.approx(asym.coefficient, rel=5e-2)


class TestNlsCompacton:
    def test_zero_speed_is_real(self):
        nls = build_nls_compacton(ModelParams(4, 0, 0.25, 1), 0.0, 513)
        assert np.array_equal(nls.im, np.zeros(513))
        assert np.max(np.abs(nls.re - nls.base.phi)) == 0.0

    def test_modulus_matches_base(self):
        nls = build_nls_compacton(ModelParams(4, 0, 0.25, 1), 1.0, 513)
        mod = np.hypot(nls.re, nls.im)
        finite = np.isfinite(nls.theta)
        assert np.max(np.abs(mod[finite] - nls.base.phi[finite])) < 1e-12


class TestScaling:
    def test_identity(self):
        params = ModelParams(4, 0, 0.25, 1)
        assert scale_params(params, 1.0) == params

    def test_parameter_map(self):
        scaled = scale_params(ModelParams(4, 0, 0.25, 1), 2.0)
        assert (scaled.B, scaled.c) == (4.0, 4.0)

    def test_profile_identity_closed_form(self):
        lam = 1.7
        params = ModelParams(4, 0, 0.25, 1)
        scaled = scale_params(params, lam)
        base = build_compacton(params, 1025)
        big = build_compacton(scaled, 1025)
        # stay a hair inside the support: the square-root edge amplifies the
        # last-bit disagreement of the two computed half-widths
        x = np.linspace(-big.half_width, big.half_width, 501) * (1 - 1e-9)
        # p = 4 has no spatial rescale (exponent p/2 - 2 = 0)
        assert np.max(np.abs(lam * base(x) - big(x))) < 1e-8

    def test_profile_identity_quadrature(self):
        lam = 1.3
        params = ModelParams(3, 0, 0.25, 1)
        scaled = scale_params(params, lam)
        base = build_compacton(params, 2049)
        big = build_compacton(scaled, 2049)
        x = np.linspace(-big.half_width, big.half_width, 301)
        assert np.max(np.abs(lam * base(lam ** (params.p / 2 - 2) * x) - big(x))) < 1e-6

    def test_scaled_amplitude(self):
        scaled = scale_params(ModelParams(4, 0, 0.25, 1), 2.0)
        prof = build_compacton(scaled, 257)
        assert prof.phi.max() == pytest.approx(2 * math.sqrt(1 + SQRT2), rel=1e-12)


class TestSerialization:
    def test_profile_csv_round_trip(self, tmp_path):
        prof = build_compacton(ModelParams(4, 0, 0.25, 1), 65)
        path = tmp_path / "prof.csv"
        write_profile_csv(prof, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x,phi,dphi"
        assert len(lines) == 66
        x0, phi0, _ = lines[33].split(",")
        assert float(phi0) == prof.phi[32]
        manifest = json.loads((tmp_path / "prof.csv.json").read_text())
        assert manifest["p"] == 4 and manifest["B"] == 0.25 and manifest["n"] == 65
        assert manifest["half_width"] == prof.half_width

    def test_nls_csv(self, tmp_path):
        nls = build_nls_compacton(ModelParams(4, 0, 0.25, 1), 1.0, 65)
        path = tmp_path / "nls.csv"
        write_nls_profile_csv(nls, path)
        header = path.read_text().split("\n", 1)[0]
        assert header == "x,phi,theta,re,im"
        manifest = json.loads((tmp_path / "nls.csv.json").read_text())
        assert manifest["v"] == 1.0
