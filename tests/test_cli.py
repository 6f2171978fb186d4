import json
import math

import numpy as np
import pytest

from compactons import evolution, functionals, profiles, spectral
from compactons.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProfileCommand:
    def test_prints_half_width(self, capsys):
        code, out, _ = run(capsys, "profile", "--p", "4", "--B", "0", "--c", "1", "--n", "2048")
        assert code == 0
        assert "Compacton" in out
        assert repr(math.pi / math.sqrt(2)) in out

    def test_prints_period(self, capsys):
        code, out, _ = run(capsys, "profile", "--p", "4", "--B", "-0.2", "--c", "1")
        assert code == 0
        assert "Periodic" in out
        assert repr(math.sqrt(2) * math.pi) in out

    def test_invalid_parameters(self, capsys):
        code, _, err = run(capsys, "profile", "--p", "4", "--B", "0", "--c", "-1")
        assert code == 2
        assert err.strip().count("\n") == 0  # one-line diagnostic

    def test_writes_artifacts(self, capsys, tmp_path):
        out_csv = tmp_path / "prof.csv"
        code, _, _ = run(
            capsys, "profile", "--p", "4", "--B", "0.25", "--c", "1", "--out", str(out_csv)
        )
        assert code == 0
        assert out_csv.exists()
        manifest = json.loads((tmp_path / "prof.csv.json").read_text())
        assert manifest["B"] == 0.25


class TestFunctionalsCommand:
    def test_round_trip_matches_inline(self, capsys, tmp_path):
        out_csv = tmp_path / "prof.csv"
        run(capsys, "profile", "--p", "4", "--B", "0", "--c", "1", "--n", "2048",
            "--out", str(out_csv))
        code, from_file, _ = run(capsys, "functionals", "--in", str(out_csv))
        assert code == 0
        code, inline, _ = run(
            capsys, "functionals", "--p", "4", "--B", "0", "--c", "1", "--n", "2048"
        )
        assert code == 0
        assert from_file == inline  # bit-for-bit through the decimal round trip

    def test_periodic_round_trip(self, capsys, tmp_path):
        out_csv = tmp_path / "per.csv"
        code, _, _ = run(capsys, "profile", "--p", "4", "--B", "-0.2", "--c", "1",
                         "--out", str(out_csv))
        assert code == 0
        code, out, _ = run(capsys, "functionals", "--in", str(out_csv))
        assert code == 0
        ref = functionals.report(profiles.build_periodic(profiles.ModelParams(4, 0, -0.2, 1), 1024))
        assert json.loads(out)["mass"] == pytest.approx(ref.mass, rel=1e-12)

    def test_values(self, capsys):
        code, out, _ = run(capsys, "functionals", "--p", "4", "--B", "0", "--c", "1",
                           "--n", "4097")
        payload = json.loads(out)
        assert code == 0
        assert payload["hamiltonian"] == pytest.approx(-math.sqrt(2) * math.pi / 4, rel=1e-6)
        assert abs(payload["pohozaev_residual"]) < 1e-8

    def test_malformed_csv(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,phi,dphi\n1.0,2.0\n")
        code, _, err = run(capsys, "functionals", "--in", str(bad))
        assert code == 2
        assert "row 2" in err

    def test_empty_csv(self, capsys, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("x,phi,dphi\n")
        code, _, _ = run(capsys, "functionals", "--in", str(bad))
        assert code == 2

    @pytest.mark.parametrize(
        "manifest,named",
        [
            ({"p": 4.0, "B": 0.0, "c": 1.0, "n": 64}, "A"),
            ({"p": 4.0, "A": 0.0, "B": 0.0, "c": 1.0}, "n"),
            ([], "p, A, B, c, n"),
            ({"p": None, "A": 0.0, "B": 0.0, "c": 1.0, "n": "64"}, "p, n"),
            ({"p": 4.0, "A": 0.0, "B": 0.0, "c": 1.0, "n": 64, "v": "0.5"}, "v"),
        ],
        ids=["no-A", "no-n", "not-an-object", "not-numbers", "v-not-a-number"],
    )
    def test_malformed_manifest(self, capsys, tmp_path, manifest, named):
        csv = tmp_path / "prof.csv"
        run(capsys, "profile", "--p", "4", "--B", "0", "--c", "1", "--n", "64", "--out", str(csv))
        (tmp_path / "prof.csv.json").write_text(json.dumps(manifest))
        code, _, err = run(capsys, "functionals", "--in", str(csv))
        assert code == 2
        assert err.startswith("error:") and f"manifest lacks a number for {named}" in err


def loop_csv(path, header, rows):
    """The per-row writer the CSV artifacts were written with before they shared one helper."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{float(v)!r}" for v in row) + "\n")


def csv_cases():
    nls = profiles.build_nls_compacton(profiles.ModelParams(4, 0, 0.25, 1), 0.7, 129)
    prof = profiles.build_compacton(profiles.ModelParams(5, 0, 0.1, 1), 129)
    base = nls.base
    grid = evolution.PeriodicGrid(8.0, 16)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(16)
    v = u + 1j * rng.standard_normal(16)
    series = evolution.DiagnosticsSeries([0.0, 0.5], [1.0, 1 / 3], [-0.25, np.pi], [0.0, -1e-300])
    energy = np.array([2.0, 0.0, -1e-18, 1e-20])
    traj = spectral.LinearizedTrajectory(
        np.linspace(0, 1, 4), None, energy, rng.standard_normal(4),
        rng.standard_normal(4), rng.standard_normal(4), None,
    )
    return [
        ("profile", lambda p: profiles.write_profile_csv(prof, p),
         "x,phi,dphi", zip(prof.xs, prof.phi, prof.dphi)),
        ("nls", lambda p: profiles.write_nls_profile_csv(nls, p),
         "x,phi,theta,re,im", zip(base.xs, base.phi, nls.theta, nls.re, nls.im)),
        ("series", lambda p: evolution.write_series_csv(series, p),
         "t,mass,hamiltonian,momentum",
         zip(series.times, series.mass, series.hamiltonian, series.momentum)),
        ("real", lambda p: evolution.write_snapshot_csv(evolution.FieldState("real", grid, u), p),
         "x,u", zip(grid.xs, u)),
        ("complex",
         lambda p: evolution.write_snapshot_csv(evolution.FieldState("complex", grid, v), p),
         "x,re,im", ((x, w.real, w.imag) for x, w in zip(grid.xs, v))),
        ("hydro",
         lambda p: evolution.write_snapshot_csv(evolution.FieldState("hydro", grid, (u * u, u)), p),
         "x,rho,u", zip(grid.xs, u * u, u)),
        ("trajectory", lambda p: spectral.write_trajectory_csv(traj, p),
         "t,energy_H,flux_upsilon,ortho_phi,ortho_phix",
         ((t, math.sqrt(max(float(E), 0.0)), a, b, c) for t, E, a, b, c in
          zip(traj.times, traj.energy, traj.flux, traj.ortho_phi, traj.ortho_phix))),
    ]


class TestCsvArtifacts:
    def test_bytes_match_the_per_row_writer(self, tmp_path):
        for name, write, header, rows in csv_cases():
            write(tmp_path / f"{name}.csv")
            loop_csv(tmp_path / f"{name}.ref", header, rows)
            got = (tmp_path / f"{name}.csv").read_bytes()
            assert got == (tmp_path / f"{name}.ref").read_bytes(), name


class TestMinimizeCommand:
    def test_unit_mass(self, capsys):
        code, out, _ = run(capsys, "minimize", "--p", "4", "--mass", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["H_star"] == pytest.approx(-0.0562697, abs=1e-6)

    def test_unit_speed(self, capsys):
        code, out, _ = run(capsys, "minimize", "--p", "4", "--mass", "4.442883")
        payload = json.loads(out)
        assert code == 0
        assert payload["c_star"] == pytest.approx(1.0, rel=1e-6)

    def test_out_of_range_exponent(self, capsys):
        code, _, err = run(capsys, "minimize", "--p", "9", "--mass", "1")
        assert code == 2
        assert "8" in err


class TestSpectrumCommand:
    def test_conjugated_solver(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--case", "B0c1", "--method", "b", "--k", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["eigenvalues"][0] == pytest.approx(-2.0, abs=1e-3)
        assert payload["eigenvalues"][1] == pytest.approx(0.0, abs=1e-3)
        assert payload["continuum_edge"] == 0.25

    def test_kernel_solver(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--case", "B14cm1", "--method", "green",
                           "--k", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["eigenvalues"][0] == pytest.approx(2.0, abs=1e-3)

    def test_incompatible_method(self, capsys):
        code, _, _ = run(capsys, "spectrum", "--case", "B14c1", "--method", "b")
        assert code == 2

    @pytest.mark.parametrize("method,case", [("green", "B14c1"), ("b", "B0c1")])
    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_rejects_eigenpair_count(self, capsys, method, case, k):
        code, _, err = run(capsys, "spectrum", "--case", case, "--method", method, "--k", k)
        assert code == 2
        assert f"k = {k}" in err


class TestEvolveCommand:
    def test_short_hydro_run(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "evolve", "--model", "hydro", "--ic", "gaussian:",
            "--T", "0.1", "--L", "40", "--n", "256", "--rtol", "1e-5",
            "--out-prefix", "h", "--out-dir", str(tmp_path),
        )
        assert code == 0
        series = (tmp_path / "h_series.csv").read_text().strip().split("\n")
        assert series[0] == "t,mass,hamiltonian,momentum"
        manifest = json.loads((tmp_path / "h_run.json").read_text())
        assert manifest["model"] == "hydro"
        assert manifest["final_time"] == pytest.approx(0.1)

    def test_environment_tolerance_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COMPACTON_RTOL", "1e-3")
        code, _, _ = run(
            capsys, "evolve", "--model", "hydro", "--ic", "gaussian:",
            "--T", "0.05", "--L", "40", "--n", "256",
            "--out-prefix", "e", "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert json.loads((tmp_path / "e_run.json").read_text())["rtol"] == 1e-3

    def test_sweep_isolated_directories(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "evolve", "--model", "hydro", "--ic", "gaussian:",
            "--T", "0.05", "--L", "40", "--n", "256", "--rtol", "1e-4",
            "--out-prefix", "s", "--out-dir", str(tmp_path),
            "--sweep", "1e-4,1e-3",
        )
        assert code == 0
        for tag in ("nu_0.0001", "nu_0.001"):
            assert (tmp_path / tag / "s_run.json").exists()

    @pytest.mark.parametrize("sweep", [",", ""])
    def test_sweep_without_values(self, capsys, tmp_path, sweep):
        code, _, err = run(
            capsys, "evolve", "--model", "dkdv", "--ic", "compacton:B=0,c=1",
            "--out-dir", str(tmp_path), "--sweep", sweep,
        )
        assert code == 2
        assert "--sweep needs at least one value" in err
        assert not list(tmp_path.iterdir())

    def test_dnls_default_box(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "evolve", "--model", "dnls", "--ic", "periodic", "--n", "128",
            "--T", "0.01", "--out-prefix", "d", "--out-dir", str(tmp_path),
        )
        assert code == 0
        series = (tmp_path / "d_series.csv").read_text().strip().split("\n")
        assert series[0] == "t,mass,hamiltonian,momentum"
        manifest = json.loads((tmp_path / "d_run.json").read_text())
        assert manifest["grid"]["L"] == pytest.approx(math.sqrt(2) * math.pi, rel=1e-12)

    def test_dkdv_initial_profile_follows_p(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "evolve", "--model", "dkdv", "--ic", "compacton:B=0,c=1", "--p", "3",
            "--n", "512", "--T", "0.001", "--out-prefix", "k", "--out-dir", str(tmp_path),
        )
        assert code == 0
        first = (tmp_path / "k_series.csv").read_text().split("\n")[1].split(",")
        # the p = 3 compacton at B = 0, c = 1 carries mass 7.2 (the p = 4 one 4.44)
        assert float(first[1]) == pytest.approx(7.2, rel=1e-4)

    def test_dnls_box_follows_p(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "evolve", "--model", "dnls", "--ic", "periodic:B=-0.1", "--p", "3",
            "--n", "128", "--T", "0.01", "--out-prefix", "d", "--out-dir", str(tmp_path),
        )
        assert code == 0
        period = profiles.build_periodic(profiles.ModelParams(3.0, 0.0, -0.1, 1.0), 16).period
        manifest = json.loads((tmp_path / "d_run.json").read_text())
        assert manifest["grid"]["L"] == pytest.approx(period, rel=1e-12)
        assert abs(period - math.sqrt(2) * math.pi) > 1.0

    def test_dnls_without_periodic_wave(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "evolve", "--model", "dnls", "--ic", "periodic", "--p", "3",
            "--n", "128", "--T", "0.01", "--out-dir", str(tmp_path),
        )
        assert code == 2
        assert "no positive solution" in err

    def test_bad_initial_condition(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "evolve", "--model", "dkdv", "--ic", "gaussian:",
            "--T", "0.1", "--out-dir", str(tmp_path),
        )
        assert code == 2

    def test_linearized_model(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "evolve", "--model", "linear", "--ic", "case:case=B0c1",
            "--T", "0.05", "--out-prefix", "lin", "--out-dir", str(tmp_path),
        )
        assert code == 0
        header = (tmp_path / "lin_series.csv").read_text().split("\n", 1)[0]
        assert header == "t,energy_H,flux_upsilon,ortho_phi,ortho_phix"

    @pytest.mark.parametrize("p", ["3", "4.5"])
    def test_linearized_model_rejects_other_exponents(self, capsys, tmp_path, p):
        code, _, err = run(
            capsys, "evolve", "--model", "linear", "--ic", "case:case=B0c1", "--p", p,
            "--T", "0.05", "--out-dir", str(tmp_path),
        )
        assert code == 2
        assert "p = 4 linearization" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("argv", [
        ("--model", "dkdv", "--ic", "compacton:B=0,c=1,x0=-5", "--n", "256", "--T", "-1", "--snapshots", "5"),
        ("--model", "dkdv", "--ic", "compacton:B=0,c=1,x0=-5", "--n", "256", "--T", "0.01", "--snapshots", "1"),
        ("--model", "dkdv", "--ic", "compacton:B=0,c=1,x0=-5", "--n", "256", "--T", "0.01", "--snapshots", "0"),
        ("--model", "linear", "--ic", "case:case=B0c1", "--T", "-1"),
        ("--model", "linear", "--ic", "case:case=B0c1", "--T", "inf"),
        ("--model", "linear", "--ic", "case:case=B0c1", "--T", "nan"),
        ("--model", "dkdv", "--ic", "compacton:B=0,c=1", "--n", "64", "--T", "inf"),
        ("--model", "dkdv", "--ic", "compacton:B=0,c=1", "--n", "64", "--T", "nan"),
        ("--model", "hydro", "--ic", "gaussian", "--n", "64", "--T", "inf"),
        ("--model", "hydro", "--ic", "gaussian", "--n", "64", "--T", "nan"),
        ("--model", "dkdv", "--ic", "compacton:B=0,c=1", "--n", "64", "--T", "0.1", "--max-step", "0"),
        ("--model", "dkdv", "--ic", "compacton:B=0,c=1", "--n", "64", "--T", "0.1", "--max-step", "-1"),
        ("--model", "dkdv", "--ic", "compacton:B=0,c=1", "--n", "64", "--T", "0.1", "--rtol", "nan"),
        ("--model", "dkdv", "--ic", "compacton:B=0,c=1", "--n", "64", "--T", "0.1", "--atol", "inf"),
    ], ids=[
        "negative-time", "one-snapshot", "no-snapshots", "linear-negative-time",
        "linear-infinite-time", "linear-nan-time", "dkdv-infinite-time", "dkdv-nan-time",
        "hydro-infinite-time", "hydro-nan-time", "zero-max-step", "negative-max-step",
        "nan-rtol", "infinite-atol",
    ])
    def test_rejects_time_range(self, capsys, tmp_path, argv):
        code, _, err = run(capsys, "evolve", *argv, "--out-dir", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ")
        assert not list(tmp_path.glob("*.csv"))

    def test_zero_time(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "evolve", "--model", "dkdv", "--ic", "compacton:B=0,c=1,x0=-5",
            "--n", "256", "--T", "0", "--snapshots", "3", "--out-prefix", "z", "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert json.loads((tmp_path / "z_run.json").read_text())["final_time"] == 0.0
