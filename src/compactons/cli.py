"""Command-line toolkit: profiles, functional reports, minimization, spectra,
and time evolution, with CSV/JSON artifacts for external plotting.

Exit codes: 0 success, 2 invalid input, 3 runtime/integration failure.
Default evolution tolerances honor the COMPACTON_RTOL / COMPACTON_ATOL
environment variables.  All numeric output uses round-trip decimal formatting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import evolution, functionals, profiles, spectral
from .profiles import ModelParams, ProfileError

__all__ = ["main"]

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_RUNTIME = 3


class CliError(Exception):
    def __init__(self, message, code=EXIT_INVALID):
        super().__init__(message)
        self.code = code


def _env_float(name, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise CliError(f"environment variable {name}={raw!r} is not a number")


# ---------------------------------------------------------------------------
# profile


def _build_field(params, n, v):
    """Compacton, NLS compacton (v given) or periodic profile, by classification."""
    # classify covers p > 2; build_compacton also takes the closed-form p = 2 case
    tag = "Compacton" if params.p == 2 else profiles.classify(params).tag
    if tag == "Periodic":
        return profiles.build_periodic(params, n)
    if tag != "Compacton":
        raise CliError(
            f"parameters classify as {tag}, not a bounded profile "
            "(a compacton needs B > 0 or c > 0 with nonnegative flux inside the support)"
        )
    if v is None:
        return profiles.build_compacton(params, n)
    return profiles.build_nls_compacton(params, v, n)


def _cmd_profile(args):
    try:
        field = _build_field(ModelParams(args.p, args.A, args.B, args.c), args.n, args.v)
    except (ProfileError, ValueError) as exc:
        raise CliError(str(exc))
    if isinstance(field, profiles.PeriodicProfile):
        print(f"classification: Periodic  period: {field.period!r}")
    else:
        base = field.base if isinstance(field, profiles.NlsProfile) else field
        print(f"classification: Compacton  half_width: {base.half_width!r}")
    if not args.out:
        return []
    if isinstance(field, profiles.NlsProfile):
        profiles.write_nls_profile_csv(field, args.out)
    else:
        profiles.write_profile_csv(field, args.out)
    return [args.out, str(args.out) + ".json"]


# ---------------------------------------------------------------------------
# functionals


# what write_manifest records: the parameters and the sample count (v is optional)
_NUMBER = (int, float)
_MANIFEST_FIELDS = {"p": _NUMBER, "A": _NUMBER, "B": _NUMBER, "c": _NUMBER, "n": int}


def _read_profile_csv(path):
    path = Path(path)
    if not path.exists():
        raise CliError(f"no such file: {path}")
    manifest_path = Path(str(path) + ".json")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise CliError(
                    f"{path}: row {lineno} has {len(parts)} columns, expected {len(header)}"
                )
            try:
                rows.append([float(v) for v in parts])
            except ValueError as exc:
                raise CliError(f"{path}: row {lineno}: {exc}")
    if not rows:
        raise CliError(f"{path}: no data rows")
    data = np.array(rows)
    cols = {name: data[:, i] for i, name in enumerate(header)}
    if "x" not in cols or "phi" not in cols:
        raise CliError(f"{path}: expected columns including x,phi, got {header}")
    manifest = None
    if manifest_path.exists():
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        fields = manifest if isinstance(manifest, dict) else {}
        bad = [k for k, kind in _MANIFEST_FIELDS.items() if not isinstance(fields.get(k), kind)]
        if fields.get("v") is not None and not isinstance(fields["v"], _NUMBER):
            bad.append("v")
        if bad:
            raise CliError(f"{manifest_path}: manifest lacks a number for {', '.join(bad)}")
    return cols, manifest


def _cmd_functionals(args):
    if args.infile:
        cols, manifest = _read_profile_csv(args.infile)
        if manifest is not None:
            params = ModelParams(manifest["p"], manifest["A"], manifest["B"], manifest["c"])
            field = _build_field(params, manifest["n"], manifest.get("v"))
        else:
            if args.p is None:
                raise CliError("--p is required when the CSV has no parameter manifest")
            field = (cols["x"], cols["phi"])
    else:
        if args.p is None or args.c is None:
            raise CliError("provide --in FILE or inline --p/--B/--c parameters")
        try:
            field = _build_field(ModelParams(args.p, args.A, args.B, args.c), args.n, args.v)
        except (ProfileError, ValueError) as exc:
            raise CliError(str(exc))
    rep = functionals.report(field)
    text = functionals.report_json(rep)
    if args.out:
        Path(args.out).write_text(text + "\n")
        return [args.out]
    print(text)
    return []


# ---------------------------------------------------------------------------
# minimize


def _cmd_minimize(args):
    if not (2 < args.p < 8):
        raise CliError(
            f"p = {args.p!r} is outside (2, 8); at p >= 8 the constrained family "
            "loses compactness and no minimizer exists"
        )
    if args.mass <= 0:
        raise CliError("--mass must be positive")
    res = functionals.minimize_in_family(args.p, args.mass)
    payload = {
        "p": args.p,
        "mass": res.mass,
        "B_star": res.B_star,
        "c_star": res.c_star,
        "H_star": res.H_star,
        "iterations": res.iterations,
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
        return [args.out]
    print(text)
    return []


# ---------------------------------------------------------------------------
# spectrum


def _cmd_spectrum(args):
    if args.case not in spectral.CASE_PARAMS:
        raise CliError(
            f"unknown case {args.case!r}; expected one of {sorted(spectral.CASE_PARAMS)}"
        )
    if args.method == "b":
        if args.case != "B0c1":
            raise CliError(
                f"method 'b' requires the coordinate transform available only for "
                f"case B0c1, not {args.case}"
            )
        op = spectral.make_operator("B0c1")
        spec = spectral.eig_b(spectral.b_transform(op), k=args.k)
    else:
        spec = spectral.eig_green(args.case, k=args.k)
    text = spectral.spectrum_json(args.case, spec)
    if args.out:
        Path(args.out).write_text(text + "\n")
        return [args.out]
    print(text)
    return []


# ---------------------------------------------------------------------------
# evolve


def _parse_ic(spec_str):
    """'kind:key=val,key=val' -> (kind, {key: float})."""
    kind, _, rest = spec_str.partition(":")
    kind = kind.strip()
    opts = {}
    if rest:
        for item in rest.split(","):
            if not item:
                continue
            key, _, val = item.partition("=")
            if not val:
                raise CliError(f"malformed initial-condition option {item!r}")
            if kind == "case":
                opts[key.strip()] = val.strip()
            else:
                try:
                    opts[key.strip()] = float(val)
                except ValueError:
                    raise CliError(f"initial-condition option {item!r} is not numeric")
    return kind, opts


def _run_evolve_once(args, nu, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = out_dir / args.out_prefix
    rtol = args.rtol if args.rtol is not None else _env_float("COMPACTON_RTOL", 1e-6)
    atol = args.atol if args.atol is not None else _env_float("COMPACTON_ATOL", 1e-9)
    config = evolution.IntegratorConfig(rtol=rtol, atol=atol, max_step=args.max_step)
    kind, opts = _parse_ic(args.ic)

    if args.model == "linear":
        if args.p != 4:
            raise CliError(f"--model linear is the p = 4 linearization; got --p {args.p:g}")
        case = opts.get("case", "B0c1") if kind == "case" else "B0c1"
        if kind not in ("case", "random"):
            raise CliError("--model linear expects --ic case:case=<tag>")
        op = spectral.make_operator(case)
        rng = np.random.default_rng(int(opts.get("seed", 0)) if kind == "random" else 0)
        v0 = spectral.constrain_initial(case, rng.standard_normal(512))
        traj = spectral.evolve_linearized(op, v0, t_end=args.T)
        series_path = Path(str(prefix) + "_series.csv")
        spectral.write_trajectory_csv(traj, series_path)
        return [series_path]

    length = 40.0 if args.L is None else args.L
    if args.model == "dkdv":
        if kind not in ("compacton", "perturbed"):
            raise CliError(f"--model dkdv does not accept initial condition {kind!r}")
        state0 = evolution.initial_condition(
            kind,
            evolution.PeriodicGrid(length, args.n),
            B=opts.get("B", 0.0),
            c=opts.get("c", 1.0),
            x0=opts.get("x0", 0.0),
            p=args.p,
        )
    elif args.model == "dnls":
        if kind != "periodic":
            raise CliError(f"--model dnls does not accept initial condition {kind!r}")
        B, c = opts.get("B", -0.2), opts.get("c", 1.0)
        if args.L is None:
            # one period of the profile the initial state is built from
            length = profiles.build_periodic(ModelParams(args.p, 0.0, B, c), 16).period
        state0 = evolution.initial_condition(
            "periodic", evolution.PeriodicGrid(length, args.n), B=B, c=c, p=args.p
        )
    elif args.model == "hydro":
        if kind not in ("gaussian", "gaussian+const"):
            raise CliError(f"--model hydro does not accept initial condition {kind!r}")
        state0 = evolution.initial_condition(
            "gaussian", evolution.PeriodicGrid(length, args.n), x0=opts.get("x0", 0.0)
        )
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown model {args.model!r}")

    reg = evolution.RegularizationConfig(nu)
    t0 = time.time()
    try:
        _, states, series = evolution.run_model(
            state0, args.T, args.p, reg, config, n_samples=args.snapshots
        )
    except evolution.IntegrationError as exc:
        manifest_path = Path(str(prefix) + "_run.json")
        if exc.last_state is not None:
            last = evolution.FieldState(
                state0.kind, state0.grid,
                evolution._unpack(state0.kind, state0.grid, exc.last_state),
                exc.last_time or 0.0,
            )
        else:
            last = evolution.FieldState(state0.kind, state0.grid, state0.data, 0.0)
        evolution.write_run_manifest(
            manifest_path, args.model, state0.grid, reg, config, time.time() - t0, last
        )
        raise CliError(f"integration failed: {exc}", code=EXIT_RUNTIME)
    wall = time.time() - t0

    artifacts = []
    series_path = Path(str(prefix) + "_series.csv")
    evolution.write_series_csv(series, series_path)
    artifacts.append(series_path)
    for st in (states[0], states[len(states) // 2], states[-1]):
        snap = Path(str(prefix) + f"_t{st.t:.6g}.csv")
        evolution.write_snapshot_csv(st, snap)
        artifacts.append(snap)
    manifest_path = Path(str(prefix) + "_run.json")
    evolution.write_run_manifest(
        manifest_path, args.model, state0.grid, reg, config, wall, states[-1]
    )
    artifacts.append(manifest_path)
    return artifacts


def _cmd_evolve(args):
    base_nu = args.nu
    if args.sweep is not None:
        try:
            nus = [float(v) for v in args.sweep.split(",") if v]
        except ValueError:
            raise CliError(f"--sweep expects comma-separated numbers, got {args.sweep!r}")
        if not nus:
            raise CliError(f"--sweep needs at least one value, got {args.sweep!r}")
        out_root = Path(args.out_dir)
        jobs = [(nu, out_root / f"nu_{nu:g}") for nu in nus]
        with ThreadPoolExecutor(max_workers=min(len(jobs), 4)) as pool:
            futures = [pool.submit(_run_evolve_once, args, nu, d) for nu, d in jobs]
            artifacts = []
            for fut in futures:
                artifacts.extend(fut.result())
        return artifacts
    return _run_evolve_once(args, base_nu, args.out_dir)


# ---------------------------------------------------------------------------
# parser


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="compacton",
        description="Compacton profiles, functionals, spectra, and evolution runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_prof = sub.add_parser("profile", help="build a traveling-wave profile")
    p_prof.add_argument("--p", type=float, required=True)
    p_prof.add_argument("--A", type=float, default=0.0)
    p_prof.add_argument("--B", type=float, default=0.0)
    p_prof.add_argument("--c", type=float, required=True)
    p_prof.add_argument("--v", type=float, default=None, help="phase speed for NLS columns")
    p_prof.add_argument("--n", type=int, default=1024)
    p_prof.add_argument("--out", default=None)
    p_prof.set_defaults(func=_cmd_profile)

    p_fun = sub.add_parser("functionals", help="report conserved functionals")
    p_fun.add_argument("--in", dest="infile", default=None)
    p_fun.add_argument("--p", type=float, default=None)
    p_fun.add_argument("--A", type=float, default=0.0)
    p_fun.add_argument("--B", type=float, default=0.0)
    p_fun.add_argument("--c", type=float, default=None)
    p_fun.add_argument("--v", type=float, default=None)
    p_fun.add_argument("--n", type=int, default=1024)
    p_fun.add_argument("--out", default=None)
    p_fun.set_defaults(func=_cmd_functionals)

    p_min = sub.add_parser("minimize", help="minimize H at fixed mass")
    p_min.add_argument("--p", type=float, required=True)
    p_min.add_argument("--mass", type=float, required=True)
    p_min.add_argument("--out", default=None)
    p_min.set_defaults(func=_cmd_minimize)

    p_spec = sub.add_parser("spectrum", help="linearized-operator spectrum")
    p_spec.add_argument("--case", required=True)
    p_spec.add_argument("--method", choices=("b", "green"), default="green")
    p_spec.add_argument("--k", type=int, default=2)
    p_spec.add_argument("--out", default=None)
    p_spec.set_defaults(func=_cmd_spectrum)

    p_ev = sub.add_parser("evolve", help="nonlinear or linearized evolution run")
    p_ev.add_argument("--model", choices=("dkdv", "dnls", "hydro", "linear"), required=True)
    p_ev.add_argument("--ic", required=True, help="kind:key=val,... e.g. compacton:B=0,c=1")
    p_ev.add_argument("--p", type=float, default=4.0)
    p_ev.add_argument("--nu", type=float, default=1e-4)
    p_ev.add_argument("--T", type=float, default=1.0)
    p_ev.add_argument(
        "--L", type=float, default=None,
        help="box length (default 40; one profile period for --model dnls)",
    )
    p_ev.add_argument("--n", type=int, default=2048)
    p_ev.add_argument("--rtol", type=float, default=None)
    p_ev.add_argument("--atol", type=float, default=None)
    p_ev.add_argument("--max-step", type=float, default=0.05)
    p_ev.add_argument("--snapshots", type=int, default=9)
    p_ev.add_argument("--out-prefix", default="run")
    p_ev.add_argument("--out-dir", default=".")
    p_ev.add_argument("--sweep", default=None, help="comma-separated nu values")
    p_ev.set_defaults(func=_cmd_evolve)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        artifacts = args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ProfileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    missing = [a for a in artifacts or [] if not Path(a).exists()]
    if missing:
        print(f"error: missing artifacts {missing}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
