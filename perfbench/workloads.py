"""The benchmark's workloads: seeded requests and their output checks.

A workload turns the seed into a fixed list of requests, one pass.  A run
repeats whole passes, so every request is executed several times and the
share of failed operations is fixed by the workload's make-up, whatever the
seed or the run length.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

import checks as ck
from compactons import cli
from compactons import evolution as ev
from compactons import functionals as fn
from compactons import profiles as pr
from compactons import spectral as sp

class OpFailed(Exception):
    """The program returned an error instead of a result."""


@dataclass
class Op:
    """One request: `call` is timed, `check` validates what it returned."""

    kind: str
    heavy: bool
    call: Callable[[], object]
    check: Callable[[object], None]
    may_fail: bool = False


# ---------------------------------------------------------------------------
# evolve-dkdv: a few seeded initial states, integrated each pass


class EvolveDkdv:
    """Third-order flow of the p = 4, B = 0 compacton at seeded speeds and starts."""

    name = "evolve-dkdv"
    min_passes = 2
    # the step count does not depend on the seeded c and x0
    STATES = 3
    L, N = 40.0, 2048
    # distance from the closed form on the core of the support, as a share of
    # the peak: about 2e-3 is measured; a wave left in place misses by 5e-2
    TOL = 1e-2

    def __init__(self, seed, record, workdir):
        rng = np.random.default_rng([seed, 1])
        self.grid = ev.PeriodicGrid(self.L, self.N)
        self.reg = ev.RegularizationConfig(1e-4)
        self.config = ev.IntegratorConfig(rtol=1e-6, atol=1e-9, max_step=0.05)
        self.states = []
        for _ in range(self.STATES):
            c = float(rng.uniform(0.95, 1.05))
            # a fixed travel distance keeps the step count independent of c
            self.states.append({"c": c, "x0": float(rng.uniform(-8.0, 8.0)), "T": 0.1 / c})
        self.inputs = {"L": self.L, "n": self.N, "states": self.states}

    def _op(self, state):
        c, x0, T = state["c"], state["x0"], state["T"]

        def call():
            state0 = ev.initial_condition("compacton", self.grid, B=0.0, c=c, x0=x0)
            _, states, series = ev.run_model(state0, T, 4.0, self.reg, self.config, n_samples=5)
            return states[-1], series

        def check(out):
            final, series = out
            ck.close(final.t, T, 1e-12, "final time")
            ck.check_dkdv_final(self.grid.xs, final.data, x0, c, T, self.L, self.TOL)
            ck.check_drift(series.mass, 1e-4, "mass")
            ck.check_drift(series.hamiltonian, 1e-3, "Hamiltonian")

        return Op("integrate", True, call, check)

    def requests(self):
        return [self._op(state) for state in self.states]

    def warm_up(self):
        op = self._op(self.states[0])
        op.check(op.call())


# ---------------------------------------------------------------------------
# queries: a seeded stream of analysis requests


def _profile_op(rng, p, B=None):
    """Build a compacton; p = 2 and p = 4 are closed forms, others quadrature."""
    if p == 2:
        B, c = float(rng.uniform(0.05, 0.5)), float(rng.uniform(-0.5, 0.8))
    else:
        B = float(rng.uniform(0.0, 0.3)) if B is None else B
        c = float(rng.uniform(0.5, 1.5))
    params = pr.ModelParams(p, 0.0, B, c)

    def call():
        return pr.build_compacton(params, 1024)

    def check(prof):
        ck.check_profile_residual(prof.xs, prof.phi, p, B, c, 1e-3)
        if p == 4:
            ck.close(prof.half_width, ck.p4_half_width(B, c), 1e-12, "p = 4 half-width")
            ck.check_p4_identity(fn.mass(prof), fn.hamiltonian(prof), c, 1e-6)
        elif p == 2:
            ck.close(prof.half_width, ck.p2_half_width(B, c), 1e-12, "p = 2 half-width")

    return Op(f"profile.p{p:g}", False, call, check)


def _report_op(rng, p):
    B, c = float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.5, 1.5))
    params = pr.ModelParams(p, 0.0, B, c)

    def call():
        prof = pr.build_compacton(params, 1024)
        return prof, fn.report(prof)

    def check(out):
        prof, rep = out
        ck.check_identities(rep, 1e-6)
        ck.close(rep.mass, ck.trapezoid_mass(prof.xs, prof.phi), 1e-4 * rep.mass, "report mass")
        if p == 4:
            ck.check_p4_identity(rep.mass, rep.hamiltonian, c, 1e-6)

    return Op(f"report.p{p:g}", False, call, check)


def _nls_op(rng):
    B, c, v = float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.5, 1.5)), float(rng.uniform(-1, 1))
    params = pr.ModelParams(4, 0.0, B, c)

    def call():
        nls = pr.build_nls_compacton(params, v, 1024)
        return nls, fn.report(nls), fn.report(nls.base)

    def check(out):
        nls, rep_q, rep_phi = out
        ck.check_nls(rep_q, rep_phi, v, ck.p4_half_width(B, c), nls.re**2 + nls.im**2, nls.base.phi, 1e-6)

    return Op("nls_report", False, call, check)


def _minimize_p4_op(rng):
    m = float(rng.uniform(0.5, 2.0))

    def call():
        return fn.minimize_in_family(4.0, m)

    def check(res):
        ck.check_p4_minimizer(res, m)
        prof = pr.build_compacton(pr.ModelParams(4, 0.0, res.B_star, res.c_star), 4097)
        ck.check_minimizer_profile(res, m, fn.mass(prof), fn.hamiltonian(prof), 1e-6)

    return Op("minimize.p4", False, call, check)


def _family_H(p, B, c):
    _, M, S, Pp = pr.compacton_integrals(pr.ModelParams(p, 0.0, B, c), panels=96)
    return M, 0.5 * S - Pp / p


def _minimizations(rng, count):
    """Minimizations at one exponent p != 4, linked by the mass scaling law."""
    # exponents whose minimizations cost alike (about 1,600-1,800 calls to
    # compacton_integrals), so the seed moves the pass time little
    p = float(rng.choice([2.5, 3.0, 3.5]))
    done = {}

    def make(m):
        def call():
            return fn.minimize_in_family(p, m)

        def check(res):
            prof = pr.build_compacton(pr.ModelParams(p, 0.0, res.B_star, res.c_star), 4097)
            ck.check_minimizer_profile(res, m, fn.mass(prof), fn.hamiltonian(prof), 1e-4)
            # the resting member (B = 0) of mass m lies in the family searched;
            # its mass is m only up to the quadrature error of the power law
            M1, _ = _family_H(p, 0.0, 1.0)
            c0 = (m / M1) ** (2 * (p - 2) / (8 - p))
            ck.check_not_above(res.H_star, _family_H(p, 0.0, c0)[1], "the B = 0 member")
            done[m] = res.H_star
            for m_other, h_other in done.items():
                if m_other != m:
                    ck.check_scaling_law(p, m_other, h_other, m, res.H_star, 1e-6)

        return Op(f"minimize.p{p:g}", True, call, check)

    return [make(float(m)) for m in rng.uniform(0.8, 1.25, size=count)]


def _eig_green_op(rng, case):
    k = int(rng.integers(2, 6))

    def call():
        return sp.eig_green(case, k=k)

    def check(spec):
        ck.require(spec.eigenvalues.size == k, f"{case}: {spec.eigenvalues.size} eigenvalues, asked {k}")
        ck.check_spectrum(case, spec.eigenvalues, spec.zero_counts, 1e-3)

    return Op(f"eig_green.{case}", True, call, check)


def _eig_b_op(rng):
    T = float(rng.uniform(12.0, 13.0))

    def call():
        return sp.eig_b(sp.b_transform(sp.make_operator("B0c1"), T=T), k=2)

    def check(spec):
        ck.check_spectrum("B0c1", spec.eigenvalues, spec.zero_counts, 1e-3)
        ck.require(not any(spec.artifact_flags), "B0c1 bound states flagged as continuum artifacts")

    return Op("eig_b.B0c1", False, call, check)


def _bump(x, xr, center, width):
    s = (x - center) / (width * xr)
    out = np.zeros_like(x)
    inside = np.abs(s) < 1
    out[inside] = np.exp(-1.0 / (1 - s[inside] ** 2))
    return out


def _green_op(rng, case, m=2047):
    op = sp.make_operator(case, m + 2)
    xr = op.profile.half_width
    f = _bump(op.xs_interior, xr, rng.uniform(-0.3, 0.3) * xr, rng.uniform(0.2, 0.4))
    f = sp.green_orthogonalize(case, f)

    def call():
        return sp.green_apply(case, f)

    def check(w):
        interior = slice(30, -30)
        ck.check_inverse(f[interior], sp.apply_L(op, w)[interior], 1e-6)

    return Op(f"green_apply.{case}", False, call, check)


def _linearized_op(rng, N=256):
    case = str(rng.choice(sorted(sp.CASE_PARAMS)))
    op = sp.make_operator(case, N + 1)
    v0 = sp.constrain_initial(case, rng.standard_normal(N))

    def call():
        return sp.evolve_linearized(op, v0, t_end=0.25, N=N)

    def check(traj):
        ck.check_energy_decay(traj.energy, traj.ortho_phi, 1e-10)

    return Op(f"evolve_linearized.{case}", False, call, check)


class Queries:
    """A closed loop of one client sending a seeded mix of analysis requests.

    A pass holds 150 requests in three rounds of 50.  The make-up places the
    percentiles inside blocks of alike requests, so that they do not jump
    between request kinds from one seed to the next: the median falls in the
    block of quadrature profile builds, and the 90th percentile in the block
    of NLS command-line round trips, the costliest light requests, just below
    the 6% of heavy requests (minimizations and dense spectra).
    """

    name = "queries"
    min_passes = 2

    def __init__(self, seed, record, workdir):
        self.seed = seed
        self.record = record
        self.workdir = workdir
        self.inputs = {}

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def _cli_roundtrip(self, tag, p, B, c, v=None, may_fail=False):
        """`compacton profile --out` followed by `compacton functionals --in`."""
        csv, out = f"{self.workdir}/{tag}.csv", f"{self.workdir}/{tag}.json"
        argv = ["profile", "--p", repr(p), "--B", repr(B), "--c", repr(c), "--n", "1024", "--out", csv]
        if v is not None:
            argv += ["--v", repr(v)]

        def call():
            for args in (argv, ["functionals", "--in", csv, "--out", out]):
                code = self._cli(args)
                if code != 0:
                    raise OpFailed(f"compacton {args[0]} exited {code}")
            with open(out) as fh:
                return json.load(fh)

        def check(got):
            written = sum(os.path.getsize(f) for f in (csv, csv + ".json", out))
            self.record("cli.bytes_written", written)
            data = np.loadtxt(csv, delimiter=",", skiprows=1)
            xs, phi = data[:, 0], data[:, 1]
            ck.close(got["mass"], ck.trapezoid_mass(xs, phi), 1e-3 * got["mass"], f"{tag}: mass from the CSV")
            if may_fail:
                return
            params = pr.ModelParams(p, 0.0, B, c)
            if v is None:
                ref = fn.report(pr.build_compacton(params, 1024))
            else:
                ref = fn.report(pr.build_nls_compacton(params, v, 1024))
                ck.close(got["momentum_K"], -v * ck.p4_half_width(B, c), 1e-9, f"{tag}: momentum K")
            ck.check_report_matches(got, asdict(ref), 1e-9, tag)

        return Op(f"cli.{tag}", False, call, check, may_fail)

    def _round(self, rng, index, minimization):
        """50 requests: 3 heavy, 4 costly light, 17 other light, 26 profile builds."""
        cases = ("B14c1", "B14c0", "B14cm1")
        u = rng.uniform
        ops = [
            minimization,
            _eig_green_op(rng, cases[index % 3]),
            _eig_green_op(rng, cases[(index + 1) % 3]),
            *[self._cli_roundtrip(f"nls{i}", 4.0, float(u(0.0, 0.5)), float(u(0.5, 1.5)), float(u(-1, 1))) for i in range(4)],
            self._cli_roundtrip("compacton", float(rng.choice([3.0, 4.0, 5.0])), float(u(0.0, 0.3)), float(u(0.5, 1.5))),
            # fails today: the manifest path of `functionals --in` builds a compacton
            self._cli_roundtrip("periodic", 4.0, -0.2, 1.0, may_fail=True),
            _linearized_op(rng),
            _linearized_op(rng),
            _nls_op(rng),
            _eig_b_op(rng),
            _report_op(rng, 3),
            _report_op(rng, 4),
            _report_op(rng, 5),
            _minimize_p4_op(rng),
            *[_green_op(rng, case) for case in sorted(sp.CASE_PARAMS)],
            _profile_op(rng, 2),
            _profile_op(rng, 4, B=0.0),
            _profile_op(rng, 4, B=float(u(0.01, 0.5))),
            *[_profile_op(rng, 3) for _ in range(6)],
            *[_profile_op(rng, 5) for _ in range(20)],
        ]
        return [ops[i] for i in rng.permutation(len(ops))]

    def requests(self):
        rng = np.random.default_rng([self.seed, 3])
        minimizations = _minimizations(rng, 3)
        return [op for r in range(3) for op in self._round(rng, r, minimizations[r])]

    def warm_up(self):
        """One light request of each kind, and a small dense eigenproblem."""
        rng = np.random.default_rng([self.seed, 4])
        seen = set()
        for op in self._round(rng, 0, _minimizations(rng, 1)[0]):
            if op.heavy or op.kind in seen:
                continue
            seen.add(op.kind)
            try:
                op.check(op.call())
            except OpFailed:
                if not op.may_fail:
                    raise
        sp.eig_green("B14c1", n=200, k=2)


WORKLOADS = {cls.name: cls for cls in (EvolveDkdv, Queries)}
