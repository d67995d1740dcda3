"""The three benchmark workloads: seeded inputs, one op, and its output check.

Every call into the package goes through a module attribute
(``experiments.bisect_zeta``, ``nls_core.propagate``, ...) so that the traced
run's wrappers see it and the untraced run calls the original functions.

Why these three:

* shoot-d1 is the paper's experiment, the backward topological shooting of
  the acceptance gate (d=1, p=3, N=2048, L=64, dt=2e-3, C*=10, fits every
  0.5 in s).  Its fields are 32 KiB, so per-step Python overhead dominates.
* force-d1 is the reduced dynamics with the full quadrature force plus an
  H(z) sweep (the ``interaction`` command).  Nearly all of its time is the
  adaptive quadrature calling the profile spline one scalar at a time; it
  never touches nls_core or modulation_fit.
* fit-d2 mirrors ``simulate --snapshot-out`` then ``fit --field`` on a
  256x256 field (1 MiB, against 2 MiB of L2 per core), so the same nls_core
  and modulation_fit code runs cache-bound, with snapshot-mode fits and file
  I/O.  It uses p=2: at the mass-critical p=3 the d=2 snapshot fit fails on
  about half of the draws (see bench/BASELINE.md), and a benchmark
  workload must not fail.

BENCHMARK.json gates shoot-d1 and force-d1 only; fit-d2 runs on request
(``--workload fit-d2`` or ``all``).  On a shared host the median of a
run's ops is steady only over long runs, and the time allowed for all runs
holds 50 s runs of two workloads, not of three.  The two kept cover every
module between them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from twobubble import ansatz, experiments, modulation_fit, nls_core, reduced_dynamics
from twobubble.ansatz import BubbleParams

DT = 2e-3


@dataclass
class OpOutcome:
    """What one op produced: an error or not, and the rescaled time covered."""

    ok: bool
    reason: str
    covered: float          # rescaled (or lab) time the op's evolution advanced
    shots: int = 0


class ShootD1:
    """experiments.bisect_zeta at the acceptance configuration, shortened in s."""

    name = "shoot-d1"
    p, d = 3.0, 1
    grid = (1, 2048, 64.0)
    # s0 is sized so a 50 s run holds three or four ops; grid, dt, p and
    # the fit cadence stay those of the acceptance run, so per-step and
    # per-fit costs do too
    config = dict(p=3.0, d=1, s_in=300.0, s0=260.0, N=2048, L=64.0, dt=DT,
                  C_star=10.0, fit_interval=0.5)

    def draw(self, rng) -> dict:
        centre = rng.uniform(-0.05, 0.05)
        half = rng.uniform(1.0, 1.5)
        return {"bracket": (centre - half, centre + half)}

    def run(self, inp: dict, ctx) -> dict:
        cfg = experiments.ShootConfig(zeta_bracket=inp["bracket"], **self.config)
        return {"cfg": cfg, "out": experiments.bisect_zeta(cfg, ctx.gs, ctx.sc)}

    def check(self, inp: dict, res: dict, ctx) -> OpOutcome:
        cfg, out = res["cfg"], res["out"]
        covered = sum(cfg.s_in - deepest for *_, deepest in out["history"])
        shots = len(out["history"])
        lo, hi = out["endpoint_records"]
        rec = out["record"]
        if (lo.exit, hi.exit) != (experiments.EXIT_ZETA_LOW, experiments.EXIT_ZETA_HIGH):
            return OpOutcome(False, f"endpoint exits {lo.exit}, {hi.exit}", covered, shots=shots)
        if rec.exit != experiments.EXIT_REACHED:
            return OpOutcome(False, f"chosen record exit {rec.exit}", covered, shots=shots)
        eps_s = float(np.max(rec.column("eps_h1") * rec.column("s")))
        if eps_s > cfg.C_star:
            return OpOutcome(False, f"max eps_h1*s {eps_s:.3g} > C*", covered, shots=shots)
        slope = experiments.verify_regime(rec, ctx.sc)["fit"]["slope"]
        if abs(slope - 2.0) > 0.1:
            return OpOutcome(False, f"regime slope {slope:.4f}", covered, shots=shots)
        return OpOutcome(True, "", covered, shots=shots)


class ForceD1:
    """Reduced dynamics with the quadrature force along the exact orbit."""

    name = "force-d1"
    p, d = 3.0, 1
    grid = (1, 2048, 64.0)
    span = 4.0          # rescaled time per op; fixes the force-call count at 113
    n_sweep = 8

    def draw(self, rng) -> dict:
        return {"s_start": rng.uniform(10.0, 20.0),
                "sweep": rng.uniform(8.0, 25.0, self.n_sweep)}

    def run(self, inp: dict, ctx) -> dict:
        s = inp["s_start"]
        c = ctx.sc.c
        st = reduced_dynamics.ReducedState(s=s, lam=1.0, z=[2.0 * np.log(s) + np.log(c)],
                                           gamma=0.0, v=[1.0 / s])
        traj = reduced_dynamics.integrate_reduced(st, s + self.span, ctx.gs, ctx.sc,
                                                  tol=1e-9, mode="quadrature",
                                                  n_samples=30)
        H = [ansatz.interaction_force_H([z], ctx.gs)[0] for z in inp["sweep"]]
        return {"traj": traj, "H": np.array(H)}

    def check(self, inp: dict, res: dict, ctx) -> OpOutcome:
        traj = res["traj"]
        covered = float(traj.s[-1] - traj.s[0])
        # criterion 3: H / (C_p e^-z) - 1 within 5/z
        dev = np.abs(res["H"] / (ctx.sc.c_p * np.exp(-inp["sweep"])) - 1.0)
        if np.any(dev > 5.0 / inp["sweep"]):
            return OpOutcome(False, f"force law deviation {dev.max():.3g}", covered)
        # criterion 5: along this orbit the asymptotic-mode solution is
        # z = 2 log s + log c, v = 1/s in closed form
        z_asym = 2.0 * np.log(traj.s) + np.log(ctx.sc.c)
        rel = np.abs(traj.v[:, 0] * traj.s - 1.0)
        if np.any(rel > 10.0 / z_asym):
            return OpOutcome(False, f"quadrature vs asymptotic v {rel.max():.3g}", covered)
        return OpOutcome(True, "", covered)


class FitD2:
    """simulate --snapshot-out then fit --field, on a 256x256 field."""

    name = "fit-d2"
    p, d = 2.0, 2
    grid = (2, 256, 24.0)       # |z|/2 + 10 <= 16 < L/lam for every draw
    chunk = 100                 # simulate's default observables_every
    proj_tol = 1e-9

    def draw(self, rng) -> dict:
        e1 = np.array([1.0, 0.0])
        lam = rng.uniform(0.95, 1.05)
        zlen = rng.uniform(9.0, 12.0)
        gamma = np.pi - 2.0 * np.pi * rng.random()      # (-pi, pi]
        v = rng.uniform(-0.03, 0.03)
        # the guess is perturbed as in test_round_trip_random_draws
        pert = dict(lam=1.0 + 0.02 * rng.standard_normal(),
                    z=0.05 * rng.standard_normal(2), gamma=0.03 * rng.standard_normal(),
                    v=0.002 * rng.standard_normal(2))
        return {"true": BubbleParams(lam=lam, z=zlen * e1, gamma=gamma, v=v * e1),
                "pert": pert}

    def run(self, inp: dict, ctx) -> dict:
        true = inp["true"]
        lam, p = true.lam, self.p
        d, N, L = self.grid
        # P(x / lam) is P sampled on the grid of half-width L / lam
        bare = ansatz.build_two_bubble(true, ctx.gs, nls_core.make_grid(d, N, L / lam))
        u0 = nls_core.ComplexField(ctx.grid, np.exp(1j * true.gamma)
                                   * lam ** (-2.0 / (p - 1.0)) * bare.values)
        u = nls_core.propagate(u0, DT, self.chunk, p)
        t = self.chunk * DT
        path = os.path.join(ctx.scratch, f"fit-d2-{os.getpid()}.snap")
        try:
            nls_core.write_snapshot(path, u, t)
            back, t_back = nls_core.read_snapshot(path)
        finally:
            if os.path.exists(path):
                os.remove(path)
        # free motion over the chunk: z moves by 2 v t / lam^2, gamma by
        # t (1 + |v|^2/4) / lam^2
        w = inp["pert"]
        guess = BubbleParams(
            lam=lam * w["lam"], z=true.z + 2.0 * true.v * t / lam ** 2 + w["z"],
            gamma=true.gamma + t * (1.0 + 0.25 * float(true.v @ true.v)) / lam ** 2
            + w["gamma"], v=true.v + w["v"])
        fit = modulation_fit.decompose(back, guess, ctx.gs, mode="snapshot",
                                       with_fields=False)
        # log s = |z|/2, as on the logarithmic orbit: the momentum cutoff
        # radius is half the separation
        s = float(np.exp(0.5 * np.linalg.norm(fit.params.z)))
        energy = modulation_fit.energy_functional(back, fit.params, s, ctx.gs)
        obs = nls_core.observables(back, p)
        return {"u": u, "t": t, "back": back, "t_back": t_back, "fit": fit,
                "energy": energy, "obs": obs}

    def check(self, inp: dict, res: dict, ctx) -> OpOutcome:
        fit = res["fit"]
        covered = res["t"]
        if not (np.array_equal(res["back"].values, res["u"].values)
                and res["t_back"] == res["t"]):
            return OpOutcome(False, "snapshot did not round-trip bit for bit", covered)
        proj = max(float(np.max(np.abs(np.atleast_1d(v)))) for v in fit.projections.values())
        if proj > self.proj_tol:
            return OpOutcome(False, f"enforced projection {proj:.3g}", covered)
        if not np.isfinite(res["energy"]["W"]) or not np.isfinite(res["obs"].mass):
            return OpOutcome(False, "non-finite diagnostics", covered)
        return OpOutcome(True, "", covered)


WORKLOADS = {w.name: w for w in (ShootD1(), ForceD1(), FitD2())}
