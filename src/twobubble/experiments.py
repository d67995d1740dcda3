"""Backward topological-shooting experiment at desk scale.

A two-bubble configuration is placed at rescaled time s_in with separation
fixed by the shooting parameter zeta and velocity matched to the marginal
orbit, evolved backward (conjugation time-reversal plus forward split-step),
and tracked with the modulation fit; runs terminate on the first violated
monitoring bound.  Bisection over the final-data parameter exploits the
opposite exit signs at the bracket endpoints.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .ansatz import COLLISION_SEP, BubbleParams, build_two_bubble, interaction_force_H
from .errors import (FitLost, IoFailure, NoSignChange, Overflow, QuadratureFailure,
                     WindowTooShort)
from .groundstate import GroundState, StructureConstants, solve_profile, structure_constants
from .modulation_fit import decompose, energy_functional
from .nls_core import ComplexField, make_grid, observables, propagate

EXIT_REACHED = "reached_s0"
EXIT_ZETA_HIGH = "exited_zeta_high"
EXIT_ZETA_LOW = "exited_zeta_low"
EXIT_EPS = "exited_eps"
EXIT_COLLISION = "collision"
EXIT_BLOWUP = "blowup"


@dataclass(frozen=True)
class ShootConfig:
    """Desk-scale experiment configuration."""

    p: float = 3.0
    d: int = 1
    s_in: float = 300.0
    s0: float = 30.0
    N: int = 2048
    L: float = 64.0
    dt: float = 2e-3
    C_star: float = 10.0
    zeta_bracket: tuple = (-1.0, 1.0)
    fit_interval: float = 0.5
    newton_tol: float = 1e-12

    def __post_init__(self):
        if not self.s_in > self.s0 > 1.0:
            raise ValueError(f"need s_in > s0 > 1, got {self.s_in}, {self.s0}")
        if self.C_star <= 1.0:
            raise ValueError(f"C_star must exceed 1, got {self.C_star}")
        object.__setattr__(self, "zeta_bracket", tuple(self.zeta_bracket))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ShootConfig":
        return cls(**data)


def config_hash(config: ShootConfig, zeta_sharp: float) -> str:
    payload = json.dumps({"config": config.to_dict(), "zeta_sharp": zeta_sharp},
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class RunRecord:
    """Persisted outcome of one backward shot."""

    config: ShootConfig
    zeta_sharp: float
    samples: list          # dicts with s, t, lam, z, gamma, v, diagnostics
    exit: str
    phi: int               # sign of zeta - s at exit; 0 when s0 was reached
    wall_time: float

    @property
    def deepest_s(self) -> float:
        return self.samples[-1]["s"]

    def column(self, key: str) -> np.ndarray:
        return np.array([smp[key] for smp in self.samples])

    def to_dict(self) -> dict:
        return {"config": self.config.to_dict(), "zeta_sharp": self.zeta_sharp,
                "samples": self.samples, "exit": self.exit, "phi": self.phi,
                "wall_time": self.wall_time,
                "hash": config_hash(self.config, self.zeta_sharp)}

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        return cls(config=ShootConfig.from_dict(data["config"]),
                   zeta_sharp=data["zeta_sharp"], samples=data["samples"],
                   exit=data["exit"], phi=data["phi"],
                   wall_time=data["wall_time"])


def write_trajectory_csv(record: RunRecord, path) -> None:
    d = record.config.d
    cols = (["s", "t", "lambda"] + [f"z{i+1}" for i in range(d)] + ["gamma"]
            + [f"v{i+1}" for i in range(d)]
            + ["eps_h1", "zeta", "xi", "W"])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for smp in record.samples:
            row = [smp["s"], smp["t"], smp["lam"], *smp["z"], smp["gamma"],
                   *smp["v"], smp["eps_h1"], smp["zeta"], smp["xi"], smp["W"]]
            w.writerow(row)


def zeta_of_separation(zlen: float, c: float, d: int) -> float:
    """zeta = c^(-1/2) |z|^((d-1)/4) e^(|z|/2)."""
    return zlen ** (0.25 * (d - 1)) * np.exp(0.5 * zlen) / np.sqrt(c)


def separation_of_zeta(zeta: float, c: float, d: int) -> float:
    """Invert the zeta relation for the separation."""
    target = np.log(np.sqrt(c) * zeta)
    if d == 1:
        return 2.0 * target
    return brentq(lambda z: 0.25 * (d - 1) * np.log(z) + 0.5 * z - target,
                  1e-3, 2.5 * target + 10.0, xtol=1e-13)


class _ForceTable:
    """Spline of log H(|z|) on [z_lo, z_hi] built once per run; keeps the v-slaving cheap.

    Calls outside the range raise QuadratureFailure instead of extrapolating.
    """

    def __init__(self, gs: GroundState, z_lo: float, z_hi: float, n: int = 220):
        zz = np.linspace(z_lo, z_hi, n)
        vals = np.array([interaction_force_H([z], gs, min_sep=2.0)[0] for z in zz])
        self._spline = CubicSpline(zz, np.log(vals))
        self.z_lo, self.z_hi = z_lo, z_hi

    def __call__(self, zlen: float) -> float:
        if not self.z_lo <= zlen <= self.z_hi:
            raise QuadratureFailure(
                f"|z| = {zlen:.6g} outside the force table range "
                f"[{self.z_lo:.6g}, {self.z_hi:.6g}]")
        return float(np.exp(self._spline(zlen)))


def _slave_velocity(z_vec: np.ndarray, v_vec: np.ndarray, s_from: float,
                    s_to: float, c2: float, table: _ForceTable):
    """Advance (z, v) by the slaving law z' = 2v, v' = -(2/c2) H(z)."""
    d = z_vec.size

    def rhs(s, y):
        z, v = y[:d], y[d:]
        zlen = float(np.linalg.norm(z))
        return np.concatenate([2.0 * v, -(2.0 / c2) * table(zlen) * z / zlen])

    sol = solve_ivp(rhs, (s_from, s_to), np.concatenate([z_vec, v_vec]),
                    method="DOP853", rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise FitLost(f"velocity slaving failed: {sol.message}")
    return sol.y[:d, -1], sol.y[d:, -1]


def initial_data(config: ShootConfig, zeta_sharp: float,
                 constants: StructureConstants) -> tuple[BubbleParams, float]:
    """Final-time parameters from the shooting variable."""
    s_in = config.s_in
    zeta_in = s_in + zeta_sharp * s_in / np.sqrt(np.log(s_in))
    z_in = separation_of_zeta(zeta_in, constants.c, config.d)
    e1 = np.zeros(config.d)
    e1[0] = 1.0
    v_in = np.sqrt(constants.c) * z_in ** (-0.25 * (config.d - 1)) \
        * np.exp(-0.5 * z_in)
    return BubbleParams(lam=1.0, z=z_in * e1, gamma=0.0, v=v_in * e1), zeta_in


def backward_shoot(config: ShootConfig, zeta_sharp: float,
                   gs: GroundState | None = None,
                   constants: StructureConstants | None = None,
                   force_table: _ForceTable | None = None) -> RunRecord:
    """One backward run with tracking fits and monitored exit bounds."""
    t_start = time.perf_counter()
    if gs is None:
        gs = solve_profile(config.p, config.d)
    if constants is None:
        constants = structure_constants(gs)
    grid = make_grid(config.d, config.N, config.L)
    params, _ = initial_data(config, zeta_sharp, constants)
    table = force_table if force_table is not None else _ForceTable(
        gs, 4.5, float(np.linalg.norm(params.z)) + 2.0)

    u_in = build_two_bubble(params, gs, grid)
    work = u_in.conj()          # evolves forward while u runs backward
    s = config.s_in
    t_lab = config.s_in         # convention t(s_in) = s_in

    samples: list[dict] = []
    exit_tag = EXIT_REACHED
    phi = 0

    def push_sample(u_now: ComplexField, pars: BubbleParams, s_now: float,
                    t_now: float, fit) -> dict:
        zlen = float(np.linalg.norm(pars.z))
        zeta = zeta_of_separation(zlen, constants.c, config.d)
        xi = (zeta - s_now) ** 2 / s_now ** 2 * np.log(s_now)
        energy = energy_functional(u_now, pars, s_now, gs)
        obs = observables(u_now, config.p)
        smp = {"s": s_now, "t": t_now, "lam": pars.lam,
               "z": [float(x) for x in pars.z], "gamma": pars.gamma,
               "v": [float(x) for x in pars.v],
               "eps_h1": fit.eps_h1 if fit is not None else 0.0,
               "zeta": float(zeta), "xi": float(xi), "W": energy["W"],
               "proj_igradq": float(np.max(np.abs(fit.projections["igradQ"])))
               if fit is not None else 0.0,
               "mass": obs.mass, "momentum": [float(m) for m in obs.momentum]}
        samples.append(smp)
        return smp

    fit0 = decompose(u_in, params, gs, mode="tracking", v_override=params.v,
                     with_fields=False, xtol=config.newton_tol)
    push_sample(u_in, fit0.params, s, t_lab, fit0)
    params = fit0.params
    gamma_track = params.gamma

    while s > config.s0:
        ds = min(config.fit_interval, s - config.s0)
        n_steps = max(1, int(round(params.lam ** 2 * ds / config.dt)))
        dt_chunk = n_steps * config.dt
        ds_actual = dt_chunk / params.lam ** 2
        s_next = s - ds_actual

        z_pred, v_next = _slave_velocity(params.z, params.v, s, s_next,
                                         constants.c2, table)
        gamma_pred = gamma_track - ds_actual * (1.0 + 0.25 * float(params.v @ params.v))
        guess = BubbleParams(lam=params.lam, z=z_pred, gamma=gamma_pred, v=v_next)

        try:
            work = propagate(work, config.dt, n_steps, config.p)
        except Overflow:
            exit_tag = EXIT_BLOWUP
            break
        u_now = work.conj()
        t_lab -= dt_chunk
        s = s_next

        try:
            fit = decompose(u_now, guess, gs, mode="tracking", v_override=v_next,
                            with_fields=False, xtol=config.newton_tol)
        except Exception as exc:
            raise FitLost(f"tracking fit failed at s={s:.2f}: {exc}") from exc
        # unwrap the phase onto the predicted branch
        wrapped = fit.params.gamma
        gamma_track = gamma_pred + np.angle(np.exp(1j * (wrapped - gamma_pred)))
        params = BubbleParams(lam=fit.params.lam, z=fit.params.z,
                              gamma=gamma_track, v=v_next)

        smp = push_sample(u_now, params, s, t_lab, fit)

        if smp["xi"] >= 1.0:
            exit_tag = EXIT_ZETA_HIGH if smp["zeta"] >= s else EXIT_ZETA_LOW
            phi = 1 if smp["zeta"] >= s else -1
            break
        if smp["eps_h1"] > config.C_star / s:
            exit_tag = EXIT_EPS
            phi = 1 if smp["zeta"] >= s else -1
            break
        if float(np.linalg.norm(params.z)) < COLLISION_SEP:
            exit_tag = EXIT_COLLISION
            phi = -1
            break

    if exit_tag in (EXIT_BLOWUP,):
        phi = 1 if samples and samples[-1]["zeta"] >= samples[-1]["s"] else -1
    return RunRecord(config=config, zeta_sharp=zeta_sharp, samples=samples,
                     exit=exit_tag, phi=phi,
                     wall_time=time.perf_counter() - t_start)


def bisect_zeta(config: ShootConfig, gs: GroundState | None = None,
                constants: StructureConstants | None = None,
                max_iter: int = 48, min_width: float = 1e-13) -> dict:
    """Bisect the shooting parameter until a run reaches s0.

    Returns the star value, the deepest record, and the bisection history.
    Raises NoSignChange when the bracket endpoints exit on the same side.
    """
    if gs is None:
        gs = solve_profile(config.p, config.d)
    if constants is None:
        constants = structure_constants(gs)
    lo, hi = config.zeta_bracket
    widest, _ = initial_data(config, hi, constants)
    table = _ForceTable(gs, 4.5, float(np.linalg.norm(widest.z)) + 2.0)
    rec_lo = backward_shoot(config, lo, gs, constants, table)
    rec_hi = backward_shoot(config, hi, gs, constants, table)
    endpoints = (rec_lo, rec_hi)
    history = [(lo, rec_lo.exit, rec_lo.phi, rec_lo.deepest_s),
               (hi, rec_hi.exit, rec_hi.phi, rec_hi.deepest_s)]
    if rec_lo.exit == EXIT_REACHED:
        return {"zeta_sharp_star": lo, "record": rec_lo, "history": history,
                "endpoint_records": endpoints}
    if rec_hi.exit == EXIT_REACHED:
        return {"zeta_sharp_star": hi, "record": rec_hi, "history": history,
                "endpoint_records": endpoints}
    if rec_lo.phi == rec_hi.phi:
        raise NoSignChange(
            f"both endpoints exited with phi={rec_lo.phi}",
            records=(rec_lo, rec_hi))

    deepest = rec_lo if rec_lo.deepest_s < rec_hi.deepest_s else rec_hi
    for _ in range(max_iter):
        if hi - lo < min_width:
            break
        mid = 0.5 * (lo + hi)
        rec = backward_shoot(config, mid, gs, constants, table)
        history.append((mid, rec.exit, rec.phi, rec.deepest_s))
        if rec.exit == EXIT_REACHED:
            return {"zeta_sharp_star": mid, "record": rec, "history": history,
                    "endpoint_records": endpoints}
        if rec.deepest_s < deepest.deepest_s:
            deepest = rec
        if rec.phi > 0:
            hi = mid
        else:
            lo = mid
    return {"zeta_sharp_star": 0.5 * (lo + hi), "record": deepest,
            "history": history, "endpoint_records": endpoints}


def fit_log_separation(t: np.ndarray, dx: np.ndarray, d: int = 1) -> dict:
    """Least squares of separation against slope*log t + intercept.

    For d > 1 the known -((d-1)/2) log log t correction is removed first.
    Returns slope, the constant C of the regime form (C = -intercept), and
    the rms residual.
    """
    t = np.asarray(t, dtype=float)
    dx = np.asarray(dx, dtype=float)
    if t.size < 4:
        raise WindowTooShort(f"need at least 4 samples, got {t.size}")
    y = dx + 0.5 * (d - 1) * np.log(np.log(t))
    basis = np.column_stack([np.log(t), np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    resid = float(np.sqrt(np.mean((basis @ coef - y) ** 2)))
    return {"slope": float(coef[0]), "intercept": float(coef[1]),
            "C": float(-coef[1]), "residual": resid}


def verify_regime(record: RunRecord, constants: StructureConstants) -> dict:
    """Post-hoc checks of the logarithmic regime on a run that reached s0."""
    if record.exit != EXIT_REACHED:
        raise WindowTooShort(f"run exited early ({record.exit})")
    s = record.column("s")
    t = record.column("t")
    lam = record.column("lam")
    z = np.array([smp["z"] for smp in record.samples])
    v = np.array([smp["v"] for smp in record.samples])
    eps = record.column("eps_h1")
    zlen = np.linalg.norm(z, axis=1)
    dx = lam * zlen

    fit = fit_log_separation(t, dx, record.config.d)
    tube = zlen ** (0.5 * (record.config.d - 1)) * np.exp(zlen) / (constants.c * s ** 2)
    margin = np.log(s) ** (-0.5)
    return {
        "fit": fit,
        "sup_lam_dev_t": float(np.max(np.abs(1.0 / lam - 1.0) * t)),
        "sup_v_t": float(np.max(np.linalg.norm(v, axis=1) * t)),
        "sup_eps_t": float(np.max(eps * t)),
        "tube_ok": bool(np.all((tube >= 1.0 - margin) & (tube <= 1.0 + margin))),
        "tube_max_dev": float(np.max(np.abs(tube - 1.0) * np.sqrt(np.log(s)))),
    }


def run_sweep(configs: list[ShootConfig], registry_path,
              gs: GroundState | None = None,
              constants: StructureConstants | None = None) -> list[dict]:
    """Run one shot per config (bracket midpoint), appending to the registry.

    Idempotent: configs whose hash already sits in the registry are skipped.
    The registry is opened for append before the first shot, so an
    unwritable path fails at once.  A torn last line (an append cut short:
    no newline and not JSON) is skipped and cut off before the first
    append; any other line that does not parse raises ``IoFailure``.
    """
    seen = set()
    try:
        with open(registry_path, "rb") as fh:
            lines = fh.read().split(b"\n")
    except FileNotFoundError:
        lines = []
    except OSError as exc:
        raise IoFailure(f"cannot read registry: {exc}") from exc
    torn_at = None
    offset = 0
    for number, line in enumerate(lines, 1):
        if line.strip():
            try:
                seen.add(json.loads(line).get("hash"))
            except (ValueError, AttributeError) as exc:
                if number < len(lines):
                    raise IoFailure(f"registry {registry_path}: line {number} "
                                    f"is not a JSON record ({exc})") from exc
                torn_at = offset
        offset += len(line) + 1
    if not configs:
        return []
    try:
        with open(registry_path, "ab") as fh:
            if torn_at is not None:
                fh.truncate(torn_at)
            elif lines and lines[-1]:
                fh.write(b"\n")
    except OSError as exc:
        raise IoFailure(f"cannot append to registry: {exc}") from exc

    results = []
    for config in configs:
        zeta = 0.5 * (config.zeta_bracket[0] + config.zeta_bracket[1])
        h = config_hash(config, zeta)
        if h in seen:
            results.append({"hash": h, "status": "duplicate", "record": None})
            continue
        use_gs = gs if gs is not None and gs.p == config.p and gs.d == config.d \
            else solve_profile(config.p, config.d)
        use_sc = constants if gs is use_gs and constants is not None \
            else structure_constants(use_gs)
        record = backward_shoot(config, zeta, use_gs, use_sc)
        try:
            with open(registry_path, "a") as fh:
                fh.write(json.dumps(record.to_dict()) + "\n")
        except OSError as exc:
            raise IoFailure(f"cannot append to registry: {exc}") from exc
        seen.add(h)
        results.append({"hash": h, "status": "ran", "record": record})
    return results
