"""Backward topological-shooting experiment at desk scale.

A two-bubble configuration is placed at rescaled time s_in with separation
fixed by the shooting parameter zeta and velocity matched to the marginal
orbit, evolved backward (conjugation time-reversal plus forward split-step),
and tracked with the modulation fit.  Each fit starts from the reduced
system's prediction (``reduced_dynamics.integrate_reduced`` on the ground
state's cached force law), whose velocity it keeps; a collision that the
prediction reaches ends the run.  Runs end on the first violated bound;
bisection over the final-data parameter uses the opposite exit signs at the
bracket endpoints.

A shot runs as a two-stage pipeline.  A propagation worker, forked once per
shot, owns the evolving field and runs its Strang chunks with propagate; the
parent fits each chunk's field, samples its diagnostics and checks the exit
bounds.  A chunk's step count takes the scale fitted at the start of the
chunk before it (the initial data's scale, 1, for the first chunk), so the
parent sends each count right after a fit, while the worker still runs the
chunk before, and the worker never waits for a count.  The records are
bit-identical to running the two stages one after the other, which is what a
shot does in process when fork is missing, fewer than two cores are
available, another thread runs or the process is a daemonic worker.  A
worker's Overflow or StepTooLarge reaches the parent with the chunk it
belongs to, so a chunk the parent never takes cannot change the exit; a
worker that dies raises WorkerLost, and the worker is ended with its shot.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import hashlib
import json
import math
import multiprocessing
import os
import threading
import time
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import brentq

from .ansatz import COLLISION_SEP, BubbleParams, build_two_bubble
from .ansatz import interaction_force_H  # noqa: F401  (the bench tracer wraps this name)
from .errors import (CollisionDetected, FitLost, InvalidConfig, IoFailure, NoSignChange,
                     Overflow, StepTooLarge, WindowTooShort, WorkerLost)
from .groundstate import GroundState, StructureConstants, solve_profile, structure_constants
from .modulation_fit import decompose, energy_functional
from .nls_core import ComplexField, make_grid, observables, propagate
from .reduced_dynamics import ReducedState, integrate_reduced

EXIT_REACHED = "reached_s0"
EXIT_ZETA_HIGH = "exited_zeta_high"
EXIT_ZETA_LOW = "exited_zeta_low"
EXIT_EPS = "exited_eps"
EXIT_COLLISION = "collision"
EXIT_BLOWUP = "blowup"
EXITS = (EXIT_REACHED, EXIT_ZETA_HIGH, EXIT_ZETA_LOW, EXIT_EPS, EXIT_COLLISION, EXIT_BLOWUP)
# the sample keys that verify_regime and write_trajectory_csv read
SAMPLE_KEYS = ("s", "t", "lam", "z", "gamma", "v", "eps_h1", "zeta", "xi", "W")

# Hashed with every config: raise it when a config's record changes, so that a
# sweep registry of older records does not count as done (2: cached force law;
# 3: a chunk's step count takes the scale fitted one chunk earlier, which moves
# the acceptance record from sample 532 on; 4: the reduced system predicts each
# fit, and a collision it predicts ends the shot).
RECORD_SCHEMA = 4


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
        try:
            lo, hi = map(float, self.zeta_bracket)
        except (TypeError, ValueError):
            lo = hi = math.nan
        for ok, why in (
                (self.d in (1, 2), f"d must be 1 or 2 (the force rule's), got {self.d}"),
                (self.s_in > self.s0 > 1.0, f"need s_in > s0 > 1, got {self.s_in}, {self.s0}"),
                (self.C_star > 1.0, f"C_star must exceed 1, got {self.C_star}"),
                (self.dt > 0.0, f"dt must be > 0, got {self.dt}"),
                (self.fit_interval > 0.0, f"fit_interval must be > 0, got {self.fit_interval}"),
                (self.newton_tol > 0.0, f"newton_tol must be > 0, got {self.newton_tol}"),
                (math.isfinite(lo) and math.isfinite(hi) and lo < hi,
                 f"zeta_bracket must be two finite numbers lo < hi, got {self.zeta_bracket!r}")):
            if not ok:
                raise InvalidConfig(why)
        object.__setattr__(self, "zeta_bracket", (lo, hi))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ShootConfig":
        return cls(**data)


def config_hash(config: ShootConfig, zeta_sharp: float) -> str:
    payload = json.dumps({"config": config.to_dict(), "zeta_sharp": zeta_sharp,
                          "schema": RECORD_SCHEMA}, sort_keys=True)
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
        """The record ``to_dict`` wrote; IoFailure on a missing key, a sample
        without one of ``SAMPLE_KEYS``, an unknown config key, an unknown exit,
        or a stored hash that does not match the config and zeta_sharp (an
        edited record, or one of another schema)."""
        try:
            record = cls(config=ShootConfig.from_dict(data["config"]),
                         zeta_sharp=data["zeta_sharp"], samples=data["samples"],
                         exit=data["exit"], phi=data["phi"],
                         wall_time=data["wall_time"])
            stored = data["hash"]
        except KeyError as exc:
            raise IoFailure(f"run record has no key {exc}") from exc
        except TypeError as exc:
            raise IoFailure(f"run record config: {exc}") from exc
        for i, smp in enumerate(record.samples):
            missing = [k for k in SAMPLE_KEYS if not isinstance(smp, dict) or k not in smp]
            if missing:
                raise IoFailure(f"run record sample {i} has no key {', '.join(missing)}")
        if record.exit not in EXITS:
            raise IoFailure(f"run record exit {record.exit!r} is not one of {EXITS}")
        expected = config_hash(record.config, record.zeta_sharp)
        if stored != expected:
            raise IoFailure(f"run record hash {stored!r} does not match its config "
                            f"({expected!r} at schema {RECORD_SCHEMA})")
        return record


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


def _serve(conn, u: ComplexField, dt: float, p: float) -> None:
    """Worker loop: answer each count with the chunk's field or its error."""
    try:
        while True:
            n = conn.recv()
            try:
                u = propagate(u, dt, n, p)
            except (Overflow, StepTooLarge) as exc:
                conn.send((None, exc))
                return
            conn.send((u.values, None))
    except (EOFError, KeyboardInterrupt):
        return


def _pipelined() -> bool:
    """Fork a propagation worker: fork exists, two cores are ours, and no
    other thread runs and no daemonic process forks (it may not have children)."""
    return ("fork" in multiprocessing.get_all_start_methods()
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1
            and not multiprocessing.current_process().daemon)


class _Propagation:
    """The propagation stage of a shot: a forked worker, or in process.

    ``send(n)`` queues a chunk of n steps and ``recv()`` returns the field
    after the oldest queued chunk, raising its Overflow or StepTooLarge.
    Without a worker, ``recv`` runs that chunk itself.  ``close`` ends the
    worker.
    """

    def __init__(self, u: ComplexField, dt: float, p: float):
        self.u, self.dt, self.p = u, dt, p
        self.counts = collections.deque()
        self.proc = None
        if _pipelined():
            ctx = multiprocessing.get_context("fork")
            self.conn, child = ctx.Pipe()
            self.proc = ctx.Process(target=_serve, args=(child, u, dt, p), daemon=True)
            try:
                self.proc.start()
            finally:
                child.close()

    def send(self, n: int) -> None:
        if self.proc is None:
            self.counts.append(n)
            return
        # a worker that ended after an error left that error for recv, and a
        # dead one leaves recv its end of the pipe
        with contextlib.suppress(OSError):
            self.conn.send(n)

    def recv(self) -> np.ndarray:
        if self.proc is None:
            self.u = propagate(self.u, self.dt, self.counts.popleft(), self.p)
            return self.u.values
        try:
            values, exc = self.conn.recv()
        except (EOFError, OSError):
            raise self._lost() from None
        if exc is not None:
            raise exc
        return values

    def _lost(self) -> WorkerLost:
        self.proc.join(1.0)
        return WorkerLost(f"propagation worker died with exit code {self.proc.exitcode}")

    def close(self) -> None:
        if self.proc is None:
            return
        self.proc.terminate()
        self.proc.join(1.0)
        if self.proc.exitcode is None:
            self.proc.kill()
            self.proc.join()
        self.proc.close()
        self.proc = None
        self.conn.close()


def backward_shoot(config: ShootConfig, zeta_sharp: float,
                   gs: GroundState | None = None,
                   constants: StructureConstants | None = None) -> RunRecord:
    """One backward run with tracking fits and monitored exit bounds.

    The chunks run in a forked worker when ``_pipelined()`` allows it (see
    the module docstring); a worker that dies raises WorkerLost.
    """
    t_start = time.perf_counter()
    if gs is None:
        gs = solve_profile(config.p, config.d)
    if constants is None:
        constants = structure_constants(gs)
    grid = make_grid(config.d, config.N, config.L)
    params, _ = initial_data(config, zeta_sharp, constants)

    u_in = build_two_bubble(params, gs, grid)
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
               "eps_h1": fit.eps_h1,
               "zeta": float(zeta), "xi": float(xi), "W": energy["W"],
               "proj_igradq": float(np.max(np.abs(fit.projections["igradQ"]))),
               "mass": obs.mass, "momentum": [float(m) for m in obs.momentum]}
        samples.append(smp)
        return smp

    def chunk_steps(s_now: float, lam: float) -> int:
        ds = min(config.fit_interval, s_now - config.s0)
        return max(1, int(round(lam ** 2 * ds / config.dt)))

    # the work field evolves forward while u runs backward
    stage = _Propagation(ComplexField(grid, np.conj(u_in.values)), config.dt, config.p)
    try:
        n_steps = chunk_steps(s, params.lam)    # the initial data's scale, 1
        stage.send(n_steps)
        fit = decompose(u_in, params, gs, mode="tracking", v_override=params.v,
                        with_fields=False, xtol=config.newton_tol)
        params = fit.params
        u_now = u_in
        while True:
            # the running chunk ends at s_next; the next one takes this fit's
            # scale too, so its count is sent before the worker needs it
            dt_chunk = n_steps * config.dt
            s_next = s - dt_chunk / params.lam ** 2
            n_steps = chunk_steps(s_next, params.lam)
            if s_next > config.s0:
                stage.send(n_steps)

            smp = push_sample(u_now, params, s, t_lab, fit)
            side = 1 if smp["zeta"] >= s else -1
            # the initial sample is not checked: at zeta# = +-1 it sits on xi = 1
            if u_now is not u_in:
                if smp["xi"] >= 1.0:
                    exit_tag, phi = (EXIT_ZETA_HIGH if side > 0 else EXIT_ZETA_LOW), side
                    break
                if smp["eps_h1"] > config.C_star / s:
                    exit_tag, phi = EXIT_EPS, side
                    break
                if float(np.linalg.norm(params.z)) < COLLISION_SEP:
                    exit_tag, phi = EXIT_COLLISION, -1
                    break
            if s <= config.s0:
                break

            # the reduced system predicts the next fit; |z| reaching the
            # collision threshold on the way ends the shot here
            try:
                pred = integrate_reduced(
                    ReducedState(s, params.lam, params.z, params.gamma, params.v), s_next,
                    gs, constants, tol=1e-11, mode="quadrature", n_samples=2).state(-1)
            except CollisionDetected:
                exit_tag, phi = EXIT_COLLISION, -1
                break
            guess = BubbleParams(lam=pred.lam, z=pred.z, gamma=pred.gamma, v=pred.v)

            try:
                values = stage.recv()
            except Overflow:
                exit_tag, phi = EXIT_BLOWUP, side
                break
            u_now = ComplexField(grid, np.conj(values))
            t_lab -= dt_chunk
            s = s_next

            try:
                fit = decompose(u_now, guess, gs, mode="tracking", v_override=guess.v,
                                with_fields=False, xtol=config.newton_tol)
            except Exception as exc:
                raise FitLost(f"tracking fit failed at s={s:.2f}: {exc}") from exc
            # unwrap the phase onto the predicted branch
            gamma = guess.gamma + np.angle(np.exp(1j * (fit.params.gamma - guess.gamma)))
            params = BubbleParams(lam=fit.params.lam, z=fit.params.z, gamma=gamma, v=guess.v)
    finally:
        stage.close()

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
    rec_lo = backward_shoot(config, lo, gs, constants)
    rec_hi = backward_shoot(config, hi, gs, constants)
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
        rec = backward_shoot(config, mid, gs, constants)
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
