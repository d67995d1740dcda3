"""Backward topological-shooting experiment at desk scale.

A two-bubble configuration is placed at rescaled time s_in with separation
fixed by the shooting parameter zeta and velocity matched to the marginal
orbit, evolved backward (conjugation time-reversal plus forward split-step),
and tracked with the modulation fit.  Each pass of a shot fits the field,
samples it, asks ``_exit_of`` whether the sample ends the shot, predicts the
next fit (``reduced_dynamics.integrate_reduced`` on the ground state's cached
force law; the fit keeps its velocity) and receives the next chunk's field.
A predicted collision, a worker's Overflow and a lost fit end the shot as
exits too; only a lost initial fit, with no sample, raises FitLost.
Bisection over the final-data parameter uses the opposite exit signs at the
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
``RunRecord.save`` alone writes a record file and ``read_record_json`` alone
reads one; ``run_sweep``'s registry is a directory of them, one per config.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import json
import math
import multiprocessing
import os
import threading
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from .ansatz import COLLISION_SEP, BubbleParams, build_two_bubble
from .ansatz import interaction_force_H  # noqa: F401  (the bench tracer wraps this name)
from .errors import (CollisionDetected, FitLost, InvalidConfig, IoFailure, NoSignChange,
                     Overflow, StepTooLarge, TwoBubbleError, WindowTooShort, WorkerLost)
from .groundstate import GroundState, StructureConstants, solve_profile, structure_constants
from .modulation_fit import decompose, energy_functional
from .nls_core import ComplexField, make_grid, observables, propagate, write_atomically
from .reduced_dynamics import ReducedState, integrate_reduced

EXIT_REACHED = "reached_s0"
EXIT_ZETA_HIGH = "exited_zeta_high"
EXIT_ZETA_LOW = "exited_zeta_low"
EXIT_EPS = "exited_eps"
EXIT_COLLISION = "collision"
EXIT_BLOWUP = "blowup"
EXIT_FIT_LOST = "fit_lost"
EXITS = (EXIT_REACHED, EXIT_ZETA_HIGH, EXIT_ZETA_LOW, EXIT_EPS, EXIT_COLLISION, EXIT_BLOWUP,
         EXIT_FIT_LOST)
# the sample keys that from_dict checks and compare_records and the CSV read
SAMPLE_KEYS = ("s", "t", "lam", "z", "gamma", "v", "eps_h1", "zeta", "xi", "W")
# Bracket width in zeta_sharp below which ``bisect_zeta`` stops halving, and
# the most halvings it makes
_BRACKET_MIN_WIDTH = 1e-13
_BISECT_MAX_ITER = 48

# Hashed with every config: raise it when a config's record changes, so that a
# sweep registry of older records does not count as done (CHANGES.md gives the
# reason for each value).  9: ||Q||^2 is integrated by the radial rule of I_Q,
# not by Simpson's rule on the profile mesh, whose step went 1e-3 -> 2e-3; c
# and the cell table move, and the acceptance record past 1e-10.
RECORD_SCHEMA = 9


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
        # checked as given, not coerced: the hash reads the values as they are
        for name in ("p", "d", "s_in", "s0", "N", "L", "dt", "C_star", "fit_interval",
                     "newton_tol"):
            value, kind = getattr(self, name), int if name in ("d", "N") else float
            if (isinstance(value, bool) or not isinstance(value, (int, kind))
                    or isinstance(value, float) and not math.isfinite(value)):
                raise InvalidConfig(f"{name} must be a finite {kind.__name__}, got {value!r}")
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
        _zeta_in(self.s_in, lo)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ShootConfig":
        return cls(**data)


def config_hash(config: ShootConfig, zeta_sharp: float) -> str:
    return _hash_at(config, zeta_sharp, RECORD_SCHEMA)


def _hash_at(config: ShootConfig, zeta_sharp: float, schema: int) -> str:
    payload = json.dumps({"config": config.to_dict(), "zeta_sharp": zeta_sharp,
                          "schema": schema}, sort_keys=True)
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
        record, schema = cls.from_any_schema(data)
        if schema != RECORD_SCHEMA:
            found = "no schema" if schema is None else f"schema {schema}"
            raise IoFailure(f"run record hash {data['hash']!r} does not match its config "
                            f"({config_hash(record.config, record.zeta_sharp)!r} at schema "
                            f"{RECORD_SCHEMA}; the stored hash matches {found})")
        return record

    @classmethod
    def from_any_schema(cls, data: dict) -> tuple["RunRecord", int | None]:
        """The record ``to_dict`` wrote, with every check of ``from_dict`` but
        the stored hash's, and the schema up to RECORD_SCHEMA whose hash of
        the config and zeta_sharp it stores: None when none does (an edited
        record)."""
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
        schema = next((k for k in range(RECORD_SCHEMA, 0, -1)
                       if _hash_at(record.config, record.zeta_sharp, k) == stored), None)
        return record, schema

    def save(self, path) -> None:
        """Write the record atomically as one line of sorted-key JSON."""
        write_atomically(path, "run record",
                         (json.dumps(self.to_dict(), sort_keys=True) + "\n").encode())


def read_record_json(path) -> dict:
    """A run record file's JSON; IoFailure if it is unreadable or not a JSON object."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise IoFailure(f"cannot read run record {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise IoFailure(f"run record {path} is not a JSON object")
    return data


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


def _zeta_in(s_in: float, zeta_sharp: float) -> float:
    """zeta(s_in) = s_in (1 + zeta#/sqrt(log s_in)), so that xi(s_in) = zeta#^2;
    InvalidConfig where no separation has it, for zeta# <= -sqrt(log s_in)."""
    value = s_in + zeta_sharp * s_in / np.sqrt(np.log(s_in))
    if not (math.isfinite(value) and value > 0.0):
        raise InvalidConfig(f"zeta_sharp {zeta_sharp} (a shot's, or a zeta_bracket end) must be "
                            f"finite, > -sqrt(log s_in) = {-math.sqrt(math.log(s_in)):.6g}")
    return value


def initial_data(config: ShootConfig, zeta_sharp: float,
                 constants: StructureConstants) -> tuple[BubbleParams, float]:
    """Final-time parameters from the shooting variable; InvalidConfig when
    zeta(s_in) puts the pair at or inside the collision threshold."""
    zeta_in = _zeta_in(config.s_in, zeta_sharp)
    zeta_min = zeta_of_separation(COLLISION_SEP, constants.c, config.d)
    if zeta_in <= zeta_min:
        raise InvalidConfig(f"zeta_sharp {zeta_sharp} gives zeta(s_in) = {zeta_in:.6g}, at or "
                            f"below {zeta_min:.6g}, the zeta of |z| = {COLLISION_SEP}")
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


def _side(smp: dict) -> int:
    """The side of the tube a sample leaves by: 1 when zeta >= s, else -1."""
    return 1 if smp["zeta"] >= smp["s"] else -1


def _exit_of(smp: dict, config: ShootConfig) -> tuple[str, int] | None:
    """The exit a checked sample trips, as (tag, phi), or None; in order, xi >= 1
    (zeta_high/low, phi the side), eps_h1 > C*/s (exited_eps, the side),
    |z| < COLLISION_SEP (collision, -1) and s <= s0 (reached_s0, 0)."""
    side = _side(smp)
    if smp["xi"] >= 1.0:
        return (EXIT_ZETA_HIGH if side > 0 else EXIT_ZETA_LOW), side
    if smp["eps_h1"] > config.C_star / smp["s"]:
        return EXIT_EPS, side
    if float(np.linalg.norm(smp["z"])) < COLLISION_SEP:
        return EXIT_COLLISION, -1
    return (EXIT_REACHED, 0) if smp["s"] <= config.s0 else None


# the stage failures that end a shot after its first sample, as exits: phi -1
# for a collision, else the last sample's side
_FAILURE_EXITS = {CollisionDetected: EXIT_COLLISION, Overflow: EXIT_BLOWUP,
                  FitLost: EXIT_FIT_LOST}


def _sample(u: ComplexField, fit, params: BubbleParams, s: float, t: float,
            gs: GroundState, constants: StructureConstants, config: ShootConfig) -> dict:
    """A record's sample of u at s: the fitted params (phase unwrapped),
    zeta and xi, W and eps_h1, the largest i grad Q projection, mass and momentum."""
    zeta = zeta_of_separation(float(np.linalg.norm(params.z)), constants.c, config.d)
    # the fit's own phase, in (-pi, pi], builds eps_lab: e^{i gamma} at the
    # unwrapped one (hundreds of radians) carries its |gamma| 2^-53 rounding
    energy = energy_functional(u, replace(params, gamma=fit.params.gamma), s, gs)
    obs = observables(u, config.p)
    return {"s": s, "t": t, "lam": params.lam, "z": [float(x) for x in params.z],
            "gamma": params.gamma, "v": [float(x) for x in params.v],
            "eps_h1": energy["eps_h1"], "zeta": float(zeta),
            "xi": float((zeta - s) ** 2 / s ** 2 * np.log(s)), "W": energy["W"],
            "proj_igradq": float(np.max(np.abs(fit.projections["igradQ"]))),
            "mass": obs.mass, "momentum": [float(m) for m in obs.momentum]}


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
    guess, _ = initial_data(config, zeta_sharp, constants)
    u_now = build_two_bubble(guess, gs, grid)
    s = t_lab = config.s_in         # convention t(s_in) = s_in
    samples: list[dict] = []

    def chunk_steps(s_now: float, lam: float) -> int:
        ds = min(config.fit_interval, s_now - config.s0)
        return max(1, int(round(lam ** 2 * ds / config.dt)))

    # the work field evolves forward while u runs backward
    stage = _Propagation(ComplexField(grid, np.conj(u_now.values)), config.dt, config.p)
    try:
        n_steps = chunk_steps(s, guess.lam)    # the initial data's scale, 1
        stage.send(n_steps)
        while True:
            try:
                fit = decompose(u_now, guess, gs, mode="tracking", xtol=config.newton_tol)
            except TwoBubbleError as exc:
                raise FitLost(f"tracking fit failed at s={s:.2f}: {exc}") from exc
            # unwrap the phase onto the predicted branch
            gamma = guess.gamma + np.angle(np.exp(1j * (fit.params.gamma - guess.gamma)))
            params = BubbleParams(lam=fit.params.lam, z=fit.params.z, gamma=gamma, v=guess.v)
            # the running chunk ends at s_next; the next one takes this fit's
            # scale too, so its count is sent before the worker needs it
            dt_chunk = n_steps * config.dt
            s_next = s - dt_chunk / params.lam ** 2
            n_steps = chunk_steps(s_next, params.lam)
            if s_next > config.s0:
                stage.send(n_steps)
            samples.append(_sample(u_now, fit, params, s, t_lab, gs, constants, config))
            # the initial sample is not checked: at zeta# = +-1 it sits on xi = 1
            end = _exit_of(samples[-1], config) if len(samples) > 1 else None
            if end:
                break
            # the reduced system predicts the next fit, or reaches a collision
            pred = integrate_reduced(
                ReducedState(s, params.lam, params.z, params.gamma, params.v), s_next,
                gs, constants, tol=1e-11, mode="quadrature", n_samples=2).state(-1)
            guess = BubbleParams(lam=pred.lam, z=pred.z, gamma=pred.gamma, v=pred.v)
            u_now = ComplexField(grid, np.conj(stage.recv()))
            t_lab -= dt_chunk
            s = s_next
    except tuple(_FAILURE_EXITS) as exc:
        if not samples:         # a lost initial fit leaves no sample to end on
            raise
        tag = _FAILURE_EXITS[type(exc)]
        end = tag, (-1 if tag == EXIT_COLLISION else _side(samples[-1]))
    finally:
        stage.close()

    return RunRecord(config=config, zeta_sharp=zeta_sharp, samples=samples,
                     exit=end[0], phi=end[1], wall_time=time.perf_counter() - t_start)


def bisect_zeta(config: ShootConfig, gs: GroundState | None = None,
                constants: StructureConstants | None = None) -> dict:
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
    history = [(lo, rec_lo.exit, rec_lo.phi, rec_lo.deepest_s),
               (hi, rec_hi.exit, rec_hi.phi, rec_hi.deepest_s)]
    if EXIT_REACHED in (rec_lo.exit, rec_hi.exit):
        star, record = (lo, rec_lo) if rec_lo.exit == EXIT_REACHED else (hi, rec_hi)
    elif rec_lo.phi == rec_hi.phi:
        raise NoSignChange(
            f"both endpoints exited with phi={rec_lo.phi}",
            records=(rec_lo, rec_hi))
    else:
        # halve until a shot reaches s0, else keep the deepest record
        star, record = None, rec_lo if rec_lo.deepest_s < rec_hi.deepest_s else rec_hi
        for _ in range(_BISECT_MAX_ITER):
            if hi - lo < _BRACKET_MIN_WIDTH:
                break
            mid = 0.5 * (lo + hi)
            rec = backward_shoot(config, mid, gs, constants)
            history.append((mid, rec.exit, rec.phi, rec.deepest_s))
            if rec.exit == EXIT_REACHED:
                star, record = mid, rec
                break
            if rec.deepest_s < record.deepest_s:
                record = rec
            if rec.phi > 0:
                hi = mid
            else:
                lo = mid
        if star is None:
            star = 0.5 * (lo + hi)
    return {"zeta_sharp_star": star, "record": record, "history": history,
            "endpoint_records": (rec_lo, rec_hi)}


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


def _chunk_steps(record: RunRecord) -> list[int]:
    """Each chunk's step count, from its s spacing and the scale fitted at its start."""
    s, lam = record.column("s"), record.column("lam")
    return [round(n) for n in ((s[:-1] - s[1:]) * lam[:-1] ** 2 / record.config.dt).tolist()]


def compare_records(a: RunRecord, b: RunRecord) -> dict:
    """How record b differs from record a, wall times aside.

    ``changes`` maps zeta_sharp, exit, phi and the sample count to their
    (a, b) values where they differ.  ``flips`` lists the chunks whose step
    count differs (a changed s spacing): from its ``sample`` on, the two
    records sit at different s.  ``fields`` holds, per ``SAMPLE_KEYS``
    field, the largest absolute and relative difference over the
    ``compared`` samples, those common to both before the first flip, and
    ``first_diff`` the first of them in which any field differs.  Records
    of different dimension d are an InvalidConfig; a sample field of the
    wrong width is an IoFailure.
    """
    if a.config.d != b.config.d:
        raise InvalidConfig(f"records of dimension {a.config.d} and {b.config.d} do not compare")
    changes = {name: [x, y] for name, x, y in (
        ("zeta_sharp", a.zeta_sharp, b.zeta_sharp), ("exit", a.exit, b.exit),
        ("phi", a.phi, b.phi), ("n_samples", len(a.samples), len(b.samples))) if x != y}
    flips = [{"sample": k + 1, "steps": [x, y]}
             for k, (x, y) in enumerate(zip(_chunk_steps(a), _chunk_steps(b))) if x != y]
    m = flips[0]["sample"] if flips else min(len(a.samples), len(b.samples))
    fields, differs = {}, np.zeros(m, dtype=bool)
    for key in SAMPLE_KEYS:
        width = a.config.d if key in ("z", "v") else 1
        try:
            x, y = (np.array([smp[key] for smp in r.samples[:m]], dtype=float).reshape(m, width)
                    for r in (a, b))
        except ValueError as exc:
            raise IoFailure(f"sample field {key!r} is not {width} numbers: {exc}") from exc
        gap = np.abs(x - y)
        scale = np.maximum(np.abs(x), np.abs(y))
        rel = np.divide(gap, scale, out=np.zeros_like(gap), where=scale > 0.0)
        differs |= (x != y).any(axis=1)
        fields[key] = {"max_abs": float(gap.max(initial=0.0)),
                       "max_rel": float(rel.max(initial=0.0))}
    first = np.flatnonzero(differs)
    first_diff = int(first[0]) if first.size else None
    return {"same": not (changes or flips) and first_diff is None, "changes": changes,
            "flips": flips, "compared": m, "first_diff": first_diff, "fields": fields}


def run_sweep(configs: list[ShootConfig], registry_dir,
              gs: GroundState | None = None,
              constants: StructureConstants | None = None) -> list[dict]:
    """Run one shot per config (bracket midpoint) and save its record as
    ``<config hash>.json`` in the registry directory, unless that file
    exists (a duplicate).  The ground state and its constants are solved
    once per (p, d), unless ``gs`` (and ``constants``) already give them.
    Before the first shot the directory is made (its parent must exist) and
    each record file a config maps to is read back with ``from_dict``'s
    checks, its stored hash equal to its name; each failure is an
    IoFailure.  An empty config list makes nothing."""
    if not configs:
        return []
    try:
        Path(registry_dir).mkdir(exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot make registry directory {registry_dir}: {exc}") from exc
    shots, done = [], set()
    for config in configs:
        zeta = 0.5 * (config.zeta_bracket[0] + config.zeta_bracket[1])
        h = config_hash(config, zeta)
        path = Path(registry_dir, f"{h}.json")
        if path.exists():
            data = read_record_json(path)
            RunRecord.from_dict(data)
            if data["hash"] != h:
                raise IoFailure(f"registry file {path} holds the record of hash {data['hash']}")
            done.add(h)
        shots.append((config, zeta, h, path))

    solved = {} if gs is None else {(gs.p, gs.d): (gs, constants)}
    results = []
    for config, zeta, h, path in shots:
        if h in done:
            results.append({"hash": h, "status": "duplicate", "record": None})
            continue
        key = (config.p, config.d)
        use_gs, use_sc = solved.get(key, (None, None))
        if use_gs is None:
            use_gs = solve_profile(*key)
        if use_sc is None:
            use_sc = structure_constants(use_gs)
        solved[key] = (use_gs, use_sc)
        record = backward_shoot(config, zeta, use_gs, use_sc)
        record.save(path)
        done.add(h)
        results.append({"hash": h, "status": "ran", "record": record})
    return results
