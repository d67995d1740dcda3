"""Finite-dimensional modulation system and the toy double-pole equation.

The reduced system follows the free translation/phase laws with the
velocity forced by the interaction:

    lambda' = 0,  z' = 2v,  gamma' = 1 + |v|^2/4,  v' = -(2/c2) H(z),

integrated with an embedded adaptive Runge-Kutta pair, Dormand-Prince
8(5,3), in either direction of the rescaled time s.  ``integrate_reduced``
drives scipy's DOP853 stepper directly and takes the steps, collision
event and samples that ``solve_ivp`` would; the toy equation, which is
not on a hot path, calls ``solve_ivp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.optimize import brentq

from .ansatz import COLLISION_SEP, force_asymptotic
from .ansatz import interaction_force_H  # noqa: F401  (the bench tracer wraps this name)
from .errors import CollisionDetected, StepFailure
from .groundstate import GroundState, StructureConstants

# brentq's xtol and rtol on an event root, as solve_ivp sets them
_EVENT_XTOL = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class ReducedState:
    """State of the modulation system at one rescaled time."""

    s: float
    lam: float
    z: np.ndarray
    gamma: float
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z", np.atleast_1d(np.asarray(self.z, dtype=float)))
        object.__setattr__(self, "v", np.atleast_1d(np.asarray(self.v, dtype=float)))

    @property
    def d(self) -> int:
        return self.z.size


@dataclass(frozen=True)
class ReducedTrajectory:
    """Dense trajectory samples of the reduced system."""

    s: np.ndarray
    lam: np.ndarray
    z: np.ndarray       # shape (n, d)
    gamma: np.ndarray
    v: np.ndarray       # shape (n, d)

    def state(self, i: int) -> ReducedState:
        return ReducedState(s=float(self.s[i]), lam=float(self.lam[i]),
                            z=self.z[i], gamma=float(self.gamma[i]), v=self.v[i])


def _check_tol(tol: float) -> None:
    """StepFailure for a tolerance no adaptive step can meet."""
    if not (tol > 0.0 and math.isfinite(tol)):
        raise StepFailure(f"tol must be finite and positive, got {tol}")


def _check_t_end(t_end: float) -> None:
    """StepFailure for a toy run that cannot start at t = 1 and end."""
    if not (t_end > 1.0 and math.isfinite(t_end)):
        raise StepFailure(f"t_end must be finite and exceed 1, got {t_end}")


def _force(gs: GroundState, constants: StructureConstants, mode: str):
    """v' = -(2/c2) H(z) as a function of (z, |z|^2), z a list of floats: the
    ground state's cached force law, or its leading-order law
    -c zhat |z|^(-(d-1)/2) e^(-|z|)."""
    if mode == "asymptotic":
        return lambda z, zz: (-force_asymptotic(z, constants.c, gs.d)).tolist()
    if mode == "quadrature":
        # trial stages dip below the collision threshold before the terminal
        # event is located, to |z| = 4.91 in the quadrature collision test and
        # 4.996 in the predicted-collision shot; the law starts at |z| = 4
        law, gain = gs.force_law, -(2.0 / constants.c2)

        def force(z, zz):
            zlen = math.sqrt(zz)
            a = gain * law(zlen)
            return [a * (c / zlen) for c in z]
        return force
    raise StepFailure(f"unknown interaction mode {mode!r}")


def _rhs(d: int, force):
    """y' for y = (lam, z, gamma, v), from the floats of y.tolist() and
    returned as a list.  |v|^2 and |z|^2 stay array dot products, which
    keeps every trajectory == the solve_ivp form's: ndarray.dot runs the
    same ddot as v @ v at half its call overhead."""
    def rhs(s, y):
        vals, z, v = y.tolist(), y[1:1 + d], y[2 + d:]
        return [0.0, *[2.0 * c for c in vals[2 + d:]], 1.0 + 0.25 * float(v.dot(v)),
                *force(vals[1:1 + d], float(z.dot(z)))]
    return rhs


def event_root(g, sol, t_old: float, t: float) -> float:
    """Where g(y) changes sign along a step's dense output ``sol`` on [t_old, t],
    found as ``solve_ivp`` finds an event's: ``brentq`` at xtol = rtol = 4 eps."""
    return brentq(lambda x: g(sol(x)), t_old, t, xtol=_EVENT_XTOL, rtol=_EVENT_XTOL)


def integrate_reduced(state0: ReducedState, s_end: float, gs: GroundState,
                      constants: StructureConstants, tol: float = 1e-10,
                      mode: str = "asymptotic", n_samples: int = 400) -> ReducedTrajectory:
    """Integrate the modulation system from state0.s to s_end (either direction).

    mode selects the interaction force: "quadrature" reads the ground state's
    cached force law, defined for |z| in [4, 40] (QuadratureFailure
    outside), and "asymptotic" the leading-order exponential law with the
    constant ``constants.c``.  A non-finite state or end time, a tol that
    is not finite and positive, or n_samples < 1 is a StepFailure.

    Drives a bare DOP853 stepper with the arguments ``solve_ivp`` would pass
    it and takes its steps: after each one the collision event |z| = 5 is
    tested for a sign change, its root located by ``event_root`` on the
    step's dense output, and the n_samples points of linspace(state0.s,
    s_end) that the step passed are read from that dense output.
    """
    _check_tol(tol)
    if n_samples < 1:
        raise StepFailure(f"n_samples must be at least 1, got {n_samples}")
    d = state0.d
    y0 = np.concatenate([[state0.lam], state0.z, [state0.gamma], state0.v])
    if not (np.isfinite(y0).all() and math.isfinite(state0.s) and math.isfinite(s_end)):
        raise StepFailure(f"non-finite reduced state {y0} at s = {state0.s} or end {s_end}")
    if float(np.linalg.norm(state0.z)) < COLLISION_SEP:
        raise CollisionDetected(f"|z0| = {np.linalg.norm(state0.z):.2f} < {COLLISION_SEP}")
    rhs = _rhs(d, _force(gs, constants, mode))

    def gap(y):
        z = y[1:1 + d]
        return math.sqrt(z.dot(z)) - COLLISION_SEP

    s0, s_end = float(state0.s), float(s_end)
    s_eval = np.linspace(s0, s_end, n_samples)
    marks = s_eval.tolist()
    stepper = DOP853(rhs, s0, y0, s_end, rtol=tol, atol=min(tol * 1e-2, 1e-13),
                     max_step=max(1.0, abs(s_end - s0) / 20.0))
    forward = stepper.direction > 0
    ys, i, g = [], 0, gap(y0)
    while stepper.status == "running":
        message = stepper.step()
        if stepper.status == "failed":
            raise StepFailure(message)
        g_new = gap(stepper.y)
        if (g <= 0.0 and g_new >= 0.0) or (g >= 0.0 and g_new <= 0.0):
            s_hit = event_root(gap, stepper.dense_output(), stepper.t_old, stepper.t)
            raise CollisionDetected(f"|z| reached {COLLISION_SEP} at s = {s_hit:.3f}")
        g, s, j = g_new, stepper.t, i
        # the samples this step reached, its end included
        while j < len(marks) and (marks[j] <= s if forward else marks[j] >= s):
            j += 1
        if j > i:
            ys.append(stepper.dense_output()(s_eval[i:j]))
            i = j
    y = np.hstack(ys)
    return ReducedTrajectory(s=s_eval[:i], lam=y[0], z=y[1:1 + d].T,
                             gamma=y[1 + d], v=y[2 + d:].T)


@dataclass(frozen=True)
class ToyTrajectory:
    t: np.ndarray
    z: np.ndarray
    zdot: np.ndarray

    def first_integral(self) -> np.ndarray:
        """Conserved quantity zdot^2/2 - e^(-2z)/2."""
        return 0.5 * self.zdot ** 2 - 0.5 * np.exp(-2.0 * self.z)


def toy_double_pole(z0: float, zdot0: float, t_end: float,
                    tol: float = 1e-10, n_samples: int = 400) -> ToyTrajectory:
    """Integrate z'' = -e^(-2z) from t = 1; log t solves it for (0, 1) data."""
    _check_tol(tol)
    _check_t_end(t_end)

    def rhs(t, y):
        return (y[1], -np.exp(-2.0 * y[0]))

    # local error control sits below the requested trajectory tolerance to
    # absorb the secular accumulation over long spans
    sol = solve_ivp(rhs, (1.0, t_end), (z0, zdot0), method="DOP853",
                    rtol=max(0.02 * tol, 1e-13), atol=min(1e-14, tol * 1e-3),
                    t_eval=np.geomspace(1.0, t_end, n_samples))
    if not sol.success:
        raise StepFailure(sol.message)
    return ToyTrajectory(t=sol.t, z=sol.y[0], zdot=sol.y[1])
