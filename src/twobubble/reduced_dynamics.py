"""Finite-dimensional modulation system and the toy double-pole equation.

The reduced system follows the free translation/phase laws with the
velocity forced by the interaction:

    lambda' = 0,  z' = 2v,  gamma' = 1 + |v|^2/4,  v' = -(2/c2) H(z),

integrated with an embedded adaptive Runge-Kutta pair in either direction
of the rescaled time s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .ansatz import COLLISION_SEP, force_asymptotic
from .ansatz import interaction_force_H  # noqa: F401  (the bench tracer wraps this name)
from .errors import CollisionDetected, StepFailure
from .groundstate import GroundState, StructureConstants


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


def _force(z: np.ndarray, gs: GroundState | None, constants: StructureConstants,
           mode: str, c_override: float | None) -> np.ndarray:
    """v' = -(2/c2) H(z) from the ground state's cached force law, or its
    leading-order law -c zhat |z|^(-(d-1)/2) e^(-|z|)."""
    if mode == "asymptotic":
        return -force_asymptotic(z, constants.c if c_override is None else c_override, gs.d)
    if mode == "quadrature":
        # the law's domain starts at |z| = 2, below the collision threshold,
        # since trial stages may dip below it before the terminal event is located
        zlen = float(np.linalg.norm(z))
        return -(2.0 / constants.c2) * gs.force_law(zlen) * (z / zlen)
    raise StepFailure(f"unknown interaction mode {mode!r}")


def integrate_reduced(state0: ReducedState, s_end: float, gs: GroundState,
                      constants: StructureConstants, tol: float = 1e-10,
                      mode: str = "asymptotic", c_override: float | None = None,
                      n_samples: int = 400) -> ReducedTrajectory:
    """Integrate the modulation system from state0.s to s_end (either direction).

    mode selects the interaction force: "quadrature" reads the ground state's
    cached force law, defined for |z| in [2, 40] (QuadratureFailure
    outside), and "asymptotic" the leading-order exponential law, whose
    constant c_override pins.
    """
    d = state0.d
    if float(np.linalg.norm(state0.z)) < COLLISION_SEP:
        raise CollisionDetected(f"|z0| = {np.linalg.norm(state0.z):.2f} < {COLLISION_SEP}")

    def rhs(s, y):
        z = y[1:1 + d]
        v = y[2 + d:]
        vdot = _force(z, gs, constants, mode, c_override)
        return np.concatenate([[0.0], 2.0 * v,
                               [1.0 + 0.25 * float(v @ v)], vdot])

    def collide(s, y):
        return float(np.linalg.norm(y[1:1 + d])) - COLLISION_SEP

    collide.terminal = True

    y0 = np.concatenate([[state0.lam], state0.z, [state0.gamma], state0.v])
    s_eval = np.linspace(state0.s, s_end, n_samples)
    span = abs(s_end - state0.s)
    sol = solve_ivp(rhs, (state0.s, s_end), y0, method="DOP853",
                    rtol=tol, atol=min(tol * 1e-2, 1e-13), events=collide,
                    t_eval=s_eval, max_step=max(1.0, span / 20.0),
                    dense_output=False)
    if sol.status == 1:
        raise CollisionDetected(
            f"|z| reached {COLLISION_SEP} at s = {sol.t_events[0][0]:.3f}")
    if not sol.success:
        raise StepFailure(sol.message)
    y = sol.y
    return ReducedTrajectory(s=sol.t, lam=y[0], z=y[1:1 + d].T,
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
    if t_end <= 1.0:
        raise StepFailure(f"t_end must exceed 1, got {t_end}")

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


@dataclass(frozen=True)
class InstabilityReport:
    t: np.ndarray
    v1_closed: np.ndarray
    v1_numeric: np.ndarray
    deviation: np.ndarray     # (z_eps - log t) / eps, centered over +-eps
    growth_exponent: float


def linearized_growth(t) -> np.ndarray:
    """Closed-form solution t^2/3 + 2/(3t) of the linearized toy equation."""
    t = np.asarray(t, dtype=float)
    return t ** 2 / 3.0 + 2.0 / (3.0 * t)


def linearized_instability(eps: float, t_end: float,
                           tol: float = 1e-12) -> InstabilityReport:
    """Growth of perturbations of the logarithmic toy orbit.

    Returns the closed-form linearized mode, its direct integration, the
    centered nonlinear deviation at +-eps, and the fitted late-time growth
    exponent of the mode.
    """
    def rhs_lin(t, y):
        return (y[1], 2.0 * y[0] / t ** 2)

    t_eval = np.geomspace(1.0, t_end, 400)
    lin = solve_ivp(rhs_lin, (1.0, t_end), (1.0, 0.0), method="DOP853",
                    rtol=tol, atol=1e-14, t_eval=t_eval)
    if not lin.success:
        raise StepFailure(lin.message)

    plus = toy_double_pole(eps, 1.0, t_end, tol=tol)
    minus = toy_double_pole(-eps, 1.0, t_end, tol=tol)
    deviation = (plus.z - minus.z) / (2.0 * eps)

    # dominant power from the last decade of the closed form integration
    tail = t_eval >= t_end ** 0.5
    slope = np.polyfit(np.log(t_eval[tail]), np.log(lin.y[0][tail]), 1)[0]
    return InstabilityReport(t=t_eval, v1_closed=linearized_growth(t_eval),
                             v1_numeric=lin.y[0], deviation=deviation,
                             growth_exponent=float(slope))
