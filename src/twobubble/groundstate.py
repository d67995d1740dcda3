"""Radial ground state of the focusing semilinear elliptic problem.

Computes the positive decaying solution of

    q'' + (d-1)/r q' - q + q^p = 0,   q'(0) = 0,   q(r) -> 0,

by bisection shooting on q(0), plus the scalar constants the rest of the
package consumes (tail amplitude, interaction integral, scaling pairings).
The interaction integral I_Q and the force H(z) of ``ansatz`` run on the
same Cartesian Gauss-Legendre axes, ``gl_axis`` along e1 and
``transverse_axis`` across it, for d = 1 and d = 2 alike; each rule stops
where its integrand has fallen by e^-FORCE_CUT.

q and q' are interpolated on the uniform mesh by k=5 splines, stored as one
table of Taylor coefficients per mesh cell: on cell j = floor(r/h),
with t = r/h - j, the value is sum_k c_k[j] t^k.  An evaluation is an
integer gather and a Horner pass, at the same cost for sorted and shuffled
radii.  Beyond ``r_max`` the profile follows its matched linear tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import simpson, solve_ivp
from scipy.interpolate import make_interp_spline
from scipy.special import gamma as gamma_fn
from scipy.special import kv

from .errors import InvalidExponent, NonConvergence, QuadratureFailure, WindowTooNoisy

_OVERSHOOT = -1
_UNDERSHOOT = +1
_SQRT_HALF_PI = np.sqrt(0.5 * np.pi)

# Row k holds the t^k coefficients, on one cell of a uniform knot sequence,
# of the six cardinal quintic B-splines that are nonzero there (oldest first).
_CARDINAL_QUINTIC = np.array([[1.0, 26.0, 66.0, 26.0, 1.0, 0.0],
                              [-5.0, -50.0, 0.0, 50.0, 5.0, 0.0],
                              [10.0, 20.0, -60.0, 20.0, 10.0, 0.0],
                              [-10.0, 20.0, 0.0, -20.0, 10.0, 0.0],
                              [5.0, -20.0, 30.0, -20.0, 5.0, 0.0],
                              [-1.0, 5.0, -10.0, 10.0, -5.0, 1.0]]) / 120.0
# cells this close to either end have B-splines on the repeated end knots
_EDGE_CELLS = 8
# points per pass of the array evaluator, which bounds its temporaries
_CHUNK = 1 << 14


def sobolev_limit(d: int) -> float:
    """Upper admissible exponent (d+2)/(d-2); unbounded for d <= 2."""
    return np.inf if d <= 2 else (d + 2.0) / (d - 2.0)


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^d (2 for d=1)."""
    return 2.0 * np.pi ** (d / 2.0) / gamma_fn(d / 2.0)


def closed_form_q0(p: float) -> float:
    """d=1 peak value ((p+1)/2)^(1/(p-1))."""
    return ((p + 1.0) / 2.0) ** (1.0 / (p - 1.0))


def closed_form_profile(p: float, r) -> np.ndarray:
    """d=1 solution ((p+1)/2)^(1/(p-1)) sech^(2/(p-1))((p-1) r / 2)."""
    r = np.asarray(r, dtype=float)
    return closed_form_q0(p) * np.cosh(0.5 * (p - 1.0) * r) ** (-2.0 / (p - 1.0))


def decay_shape(d: int, r) -> np.ndarray:
    """Decaying solution r^(1-d/2) K_(d/2-1)(r) of the linearized radial equation.

    Behaves like sqrt(pi/2) r^(-(d-1)/2) e^(-r) for large r, exactly so for d=1.
    """
    r = np.asarray(r, dtype=float)
    if d == 1:
        return _SQRT_HALF_PI * np.exp(-r)
    nu = d / 2.0 - 1.0
    return r ** (1.0 - d / 2.0) * kv(nu, r)


def _decay_shape_deriv(d: int, r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if d == 1:
        return -_SQRT_HALF_PI * np.exp(-r)
    nu = d / 2.0 - 1.0
    kp = -0.5 * (kv(nu - 1.0, r) + kv(nu + 1.0, r))
    return (1.0 - d / 2.0) * r ** (-d / 2.0) * kv(nu, r) + r ** (1.0 - d / 2.0) * kp


@dataclass(frozen=True)
class GroundState:
    """Sampled radial profile with its shooting metadata.

    Samples live on a uniform mesh in r.  Between samples q and q' are their
    k=5 interpolating splines, evaluated through per-cell Taylor tables
    built on first use; values beyond ``r_max`` follow the matched linear
    tail ``tail_amplitude * decay_shape``.  Instances are immutable and safe
    to share between threads.
    """

    p: float
    d: int
    r_max: float
    q0: float
    r: np.ndarray
    q: np.ndarray
    dq: np.ndarray
    tail_amplitude: float
    bracket_width: float

    @cached_property
    def _cell_width(self) -> float:
        return self.r_max / (self.r.size - 1)

    @cached_property
    def _q_cells(self) -> np.ndarray:
        return _cell_coefficients(self.r, self.q, self._cell_width)

    @cached_property
    def _dq_cells(self) -> np.ndarray:
        return _cell_coefficients(self.r, self.dq, self._cell_width)

    def _eval(self, rr, cells: np.ndarray, tail) -> np.ndarray:
        """Cell polynomials up to ``r_max``, ``tail_amplitude * tail`` beyond."""
        rr = np.asarray(rr, dtype=float)
        if rr.ndim == 0:
            x = float(rr)
            if x <= self.r_max:
                return np.array(_horner_scalar(cells, x / self._cell_width))
            return np.array(self.tail_amplitude * tail(self.d, x))
        out = np.empty(rr.shape)
        _horner_cells(cells, np.ravel(rr), self._cell_width, out.reshape(-1))
        inside = rr <= self.r_max
        if not inside.all():
            out[~inside] = self.tail_amplitude * tail(self.d, rr[~inside])
        return out

    def q_at(self, rr) -> np.ndarray:
        """Profile value at arbitrary radii (spline inside, matched tail outside)."""
        return self._eval(rr, self._q_cells, decay_shape)

    def dq_at(self, rr) -> np.ndarray:
        return self._eval(rr, self._dq_cells, _decay_shape_deriv)

    @cached_property
    def force_law(self):
        """|H(|z|)|, the interaction force, as one cached ``ansatz.ForceLaw``."""
        from .ansatz import ForceLaw    # here, because ansatz imports this module
        return ForceLaw(self)

    def lam_q_at(self, rr) -> np.ndarray:
        """Radial part of the scaling generator, 2/(p-1) q + r q'."""
        rr = np.asarray(rr, dtype=float)
        return 2.0 / (self.p - 1.0) * self.q_at(rr) + rr * self.dq_at(rr)


def _cell_coefficients(r: np.ndarray, y: np.ndarray, h: float) -> np.ndarray:
    """Taylor coefficients, one column per cell, of the k=5 interpolant of y.

    Row k holds c_k[j] = s^(k)(r_j) h^k / k! of the spline s through (r, y)
    on the uniform mesh r, so that s(r_j + t h) = sum_k c_k[j] t^k.  Cells
    whose B-splines all have uniform knots take the cardinal matrix times
    their six B-spline coefficients; the cells next to the repeated end
    knots take the spline's derivatives at r_j.
    """
    spline = make_interp_spline(r, y, k=5)
    n_cells = r.size - 1
    cells = np.empty((6, n_cells))
    j = np.arange(n_cells)
    edge = (j < _EDGE_CELLS) | (j >= n_cells - _EDGE_CELLS)
    # the B-splines on the knot interval [r_j, r_j+1] are those numbered j-2 .. j+3
    windows = sliding_window_view(spline.c, 6)[j[~edge] - 2]
    cells[:, ~edge] = _CARDINAL_QUINTIC @ windows.T
    for k in range(6):
        cells[k, edge] = spline(r[:-1][edge], nu=k) * (h ** k / math.factorial(k))
    return cells


def _horner_scalar(cells: np.ndarray, s: float) -> float:
    """Cell polynomial at s = r/h for one radius; same operations as _horner_cells."""
    n_cells = cells.shape[1]
    s = min(s, float(n_cells))
    j = min(max(int(s), 0), n_cells - 1)
    t = s - j
    c0, c1, c2, c3, c4, c5 = cells[:, j].tolist()
    return ((((c5 * t + c4) * t + c3) * t + c2) * t + c1) * t + c0


def _horner_cells(cells: np.ndarray, rr: np.ndarray, h: float, out: np.ndarray) -> None:
    """Write the cell polynomials at the 1-d radii rr into out, chunk by chunk.

    s = r/h is capped at the cell count, so every r >= r_max reads the last
    cell at t = 1, and j = floor(s) is clamped to the cell range on both
    sides, because a negative index would wrap.  Temporaries are at most
    one chunk long.
    """
    n_cells = cells.shape[1]
    for a in range(0, rr.size, _CHUNK):
        o = out[a:a + _CHUNK]
        s = np.fmin(rr[a:a + _CHUNK] / h, n_cells)
        j = np.fmin(s, n_cells - 1).astype(np.intp)
        np.maximum(j, 0, out=j)
        s -= j
        cells[5].take(j, out=o, mode="clip")
        for k in (4, 3, 2, 1, 0):
            o *= s
            o += cells[k].take(j, mode="clip")


@dataclass(frozen=True)
class StructureConstants:
    """Scalar constants derived from one ground state.

    c_q:  amplitude of the r^(-(d-1)/2) e^(-r) tail
    i_q:  interaction integral of q^p against the e^(-x1) weight
    c1:   pairing of the scaling generator with the profile
    c2:   per-component pairing of -y_j Q with the j-th derivative
    c_p:  c_q * i_q
    c:    2 c_p / c2, the force constant of the reduced system
    l2:   squared L2 norm of the profile over R^d
    """

    c_q: float
    i_q: float
    c1: float
    c2: float
    c_p: float
    c: float
    l2: float
    c_q_residual: float


def _rhs(d: int, p: float):
    def rhs(r, y):
        q, w = y
        return (w, q - np.sign(q) * np.abs(q) ** p - (d - 1.0) / r * w)

    return rhs


def _series_start(q0: float, p: float, d: int, r0: float) -> tuple[float, float]:
    # q(r) ~ q0 + (q0 - q0^p) r^2 / (2d) removes the coordinate singularity
    curv = (q0 - q0 ** p) / d
    return q0 + 0.5 * curv * r0 ** 2, curv * r0


def _classify(q0: float, p: float, d: int, r_max: float):
    """Integrate one shot; overshoot = crosses zero, undershoot = turns upward.

    Tolerances must match the final profile pass so the bisected q0 sits on
    the same numerical manifold.
    """
    r0 = 1e-6
    y0 = _series_start(q0, p, d, r0)

    def cross(r, y):
        return y[0]

    cross.terminal = True
    cross.direction = -1

    def turn(r, y):
        return y[1]

    turn.terminal = True
    turn.direction = 1

    sol = solve_ivp(_rhs(d, p), (r0, r_max), y0, method="DOP853",
                    events=(cross, turn), rtol=1e-12, atol=1e-16)
    if sol.t_events[0].size:
        return _OVERSHOOT
    return _UNDERSHOOT


def solve_profile(p: float, d: int, tol: float = 1e-10,
                  r_max: float = 25.0, mesh_step: float = 1e-3) -> GroundState:
    """Bisection shooting for the radial ground state.

    The returned profile is the forward trajectory in the core blended into a
    backward integration of the full equation started on the matched linear
    tail, which keeps the samples accurate where bare shooting would be
    contaminated by the exponentially growing mode.
    """
    if d < 1 or int(d) != d:
        raise InvalidExponent(f"dimension must be a positive integer, got {d}")
    if not (1.0 < p < sobolev_limit(d)):
        raise InvalidExponent(f"p={p} outside (1, {sobolev_limit(d)})")
    if tol <= 0:
        raise NonConvergence("tol must be positive")

    # extend the truncation radius until the tail value can sit below 10*tol
    r_max = max(r_max, -np.log(10.0 * tol) + 4.0)

    # bracket around the d=1 closed form scaled by a dimension heuristic
    guess = closed_form_q0(p) * 1.5 ** (d - 1)
    lo = hi = guess
    for _ in range(200):
        if _classify(hi, p, d, r_max) == _OVERSHOOT:
            break
        hi *= 1.25
    else:
        raise NonConvergence("no overshoot endpoint found")
    for _ in range(200):
        if _classify(lo, p, d, r_max) == _UNDERSHOOT:
            break
        lo /= 1.25
    else:
        raise NonConvergence("no undershoot endpoint found")

    width_goal = min(tol, 8.0 * np.spacing(guess))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= max(width_goal, 2.0 * np.spacing(mid)):
            break
        if _classify(mid, p, d, r_max) == _OVERSHOOT:
            hi = mid
        else:
            lo = mid
    q0 = 0.5 * (lo + hi)
    width = hi - lo
    if width > tol:
        raise NonConvergence(f"bracket width {width:.3e} above tol {tol:.3e}")

    # forward pass with dense output; trustworthy until the growing mode
    # amplifies the residual bracket error
    r0 = 1e-6
    fwd = solve_ivp(_rhs(d, p), (r0, r_max), _series_start(q0, p, d, r0),
                    method="DOP853", dense_output=True, rtol=1e-12, atol=1e-16)

    r_match = _pick_match_radius(fwd, q0)
    window = np.linspace(max(r_match - 1.0, 1.0), r_match, 41)
    q_window = fwd.sol(window)[0]

    # amplitude of the linear tail, refined against full nonlinear backward runs
    amp = float(np.mean(q_window / decay_shape(d, window)))
    back = None
    for _ in range(3):
        y_end = (amp * decay_shape(d, r_max), amp * _decay_shape_deriv(d, r_max))
        back = solve_ivp(_rhs(d, p), (r_max, window[0] - 1.0), y_end,
                         method="DOP853", dense_output=True, rtol=1e-12, atol=1e-300)
        amp *= float(np.mean(q_window / back.sol(window)[0]))

    n = int(round(r_max / mesh_step)) + 1
    r = np.linspace(0.0, r_max, n)
    qf = np.empty(n)
    dqf = np.empty(n)
    qf[0], dqf[0] = q0, 0.0
    vals = fwd.sol(r[1:])
    qf[1:], dqf[1:] = vals[0], vals[1]

    qb = np.empty(n)
    dqb = np.empty(n)
    joinable = r >= window[0] - 0.5
    vb = back.sol(r[joinable])
    qb[joinable], dqb[joinable] = vb[0], vb[1]
    qb[~joinable], dqb[~joinable] = qf[~joinable], dqf[~joinable]

    w, dw = smoothstep(r, r_match - 1.0, r_match)
    q = (1.0 - w) * qf + w * qb
    dq = (1.0 - w) * dqf + w * dqb + dw * (qb - qf)

    return GroundState(p=float(p), d=int(d), r_max=float(r_max), q0=float(q0),
                       r=r, q=q, dq=dq, tail_amplitude=amp, bracket_width=width)


def _pick_match_radius(fwd, q0: float) -> float:
    """Radius where the forward shot is still clean but already in the tail."""
    rr = np.linspace(2.0, fwd.t[-1], 400)
    qq = fwd.sol(rr)[0]
    target = 1e-4 * q0
    below = np.nonzero(qq < target)[0]
    if below.size == 0:
        return fwd.t[-1] - 2.0
    return float(rr[below[0]])


def smoothstep(x, a: float, b: float):
    """Quintic smoothstep on [a, b] (0 below a, 1 above b) and its derivative."""
    t = np.clip((np.asarray(x, dtype=float) - a) / (b - a), 0.0, 1.0)
    w = t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2)
    dw = 30.0 * t ** 2 * (1.0 - t) ** 2 / (b - a)
    return w, dw


def asymptotic_constant(gs: GroundState, window: tuple[float, float] | None = None,
                        resid_threshold: float = 1e-3) -> tuple[float, float]:
    """Tail amplitude from a least-squares fit of q(r) r^((d-1)/2) e^r.

    Fits c_q (1 + b/r) over the window and returns (c_q, max relative fit
    residual).  The 1/r term absorbs the first subleading correction of the
    tail expansion.
    """
    if window is None:
        window = (gs.r_max - 10.0, gs.r_max - 2.0)
    r_a, r_b = window
    if r_b > gs.r_max or r_a >= r_b:
        raise WindowTooNoisy(f"bad window {window} for r_max={gs.r_max}")
    rr = np.linspace(r_a, r_b, 201)
    data = gs.q_at(rr) * rr ** ((gs.d - 1) / 2.0) * np.exp(rr)
    if np.min(gs.q_at(rr)) < 1e3 * np.finfo(float).tiny:
        raise WindowTooNoisy("window reaches into truncation noise")
    basis = np.column_stack([np.ones_like(rr), 1.0 / rr])
    coef, *_ = np.linalg.lstsq(basis, data, rcond=None)
    model = basis @ coef
    resid = float(np.max(np.abs(model - data) / np.abs(data)))
    if resid > resid_threshold:
        raise WindowTooNoisy(f"relative fit residual {resid:.3e}")
    return float(coef[0]), resid


def radial_integral(gs: GroundState, values: np.ndarray) -> float:
    """Simpson integral of values(r) r^(d-1) over the mesh, times the sphere area."""
    return sphere_area(gs.d) * simpson(values * gs.r ** (gs.d - 1), x=gs.r)


@lru_cache(maxsize=None)
def _leggauss(nodes: int):
    return np.polynomial.legendre.leggauss(nodes)


def gl_axis(breaks, nodes: int, step: float):
    """Nodes and weights of the composite Gauss-Legendre rule over consecutive
    intervals between breaks, each cut into equal panels at most step wide."""
    x, w = _leggauss(nodes)
    edges = np.concatenate([np.linspace(a, b, max(2, int(np.ceil((b - a) / step)) + 1))[:-1]
                            for a, b in zip(breaks[:-1], breaks[1:])] + [breaks[-1:]])
    half = (0.5 * (edges[1:] - edges[:-1]))[:, None]
    mid = (0.5 * (edges[:-1] + edges[1:]))[:, None]
    return (half * x + mid).ravel(), (half * w).ravel()


def transverse_axis(d: int, half_width: float, nodes: int, step: float):
    """Nodes and weights across the first axis of a Cartesian rule: the one
    node y2 = 0 of weight 1 for d = 1, the composite Gauss-Legendre rule over
    [-half_width, half_width] for d = 2.  QuadratureFailure for any other d."""
    if d == 1:
        return np.zeros(1), np.ones(1)
    if d == 2:
        return gl_axis((-half_width, half_width), nodes, step)
    raise QuadratureFailure(f"Cartesian rules cover d in (1, 2), got {d}")


# Absolute floor of the coarse/fine check on I_Q; the relative one is 1e-9.
I_Q_TOL = 1e-9
# Decay, as an exponent, past which an integrand is below double precision
# against its integral (e^-40 ~ 4e-18).  The I_Q rule here and the force
# rule of ``ansatz`` stop their axes where their integrands have fallen that
# far, so both domains follow p.
FORCE_CUT = 40.0


def _i_q_cartesian(gs: GroundState, nodes_per_panel: int) -> float:
    """Cartesian Gauss-Legendre rule for the e^(-x1)-weighted integral.

    Along e1 the integrand Q^p e^(-y1) decays like e^(-(p-1)|y1|) behind
    and e^(-(p+1)y1) ahead, so the e1 axis is [-FORCE_CUT/(p-1),
    FORCE_CUT/(p+1)], split at 0; past r_max ``q_at`` supplies the matched
    tail.  The transverse axis spans [-r_max, r_max].
    """
    p = gs.p
    y1, w1 = gl_axis((-FORCE_CUT / (p - 1.0), 0.0, FORCE_CUT / (p + 1.0)), nodes_per_panel, 0.5)
    y2, w2 = transverse_axis(gs.d, gs.r_max, nodes_per_panel, 0.5)
    rr = np.hypot(y1[:, None], y2)
    return float(w1 @ (gs.q_at(rr) ** p * np.exp(-y1)[:, None]) @ w2)


def structure_constants(gs: GroundState, c_q: float | None = None) -> StructureConstants:
    """All scalar constants by quadrature over the sampled profile; I_Q comes
    from the Cartesian rule with 8 and 12 nodes per panel, which must agree."""
    if c_q is None:
        c_q, c_q_resid = asymptotic_constant(gs)
    else:
        c_q_resid = 0.0

    l2 = radial_integral(gs, gs.q ** 2)
    # c2 = <-y_j Q, d_j Q> per component; radially -(area/d) * int r^d q q' dr
    c2 = -radial_integral(gs, gs.r * gs.q * gs.dq) / gs.d
    lam_q = 2.0 / (gs.p - 1.0) * gs.q + gs.r * gs.dq
    c1 = radial_integral(gs, lam_q * gs.q)

    coarse = _i_q_cartesian(gs, 8)
    i_q = _i_q_cartesian(gs, 12)
    if abs(i_q - coarse) > max(I_Q_TOL, 1e-9 * abs(i_q)):
        raise QuadratureFailure(f"Cartesian rule not converged: {abs(i_q - coarse):.3e}")

    c_p = c_q * i_q
    c = 2.0 * c_p / c2
    return StructureConstants(c_q=float(c_q), i_q=float(i_q), c1=float(c1),
                              c2=float(c2), c_p=float(c_p), c=float(c),
                              l2=float(l2), c_q_residual=float(c_q_resid))


def ode_residual(gs: GroundState) -> np.ndarray:
    """Pointwise residual q'' + (d-1)/r q' - q + q^p on the mesh."""
    # q'' on cell j is the t-derivative of the q' polynomial over h; the last
    # mesh point is t = 1 of the last cell
    cells = gs._dq_cells
    d2 = np.empty_like(gs.r)
    d2[:-1] = cells[1]
    d2[-1] = np.arange(1.0, 6.0) @ cells[1:, -1]
    d2 /= gs._cell_width
    with np.errstate(divide="ignore", invalid="ignore"):
        geom = np.where(gs.r > 0, (gs.d - 1.0) / gs.r * gs.dq, 0.0)
    res = d2 + geom - gs.q + gs.q ** gs.p
    # at r=0 the geometric term tends to (d-1) q''(0)
    res[0] = gs.d * d2[0] - gs.q[0] + gs.q[0] ** gs.p
    return res
