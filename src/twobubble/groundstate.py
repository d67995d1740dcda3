"""Radial ground state of the focusing semilinear elliptic problem.

Computes the positive decaying solution of

    q'' + (d-1)/r q' - q + q^p = 0,   q'(0) = 0,   q(r) -> 0,

by bisection shooting on q(0), with the amplitude of its matched tail, plus
the structure constants the rest of the package consumes, all from the
interaction integral I_Q and ||Q||^2.

Each shot of the bisection drives a bare DOP853 stepper and stops at the
first sign change of q (overshoot) or of q' (undershoot), deciding as
``solve_ivp`` with those terminal events would.  The decisions must stay
bit-identical: the last few, within ulps of q0*, fix the bisected q0, and
one ulp of q0 moves the tail amplitude by about 1e-7 relative, hence every
profile, force law and record built on it.

The shots remember the largest q0 that has undershot and the smallest that
has overshot, and a q0 past either bound takes its class without a shot.
At d=1 the closed-form guess is all but q0*, so one probe shot just across
it, 1e-11 relative away, bounds the bracket's far side: at d=1, p=3 the
bisection runs 16 shots instead of 50.  Every decision is the one a shot
would make, because shots are monotone in q0 outside a band a few hundred
ulps wide around q0*, well inside the probe's margin; so q0 and the
profile are those of the plain bisection to the bit.  At d >= 2 there is
no probe and no bound is ever reached.

The interaction integral I_Q and the force H(z) of ``ansatz`` run on
composite Gauss-Legendre panels from the same helpers, ``gl_panels`` on
``panel_edges`` along e1 and ``transverse_axis`` across it, for d = 1 and
d = 2 alike: 0.5 wide for I_Q, and as wide as p allows for H; each rule
stops where its integrand has fallen by e^-FORCE_CUT.

q and q' are interpolated on the uniform mesh by k=5 splines, stored in one
table with a row per mesh cell: the six Taylor coefficients of q, then the
six of q'.  On cell j = floor(r/h), with t = r/h - j, a value is
sum_k c_k[j] t^k.  An evaluation masks its radii once per chunk: up to
``r_max`` it gathers one row per radius (half a row for q or q' alone) and
runs a Horner pass per field, beyond ``r_max`` it takes the matched linear
tail.  ``q_dq_at`` gives q and q' from one gather; ``q_at`` and ``dq_at``
run the same code for one field.  The cost is the same for sorted and
shuffled radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import DOP853, simpson, solve_ivp
from scipy.interpolate import make_interp_spline
from scipy.optimize import brentq
from scipy.special import gamma as gamma_fn
from scipy.special import kv

from .errors import InvalidConfig, InvalidExponent, NonConvergence, QuadratureFailure

_OVERSHOOT = -1
_UNDERSHOOT = +1
_SQRT_HALF_PI = np.sqrt(0.5 * np.pi)
# brentq's xtol and rtol on an event root, as solve_ivp sets them
_EVENT_XTOL = 4.0 * np.finfo(float).eps
# r0 and DOP853 tolerances of the bisection's shots and the profile pass, equal so
# that the bisected q0 sits on the numerical manifold the profile is built on
_SHOT_R0 = 1e-6
_SHOT_RTOL = 1e-12
_SHOT_ATOL = 1e-16
# Relative distance from the d=1 closed-form guess of the first probe shot on
# the guess's far side, and the factor each further probe widens it by.  At
# eight p in [1.2, 7] the guess lies within 236 ulps of the bisected q0 (3 at
# p = 3), ``_classify`` is monotone in q0 outside a band at most 382 ulps
# wide around it, and 1e-11 relative is 56 000 ulps or more.
_PROBE_MARGIN = 1e-11
_PROBE_WIDEN = 16.0

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
# the fields of the profile evaluator: q, and q'
_Q, _DQ = 0, 1


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
    if d == 2:
        return -kv(1.0, r)          # K_0' = -K_1
    nu = d / 2.0 - 1.0
    kp = -0.5 * (kv(nu - 1.0, r) + kv(nu + 1.0, r))
    return (1.0 - d / 2.0) * r ** (-d / 2.0) * kv(nu, r) + r ** (1.0 - d / 2.0) * kp


_TAILS = {_Q: decay_shape, _DQ: _decay_shape_deriv}


@dataclass(frozen=True)
class GroundState:
    """Sampled radial profile with its shooting metadata.

    Samples live on a uniform mesh in r.  Between samples q and q' are their
    k=5 interpolating splines, evaluated through one per-cell Taylor table
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
    shots: int              # classification integrations the bisection ran

    @cached_property
    def _cell_width(self) -> float:
        return self.r_max / (self.r.size - 1)

    @cached_property
    def _cells(self) -> np.ndarray:
        """Row j: the t^0 .. t^5 coefficients of q, then those of q', on cell j."""
        # q and q' share the collocation matrix, so one solve gives both splines
        spline = make_interp_spline(self.r, np.column_stack([self.q, self.dq]), k=5)
        cells = np.empty((self.r.size - 1, 12))
        _cell_coefficients(spline, self.r, self._cell_width, cells.reshape(-1, 2, 6))
        return cells

    def _evaluate(self, rr, fields) -> list[np.ndarray]:
        """One array per field (``_Q``, ``_DQ`` or both): cell polynomials up
        to ``r_max``, ``tail_amplitude`` times the field's tail beyond."""
        rr = np.asarray(rr, dtype=float)
        tails = [_TAILS[f] for f in fields]
        if rr.ndim == 0:
            x = float(rr)
            if x <= self.r_max:
                return [np.array(v) for v in
                        _horner_scalar(self._cells, x / self._cell_width, fields)]
            return [np.array(self.tail_amplitude * tail(self.d, x)) for tail in tails]
        outs = [np.empty(rr.shape) for _ in fields]
        flat = np.ravel(rr)
        flat_outs = [o.reshape(-1) for o in outs]
        for a in range(0, flat.size, _CHUNK):
            x = flat[a:a + _CHUNK]
            chunk = [o[a:a + _CHUNK] for o in flat_outs]
            inside = x <= self.r_max
            if inside.all():
                _horner_cells(self._cells, x, self._cell_width, fields, chunk)
                continue
            near = x[inside]
            vals = [np.empty(near.size) for _ in fields]
            _horner_cells(self._cells, near, self._cell_width, fields, vals)
            far = ~inside
            beyond = x[far]
            for o, v, tail in zip(chunk, vals, tails):
                o[inside] = v
                o[far] = self.tail_amplitude * tail(self.d, beyond)
        return outs

    def q_at(self, rr) -> np.ndarray:
        """Profile value at arbitrary radii (spline inside, matched tail outside)."""
        return self._evaluate(rr, (_Q,))[0]

    def dq_at(self, rr) -> np.ndarray:
        return self._evaluate(rr, (_DQ,))[0]

    def q_dq_at(self, rr) -> tuple[np.ndarray, np.ndarray]:
        """q and q' at the same radii from one evaluation, each equal to
        ``q_at`` and ``dq_at``: one cell index and one gather per radius."""
        return tuple(self._evaluate(rr, (_Q, _DQ)))

    @cached_property
    def force_law(self):
        """|H(|z|)|, the interaction force, as one cached ``ansatz.ForceLaw``."""
        from .ansatz import ForceLaw    # here, because ansatz imports this module
        return ForceLaw(self)

    @cached_property
    def _force_halves(self) -> dict:
        """The z-independent halves of ``ansatz``'s force rule, each prepared
        on first use and keyed by its panels and node counts."""
        return {}

    def lam_q_at(self, rr) -> np.ndarray:
        """Radial part of the scaling generator, 2/(p-1) q + r q'."""
        rr = np.asarray(rr, dtype=float)
        q, dq = self.q_dq_at(rr)
        return 2.0 / (self.p - 1.0) * q + rr * dq


def _cell_coefficients(spline, r: np.ndarray, h: float, cells: np.ndarray) -> None:
    """Write the Taylor coefficients of the k=5 splines on the uniform mesh r
    into the (n_cells, n_splines, 6) array cells.

    cells[j, f, k] gets c_k[j] = s^(k)(r_j) h^k / k! of the spline s through
    column f of the data, so that s(r_j + t h) = sum_k c_k[j] t^k.  Cells
    whose B-splines all have uniform knots take their six B-spline
    coefficients times the cardinal matrix, written in place; the cells next
    to the repeated end knots take the spline's derivatives at r_j.
    """
    n_cells = r.size - 1
    inner = slice(_EDGE_CELLS, n_cells - _EDGE_CELLS)
    edge = np.r_[0:_EDGE_CELLS, inner.stop:n_cells]
    # the B-splines on the knot interval [r_j, r_j+1] are those numbered j-2 .. j+3
    windows = sliding_window_view(spline.c, 6, axis=0)[inner.start - 2:inner.stop - 2]
    for f in range(cells.shape[1]):
        np.matmul(windows[:, f], _CARDINAL_QUINTIC.T, out=cells[inner, f])
    for k in range(6):
        cells[edge, :, k] = spline(r[edge], nu=k) * (h ** k / math.factorial(k))


def _horner_scalar(cells: np.ndarray, s: float, fields) -> list[float]:
    """Each field's cell polynomial at s = r/h for one radius; same operations
    as _horner_cells."""
    n_cells = cells.shape[0]
    s = min(s, float(n_cells))
    j = min(max(int(s), 0), n_cells - 1)
    t = s - j
    row = cells[j].tolist()
    out = []
    for f in fields:
        c0, c1, c2, c3, c4, c5 = row[6 * f:6 * f + 6]
        out.append(((((c5 * t + c4) * t + c3) * t + c2) * t + c1) * t + c0)
    return out


def _horner_cells(cells: np.ndarray, rr: np.ndarray, h: float, fields, outs) -> None:
    """Write each field's cell polynomial at the 1-d radii rr into its out.

    s = r/h is capped at the cell count, so r_max reads the last cell at
    t = 1, and j = floor(s) is clamped to the cell range on both sides,
    because a negative index would wrap.  One gather fetches the
    coefficients of each radius's cell, and each field's Horner pass reads
    its six of them: both fields gather row j of cells, one field only its
    half, row 2j + field of the (2 n_cells, 6) view.
    """
    n_cells = cells.shape[0]
    s = np.fmin(rr / h, n_cells)
    j = np.fmin(s, n_cells - 1).astype(np.intp)
    np.maximum(j, 0, out=j)
    s -= j
    if len(fields) == 1:
        j *= 2
        j += fields[0]
        c, starts = cells.reshape(-1, 6).take(j, axis=0), (0,)
    else:
        c, starts = cells.take(j, axis=0), [6 * f for f in fields]
    for a, o in zip(starts, outs):
        np.multiply(c[:, a + 5], s, out=o)
        for k in (4, 3, 2, 1):
            o += c[:, a + k]
            o *= s
        o += c[:, a]


@dataclass(frozen=True)
class StructureConstants:
    """Scalar constants derived from one ground state, all from I_Q and l2.

    c_q:  amplitude of the r^(-(d-1)/2) e^(-r) tail, sqrt(pi/2) (2 pi)^(-d/2) i_q
          by the Green identity Q = (1 - Laplacian)^-1 Q^p
    i_q:  interaction integral of q^p against the e^(-x1) weight
    c1:   pairing <Lambda Q, Q> of the scaling generator with the profile,
          (2/(p-1) - d/2) l2; 0 at the mass-critical p = 1 + 4/d
    c2:   per-component pairing <-y_j Q, d_j Q>, l2 / 2
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


def _rhs(d: int, p: float):
    """y' for y = (q, q') as Python floats, for the bisection's shots and the
    final passes alike: (w, q - sign(q) |q|^p - (d-1)/r w), with the
    operations in the order of its numpy-scalar form, so the values agree
    to the bit."""
    def rhs(r, y):
        q, w = y.tolist()
        a = abs(q) ** p
        s = a if q > 0.0 else -a if q < 0.0 else 0.0 * a
        return (w, q - s - (d - 1.0) / r * w)

    return rhs


def _series_start(q0: float, p: float, d: int, r0: float) -> tuple[float, float]:
    # q(r) ~ q0 + (q0 - q0^p) r^2 / (2d) removes the coordinate singularity
    curv = (q0 - q0 ** p) / d
    return q0 + 0.5 * curv * r0 ** 2, curv * r0


def event_root(g, sol, t_old: float, t: float) -> float:
    """Where g(y) changes sign along a step's dense output ``sol`` on [t_old, t],
    found as ``solve_ivp`` finds an event's: ``brentq`` at xtol = rtol = 4 eps."""
    return brentq(lambda x: g(sol(x)), t_old, t, xtol=_EVENT_XTOL, rtol=_EVENT_XTOL)


def _classify(q0: float, p: float, d: int, r_max: float):
    """Integrate one shot; overshoot = q crosses zero, undershoot = q' turns upward.

    Drives a bare DOP853 stepper and reads, after each step, the sign
    changes ``solve_ivp`` checks for its terminal events: q from >= 0 to
    <= 0 (overshoot) and q' from <= 0 to >= 0 (undershoot).  When both fire
    in one step, the one whose root on the step's dense output comes first
    decides; the roots are ``solve_ivp``'s (``event_root``) and a tie goes
    to the crossing, as its stable sort orders it.  A failed step, or
    reaching r_max, is an undershoot.

    Every decision must equal that of ``solve_ivp`` with these events: the
    bisected q0 is fixed by the last few decisions near q0*, and one ulp of
    q0 moves the tail amplitude by about 1e-7.
    """
    q, w = _series_start(q0, p, d, _SHOT_R0)
    stepper = DOP853(_rhs(d, p), _SHOT_R0, (q, w), float(r_max),
                     rtol=_SHOT_RTOL, atol=_SHOT_ATOL)
    while stepper.status == "running":
        stepper.step()
        if stepper.status == "failed":
            break
        q_new, w_new = stepper.y.tolist()
        cross = q >= 0.0 and q_new <= 0.0
        turn = w <= 0.0 and w_new >= 0.0
        if cross and turn:
            sol = stepper.dense_output()

            def root(k):
                return event_root(lambda y: y[k], sol, stepper.t_old, stepper.t)
            return _OVERSHOOT if root(0) <= root(1) else _UNDERSHOOT
        if cross:
            return _OVERSHOOT
        if turn:
            return _UNDERSHOOT
        q, w = q_new, w_new
    return _UNDERSHOOT


class _Shooter:
    """``_classify`` with memory of the largest q0 that has undershot and the
    smallest that has overshot.

    A q0 at or below the first takes the undershoot class, one at or above
    the second the overshoot class, and neither runs a shot; ``shots``
    counts the shots run.  A free class equals the shot's wherever
    ``_classify`` is monotone in q0, which holds outside a band of a few
    hundred ulps around q0*.  Inside that band every q0 the bisection asks
    about lies strictly between the bounds and is shot.
    """

    def __init__(self, p: float, d: int, r_max: float):
        self.p, self.d, self.r_max = p, d, r_max
        self.undershot = -math.inf
        self.overshot = math.inf
        self.shots = 0

    def __call__(self, q0: float) -> int:
        if q0 <= self.undershot:
            return _UNDERSHOOT
        if q0 >= self.overshot:
            return _OVERSHOOT
        self.shots += 1
        side = _classify(q0, self.p, self.d, self.r_max)
        if side == _UNDERSHOOT:
            self.undershot = q0
        else:
            self.overshot = q0
        return side

    def probe(self, guess: float, side: int) -> None:
        """Shoot at guess (1 -/+ _PROBE_MARGIN), on the side of the guess
        that ``side`` (the guess's class) points to, widening the margin by
        _PROBE_WIDEN until the class flips or the probe leaves the bracket
        search's first step."""
        sign = 1.0 if side == _UNDERSHOOT else -1.0
        margin = _PROBE_MARGIN
        while margin < 0.2 and self(guess * (1.0 + sign * margin)) == side:
            margin *= _PROBE_WIDEN


def solve_profile(p: float, d: int, tol: float = 1e-10,
                  r_max: float = 25.0, mesh_step: float = 1e-3) -> GroundState:
    """Bisection shooting for the radial ground state.

    The bracket search steps away from a guess by 1.25 until the class
    flips, and bisection halves the bracket to a few ulps.  A ``_Shooter``
    classifies each q0 and runs no shot for one past a q0 already
    classified; at d=1 a probe just across the closed-form guess first
    bounds the bracket's far side.  Every class is the one a shot would
    give, so q0 and the profile equal the plain bisection's to the bit.
    ``shots`` counts the shots run.

    The returned profile is the forward trajectory in the core blended into a
    backward integration of the full equation started on the matched linear
    tail, which keeps the samples accurate where bare shooting would be
    contaminated by the exponentially growing mode.
    """
    if d < 1 or int(d) != d:
        raise InvalidExponent(f"dimension must be a positive integer, got {d}")
    if not (1.0 < p < sobolev_limit(d)):
        raise InvalidExponent(f"p={p} outside (1, {sobolev_limit(d)})")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise NonConvergence(f"tol must be finite and positive, got {tol}")
    if not (r_max > 0.0 and math.isfinite(r_max)):
        raise InvalidConfig(f"r_max must be finite and positive, got {r_max}")
    if not (mesh_step > 0.0 and math.isfinite(mesh_step)):
        raise InvalidConfig(f"mesh_step must be finite and positive, got {mesh_step}")

    # extend the truncation radius until the tail value can sit below 10*tol
    r_max = max(r_max, -np.log(10.0 * tol) + 4.0)
    n = int(round(r_max / mesh_step)) + 1
    if n - 1 < 2 * _EDGE_CELLS:
        raise InvalidConfig(f"mesh_step {mesh_step} leaves {n - 1} cells on [0, {r_max:.4g}], "
                            f"fewer than {2 * _EDGE_CELLS}")

    lo, hi, shoot = _bisect_q0(p, d, tol, r_max)
    q0 = 0.5 * (lo + hi)
    r, q, dq, amp = _trace_profile(p, d, r_max, n, q0)
    return GroundState(p=float(p), d=int(d), r_max=float(r_max), q0=float(q0),
                       r=r, q=q, dq=dq, tail_amplitude=amp, bracket_width=hi - lo,
                       shots=shoot.shots)


def _bisect_q0(p: float, d: int, tol: float, r_max: float) -> tuple[float, float, _Shooter]:
    """The final bracket (lo, hi) of q0 and the ``_Shooter`` that classified."""
    shoot = _Shooter(p, d, r_max)
    # bracket around the d=1 closed form scaled by a dimension heuristic: the
    # guess is classified once, then the search steps away from it by 1.25
    # until the class flips
    guess = closed_form_q0(p) * 1.5 ** (d - 1)
    side = shoot(guess)
    if d == 1:
        shoot.probe(guess, side)
    end = guess
    for _ in range(199):
        end = end * 1.25 if side == _UNDERSHOOT else end / 1.25
        if shoot(end) != side:
            break
    else:
        raise NonConvergence(f"no {'overshoot' if side == _UNDERSHOOT else 'undershoot'} "
                             "endpoint found")
    lo, hi = (guess, end) if side == _UNDERSHOOT else (end, guess)

    width_goal = min(tol, 8.0 * np.spacing(guess))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= max(width_goal, 2.0 * np.spacing(mid)):
            break
        if shoot(mid) == _OVERSHOOT:
            hi = mid
        else:
            lo = mid
    if hi - lo > tol:
        raise NonConvergence(f"bracket width {hi - lo:.3e} above tol {tol:.3e}")
    return lo, hi, shoot


def _trace_profile(p: float, d: int, r_max: float, n: int, q0: float):
    """The mesh r of n points on [0, r_max], q and q' on it, and the tail
    amplitude, for the bisected q0."""
    # forward pass with dense output; trustworthy until the growing mode
    # amplifies the residual bracket error
    fwd = solve_ivp(_rhs(d, p), (_SHOT_R0, r_max), _series_start(q0, p, d, _SHOT_R0),
                    method="DOP853", dense_output=True, rtol=_SHOT_RTOL, atol=_SHOT_ATOL)

    r_match = _pick_match_radius(fwd, q0)
    window = np.linspace(max(r_match - 1.0, 1.0), r_match, 41)
    q_window = fwd.sol(window)[0]

    # amplitude of the linear tail, refined against full nonlinear backward runs;
    # the stored amplitude is the one the last run started from, so the
    # profile's end and the tail beyond r_max meet
    amp = float(np.mean(q_window / decay_shape(d, window)))
    back = None
    for _ in range(3):
        if back is not None:
            amp *= float(np.mean(q_window / back.sol(window)[0]))
        y_end = (amp * decay_shape(d, r_max), amp * _decay_shape_deriv(d, r_max))
        back = solve_ivp(_rhs(d, p), (r_max, window[0] - 1.0), y_end,
                         method="DOP853", dense_output=True, rtol=1e-12, atol=1e-300)

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

    return r, q, dq, amp


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


def radial_integral(gs: GroundState, values: np.ndarray) -> float:
    """Simpson integral of values(r) r^(d-1) over the mesh, times the sphere area."""
    return sphere_area(gs.d) * simpson(values * gs.r ** (gs.d - 1), x=gs.r)


@lru_cache(maxsize=None)
def _leggauss(nodes: int):
    return np.polynomial.legendre.leggauss(nodes)


def panel_edges(breaks, step: float) -> np.ndarray:
    """Edges of the panels that cut each interval between consecutive breaks
    into equal parts at most step wide."""
    return np.concatenate([np.linspace(a, b, max(2, int(np.ceil((b - a) / step)) + 1))[:-1]
                           for a, b in zip(breaks[:-1], breaks[1:])] + [breaks[-1:]])


def gl_panels(edges: np.ndarray, nodes: int):
    """Nodes and weights of the composite Gauss-Legendre rule on the panels
    between consecutive edges."""
    return tuple(a.ravel() for a in gl_rows(edges, *_leggauss(nodes)))


def gl_rows(edges: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Nodes and weights of the composite rule whose one-panel template on
    [-1, 1] is (x, w), on the panels between consecutive edges: one row per
    panel, so the raveled rows are ``gl_panels``' for a Gauss-Legendre x."""
    half = (0.5 * (edges[1:] - edges[:-1]))[:, None]
    mid = (0.5 * (edges[:-1] + edges[1:]))[:, None]
    return half * x + mid, half * w


def gl_axis(breaks, nodes: int, step: float):
    """Nodes and weights of the composite Gauss-Legendre rule over consecutive
    intervals between breaks, each cut into equal panels at most step wide."""
    return gl_panels(panel_edges(breaks, step), nodes)


def transverse_edges(d: int, half_width: float, step: float) -> np.ndarray | None:
    """Panel edges across the first axis of a Cartesian rule: None for d = 1,
    whose transverse axis is one node, and [-half_width, half_width] cut into
    panels at most step wide for d = 2.  QuadratureFailure for any other d."""
    if d == 1:
        return None
    if d == 2:
        return panel_edges((-half_width, half_width), step)
    raise QuadratureFailure(f"Cartesian rules cover d in (1, 2), got {d}")


def transverse_axis(edges: np.ndarray | None, nodes: int):
    """Nodes and weights across the first axis on ``transverse_edges``: the
    one node y2 = 0 of weight 1 for d = 1 (edges None), the composite
    Gauss-Legendre rule on the panels for d = 2."""
    if edges is None:
        return np.zeros(1), np.ones(1)
    return gl_panels(edges, nodes)


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
    y2, w2 = transverse_axis(transverse_edges(gs.d, gs.r_max, 0.5), nodes_per_panel)
    rr = np.hypot(y1[:, None], y2)
    return float(w1 @ (gs.q_at(rr) ** p * np.exp(-y1)[:, None]) @ w2)


def structure_constants(gs: GroundState) -> StructureConstants:
    """All scalar constants from two integrals of the sampled profile: I_Q by
    the Cartesian rule with 8 and 12 nodes per panel, which must agree, and
    ||Q||^2 by the radial Simpson rule."""
    coarse = _i_q_cartesian(gs, 8)
    i_q = _i_q_cartesian(gs, 12)
    if abs(i_q - coarse) > max(I_Q_TOL, 1e-9 * abs(i_q)):
        raise QuadratureFailure(f"Cartesian rule not converged: {abs(i_q - coarse):.3e}")
    l2 = radial_integral(gs, gs.q ** 2)

    # Q = (1 - Laplacian)^-1 Q^p: the kernel's far field makes the tail
    # (2 pi)^(-d/2) I_Q decay_shape(d, r)
    c_q = _SQRT_HALF_PI * (2.0 * np.pi) ** (-0.5 * gs.d) * i_q
    # <-y_j Q, d_j Q> = ||Q||^2 / 2 and <Lambda Q, Q> = (2/(p-1) - d/2) ||Q||^2,
    # both by parts
    c2 = 0.5 * l2
    c1 = (2.0 / (gs.p - 1.0) - 0.5 * gs.d) * l2
    c_p = c_q * i_q
    return StructureConstants(c_q=float(c_q), i_q=float(i_q), c1=float(c1), c2=float(c2),
                              c_p=float(c_p), c=float(2.0 * c_p / c2), l2=float(l2))


def ode_residual(gs: GroundState) -> np.ndarray:
    """Pointwise residual q'' + (d-1)/r q' - q + q^p on the mesh."""
    # q'' on cell j is the t-derivative of the q' polynomial over h; the last
    # mesh point is t = 1 of the last cell
    cells = gs._cells[:, 6 * _DQ:6 * _DQ + 6]
    d2 = np.empty_like(gs.r)
    d2[:-1] = cells[:, 1]
    d2[-1] = np.arange(1.0, 6.0) @ cells[-1, 1:]
    d2 /= gs._cell_width
    with np.errstate(divide="ignore", invalid="ignore"):
        geom = np.where(gs.r > 0, (gs.d - 1.0) / gs.r * gs.dq, 0.0)
    res = d2 + geom - gs.q + gs.q ** gs.p
    # at r=0 the geometric term tends to (d-1) q''(0)
    res[0] = gs.d * d2[0] - gs.q[0] + gs.q[0] ** gs.p
    return res
