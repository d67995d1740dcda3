"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the package's own numerics: fixed-step
classic RK4 and plain bisection for the profile, scipy's k=5 B-spline
interpolants of the profile samples (not the package's quintic Hermite
cell table), scipy's adaptive quadrature (not the package's fixed
Gauss-Legendre rule) for the d=1 interaction force, the two-sided force
rule that the package folds onto one half-space, the package's earlier
folded rule (every node evaluated on every call) and its earlier fixed
panel widths, the angular reduction of the interaction integral I_Q, the
package's earlier Cartesian rule for I_Q (over y1 and a transverse axis on
[-r_max, r_max], with the Gauss-Legendre axis helpers it and the force
oracles share), the flow residual written term by term from
the profile values, the first variation of the nonlinearity, the
package's earlier profile evaluator (one row-layout table per field, the
tail written over the cell polynomials) with the three-call Bessel form
of the tail's derivative, the package's earlier shooting for the ground
state (a shot through ``solve_ivp`` with terminal events on the numpy
right-hand side, and a bracket search and bisection on q0 that shoots
every q0 it classifies), the package's earlier integration of the
modulation system (``solve_ivp`` with its collision event and ``t_eval``
samples), the split-step loop in numpy's allocating array idiom, the in-place
split-step kernel on scipy.fft with cos and sin on every point, which the
package's kernel must equal element for element, and the package's
earlier measure of the modulation error: the lab-frame error from the
ansatz sum, a bubble pair of its own, and its renormalized H1 norm from
separate L2 and gradient sums.

Checks that only the tests call live here too: the residual of the
profile equation on the mesh, with q'' from a fourth-order difference of
the samples; the scaling generator Lambda Q; the modulation vectors of
given parameter derivatives and the flow residual of the ansatz assembled
from them; the linearized operators L+ and L- with their quadratic form,
and the real-pairing projection onto the null directions, which give the
least ratio of the projected form to the squared H1 norm over random
fields (``coercivity_check``); and the field helpers the tests build and
compare lattice fields with (a checked constructor, conjugation,
reflection, the spectral Laplacian, the L2 norm) and the interaction term
G = F(P1 + P2) - F(P1) - F(P2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import make_interp_spline
from scipy.special import i0

from twobubble.ansatz import (COLLISION_SEP, BubbleParams, LatticeBubble, _check_grid,
                              _cross_term, ansatz_on_lattice, bubble_pair, force_asymptotic,
                              transverse_edges)
from twobubble.errors import (CollisionDetected, NonConvergence, Overflow, ResolutionTooLow,
                              StepTooLarge)
from twobubble.groundstate import (_CHUNK, FORCE_CUT, _decay_shape_deriv, _hermite_cells,
                                   _ode_derivatives, closed_form_q0, decay_shape, force_panel,
                                   gl_rows, panel_edges)
from twobubble.modulation_fit import _bare_fields
from twobubble.nls_core import ComplexField, Grid, h1_norm_sq, integrate


def rk4_shot(q0: float, p: float, d: int, r_max: float, h: float) -> int:
    """Integrate one shot with fixed-step RK4; -1 overshoot, +1 undershoot."""
    r = 1e-6
    curv = (q0 - q0 ** p) / d
    q = q0 + 0.5 * curv * r * r
    w = curv * r

    def f(r, q, w):
        return w, q - math.copysign(abs(q) ** p, q) - (d - 1) / r * w

    while r < r_max:
        k1q, k1w = f(r, q, w)
        k2q, k2w = f(r + 0.5 * h, q + 0.5 * h * k1q, w + 0.5 * h * k1w)
        k3q, k3w = f(r + 0.5 * h, q + 0.5 * h * k2q, w + 0.5 * h * k2w)
        k4q, k4w = f(r + h, q + h * k3q, w + h * k3w)
        q += h / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
        w += h / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w)
        r += h
        if q <= 0.0:
            return -1
        if w > 0.0:
            return +1
    return +1


def shoot_q0(p: float, d: int, h: float = 1e-3, bracket_width: float = 1e-8,
             lo: float = 1.0, hi: float = 8.0, r_max: float = 20.0) -> float:
    """Bisection on q(0) with the fixed-step integrator."""
    assert rk4_shot(lo, p, d, r_max, h) == +1
    assert rk4_shot(hi, p, d, r_max, h) == -1
    while hi - lo > bracket_width:
        mid = 0.5 * (lo + hi)
        if rk4_shot(mid, p, d, r_max, h) == -1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# the two classes of a shot
_OVERSHOOT = -1
_UNDERSHOOT = +1


def _series_start(q0: float, p: float, d: int, r0: float) -> tuple[float, float]:
    # q(r) ~ q0 + (q0 - q0^p) r^2 / (2d) removes the coordinate singularity
    curv = (q0 - q0 ** p) / d
    return q0 + 0.5 * curv * r0 ** 2, curv * r0


def rhs_reference(d: int, p: float):
    """The shot's right-hand side on numpy scalars."""
    def rhs(r, y):
        q, w = y
        return (w, q - np.sign(q) * np.abs(q) ** p - (d - 1.0) / r * w)

    return rhs


def classify_reference(q0: float, p: float, d: int, r_max: float) -> int:
    """One shot through ``solve_ivp``'s terminal events: _OVERSHOOT when q
    crosses zero first, _UNDERSHOOT when q' turns upward first or the shot
    reaches r_max."""
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

    sol = solve_ivp(rhs_reference(d, p), (r0, r_max), y0, method="DOP853",
                    events=(cross, turn), rtol=1e-12, atol=1e-16)
    if sol.t_events[0].size:
        return _OVERSHOOT
    return _UNDERSHOOT


def bisect_q0_reference(p: float, d: int, tol: float, r_max: float):
    """The final bracket (lo, hi) of q0 from the plain bracket search and
    bisection, which shoots every q0 it classifies by ``classify_reference``,
    and the (q0, class) of each shot in order."""
    classified = []

    def shoot(q0: float) -> int:
        side = classify_reference(q0, p, d, r_max)
        classified.append((q0, side))
        return side

    # bracket around the d=1 closed form scaled by a dimension heuristic: the
    # guess is classified once, then the search steps away from it by 1.25
    # until the class flips
    guess = closed_form_q0(p) * 1.5 ** (d - 1)
    side = shoot(guess)
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
    width = hi - lo
    if width > tol:
        raise NonConvergence(f"bracket width {width:.3e} above tol {tol:.3e}")
    return lo, hi, classified


def integrate_reduced_reference(state0, s_end: float, gs, constants, tol: float,
                                mode: str, n_samples: int):
    """The modulation system through ``solve_ivp`` with a terminal collision
    event and ``t_eval`` sampling, on the numpy right-hand side: (s, y) with
    y = (lam, z, gamma, v) by rows.  A collision raises CollisionDetected."""
    d = state0.d
    y0 = np.concatenate([[state0.lam], state0.z, [state0.gamma], state0.v])
    if mode == "quadrature":
        law, gain = gs.force_law, -(2.0 / constants.c2)

        def force(z):
            zlen = math.sqrt(z @ z)
            a = gain * law(zlen)
            return [a * (c / zlen) for c in z.tolist()]
    else:
        def force(z):
            return (-force_asymptotic(z, constants.c, gs.d)).tolist()

    def rhs(s, y):
        z, v = y[1:1 + d], y[2 + d:]
        return np.array([0.0, *[2.0 * c for c in v.tolist()],
                         1.0 + 0.25 * float(v @ v), *force(z)])

    def collide(s, y):
        z = y[1:1 + d]
        return math.sqrt(z @ z) - COLLISION_SEP

    collide.terminal = True

    span = abs(s_end - state0.s)
    sol = solve_ivp(rhs, (state0.s, s_end), y0, method="DOP853",
                    rtol=tol, atol=min(tol * 1e-2, 1e-13), events=collide,
                    t_eval=np.linspace(state0.s, s_end, n_samples),
                    max_step=max(1.0, span / 20.0))
    if sol.status == 1:
        raise CollisionDetected(
            f"|z| reached {COLLISION_SEP} at s = {sol.t_events[0][0]:.3f}")
    assert sol.success, sol.message
    return sol.t, sol.y


def profile_spline_reference(gs):
    """q and q' of a ground state through scipy's k=5 B-splines, as functions of r.

    The same interpolants the package tabulates per mesh cell, evaluated in
    B-form (de Boor's recurrence); beyond r_max the matched linear tail.
    """

    def evaluator(values, tail):
        spline = make_interp_spline(gs.r, values, k=5)

        def at(rr):
            rr = np.asarray(rr, dtype=float)
            out = np.empty_like(rr)
            inside = rr <= gs.r_max
            out[inside] = spline(rr[inside])
            if not inside.all():
                out[~inside] = gs.tail_amplitude * tail(gs.d, rr[~inside])
            return out

        return at

    return evaluator(gs.q, decay_shape), evaluator(gs.dq, _decay_shape_deriv)


def lam_q(gs, r) -> np.ndarray:
    """Radial part of the scaling generator, 2/(p-1) q + r q', from one q_dq_at."""
    q, dq = gs.q_dq_at(r)
    return 2.0 / (gs.p - 1.0) * q + r * dq


def ode_residual(gs) -> np.ndarray:
    """Pointwise residual q'' + (d-1)/r q' - q + q^p on the mesh.

    q'' is the fourth-order central difference of the q samples, which are
    mirrored evenly at r = 0 and continued past r_max by the matched tail;
    it does not read the package's cell table, whose q'' is the equation's
    own.  At r = 0 the geometric term tends to (d-1) q''(0).
    """
    h = gs.r[1] - gs.r[0]
    q = np.concatenate([gs.q[2:0:-1], gs.q, gs.q_at(gs.r_max + h * np.arange(1.0, 3.0))])
    d2 = (16.0 * (q[1:-3] + q[3:-1]) - (q[:-4] + q[4:]) - 30.0 * q[2:-2]) / (12.0 * h * h)
    geom = np.zeros_like(gs.r)
    geom[1:] = (gs.d - 1.0) / gs.r[1:] * gs.dq[1:]
    geom[0] = (gs.d - 1.0) * d2[0]
    return d2 + geom - gs.q + gs.q ** gs.p


def row_layout_profile(gs):
    """q and q' of a ground state through one (6, n_cells) table each, as functions of r.

    The package's earlier evaluator: row k of a table holds the t^k
    coefficient of every cell; each call runs one field over all its radii
    in chunks (six row gathers and one Horner pass), past r_max too, and
    then overwrites those radii with the matched tail.  Each table holds
    the package's per-field quintic Hermite coefficients (``_hermite_cells``
    on the samples and ``_ode_derivatives``).  The package's joint evaluator
    must equal it value for value.
    """
    h = gs.r_max / (gs.r.size - 1)

    def horner_scalar(cells, s):
        n_cells = cells.shape[1]
        s = min(s, float(n_cells))
        j = min(max(int(s), 0), n_cells - 1)
        t = s - j
        c0, c1, c2, c3, c4, c5 = cells[:, j].tolist()
        return ((((c5 * t + c4) * t + c3) * t + c2) * t + c1) * t + c0

    def horner_cells(cells, rr, out):
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

    def evaluator(data, tail):
        rows = np.empty((gs.r.size - 1, 6))
        _hermite_cells(h, *data, rows)
        cells = np.ascontiguousarray(rows.T)

        def at(rr):
            rr = np.asarray(rr, dtype=float)
            if rr.ndim == 0:
                x = float(rr)
                if x <= gs.r_max:
                    return np.array(horner_scalar(cells, x / h))
                return np.array(gs.tail_amplitude * tail(gs.d, x))
            out = np.empty(rr.shape)
            horner_cells(cells, np.ravel(rr), out.reshape(-1))
            inside = rr <= gs.r_max
            if not inside.all():
                out[~inside] = gs.tail_amplitude * tail(gs.d, rr[~inside])
            return out

        return at

    d2q, d3q = _ode_derivatives(gs)
    return (evaluator((gs.q, gs.dq, d2q), decay_shape),
            evaluator((gs.dq, d2q, d3q), _decay_shape_deriv))


def gl_panels(edges: np.ndarray, nodes: int):
    """Nodes and weights of the composite Gauss-Legendre rule on the panels
    between consecutive edges."""
    return tuple(a.ravel() for a in gl_rows(edges, *np.polynomial.legendre.leggauss(nodes)))


def gl_axis(breaks, nodes: int, step: float):
    """Nodes and weights of the composite Gauss-Legendre rule over consecutive
    intervals between breaks, each cut into equal panels at most step wide."""
    return gl_panels(panel_edges(breaks, step), nodes)


def transverse_axis(edges: np.ndarray | None, nodes: int):
    """Nodes and weights across the first axis on ``transverse_edges``: the
    one node y2 = 0 of weight 1 for d = 1 (edges None), the composite
    Gauss-Legendre rule on the panels for d = 2."""
    if edges is None:
        return np.zeros(1), np.ones(1)
    return gl_panels(edges, nodes)


def i_q_cartesian(gs, nodes_per_panel: int) -> float:
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


def adaptive_force_1d(zlen: float, gs, quad_tol: float = 1e-10) -> float:
    """d=1 force magnitude H(|z|) by adaptive quadrature on four pieces.

    The pieces are split at y = -|z|, -|z|/2 and 0 and cut at |z| + 40; the
    integrands call the profile one scalar at a time.
    """
    p = gs.p
    scale = math.exp(-zlen)

    def near(y):
        # Q^{p-1}(y) dQ(y) Q(y+z) on y > -z/2
        return gs.q_at(abs(y)) ** (p - 1.0) * gs.dq_at(abs(y)) * np.sign(y) \
            * gs.q_at(abs(y + zlen))

    def far(y):
        # Q^{p-1}(y+z) dQ(y) Q(y) on y < -z/2
        return gs.q_at(abs(y + zlen)) ** (p - 1.0) * gs.dq_at(abs(y)) * np.sign(y) \
            * gs.q_at(abs(y))

    def piece(f, a, b):
        val, err = quad(f, a, b, epsabs=quad_tol * scale, epsrel=1e-10, limit=400)
        assert err <= 50.0 * max(quad_tol * scale, 1e-13 * abs(val)), err
        return val

    cut = zlen + 40.0
    return p * (piece(near, -0.5 * zlen, 0.0) + piece(near, 0.0, cut)
                + piece(far, -cut, -zlen) + piece(far, -zlen, -0.5 * zlen))


def adaptive_folded_force_1d(zlen: float, gs) -> float:
    """d=1 force magnitude H(|z|) by adaptive quadrature of the folded
    integrand p Q^{p-1}(y) Q(y+z) [d_1Q(y) - d_1Q(y+z)] over [-|z|/2, |z| + 40].

    Below p = 2, H is far above e^(-|z|) (2.2e-4 at p = 1.45, |z| = 16), so
    the pieces of ``adaptive_force_1d`` stop at its relative 1e-10, past
    the roughly 5e-12 its own error check allows.  Here the integral is
    split at 0 and where |y| or |y + z| reaches r_max, and each piece is
    held to a relative 1e-13.
    """
    p = gs.p

    def folded(y):
        return (gs.q_at(abs(y)) ** (p - 1.0) * gs.q_at(abs(y + zlen))
                * (gs.dq_at(abs(y)) * np.sign(y) - gs.dq_at(abs(y + zlen))))

    breaks = {-0.5 * zlen, 0.0, gs.r_max, gs.r_max - zlen, zlen + 40.0}
    breaks = sorted(b for b in breaks if -0.5 * zlen <= b <= zlen + 40.0)
    return p * sum(quad(folded, a, b, epsabs=1e-18 * math.exp(-zlen), epsrel=1e-13,
                        limit=4000)[0] for a, b in zip(breaks[:-1], breaks[1:]))


def two_sided_force(zlen: float, gs, nodes: int) -> float:
    """Force magnitude H(|z|) by the Cartesian rule over both half-spaces.

    z lies along e1 and y1 runs over [-|z| - b, b], split exactly at -|z|,
    -|z|/2 and 0, with b = FORCE_CUT/p in whole panels; near nodes
    (y1 > -|z|/2) weigh Q^{p-1}(y) d_1Q(y) Q(y+z), far nodes
    Q^{p-1}(y+z) d_1Q(y) Q(y).  The package's rule folds the far half onto
    the near one and must agree with this one node pair by node pair.
    """
    p, step = gs.p, force_panel(gs.p)
    cut = step * math.ceil(FORCE_CUT / (p * step))
    y2, w2 = transverse_axis(transverse_edges(gs.d, cut, step), nodes)
    y1, w1 = gl_axis((-zlen - cut, -zlen, -0.5 * zlen, 0.0, cut), nodes, step)
    Y1 = y1[:, None]
    r = np.hypot(Y1, y2)
    qr, qs = gs.q_at(np.stack([r, np.hypot(Y1 + zlen, y2)]))
    near = Y1 > -0.5 * zlen
    weight = np.where(near, qr, qs) ** (p - 1.0)
    partner = np.where(near, qs, qr)
    return p * float(w1 @ (weight * gs.dq_at(r) * (Y1 / r) * partner) @ w2)


# The force rule's earlier panel widths, one per dimension and sized for the
# largest p; ``force_nodes_reference`` with these is the earlier rule.
FIXED_PANEL = {1: 0.25, 2: 0.5}


def force_nodes_reference(zlen: float, gs, node_counts, step: float | None = None) -> list[float]:
    """The folded force rule with every node evaluated on every call, one
    pass per node count; the package prepares the z-independent half once
    per ground state and must equal this value for value.

    y1 runs over [-|z|/2, b], split at 0, and the transverse axis over
    [-b, b] (one node for d = 1), with b = FORCE_CUT/p in whole panels of
    width step (the package's ``force_panel(p)`` by default;
    ``FIXED_PANEL[d]`` gives its earlier rule).  Each node weighs
    p Q^{p-1}(y) Q(y+z) [d_1Q(y) - d_1Q(y+z)], the second term being the
    far half folded on.  q and q' are evaluated once, jointly, on the
    stacked radii (|y|, |y+z|) of every pass, and each pass then works in
    place on its share of them.
    """
    p = gs.p
    step = force_panel(p) if step is None else step
    cut = step * math.ceil(FORCE_CUT / (p * step))
    edges = panel_edges((-0.5 * zlen, 0.0, cut), step), transverse_edges(gs.d, cut, step)
    passes = []
    for nodes in node_counts:
        y1, w1 = gl_panels(edges[0], nodes)
        y2, w2 = transverse_axis(edges[1], nodes)
        passes.append((np.stack([y1, y1 + zlen])[:, :, None], y2, w1, w2))   # (y1, y1 + |z|)
    r = np.concatenate([np.hypot(shifted, y2).ravel() for shifted, y2, *_ in passes])
    q, dq = gs.q_dq_at(r)
    out, a = [], 0
    for shifted, y2, w1, w2 in passes:
        b = a + 2 * w1.size * w2.size
        rs, qs, pull = (v[a:b].reshape(2, w1.size, w2.size) for v in (r, q, dq))
        pull *= np.divide(shifted, rs, out=rs)          # (d_1Q(y), d_1Q(y + z))
        integrand = qs[0]
        integrand **= p - 1.0
        integrand *= qs[1]
        integrand *= np.subtract(pull[0], pull[1], out=pull[0])
        out.append(p * float(w1 @ integrand @ w2))
        a = b
    return out


def interaction_weight(d: int, r) -> np.ndarray:
    """Integral of e^(-x1) over the sphere of radius r (area element included).

    Reduces the non-radial interaction integral to one dimension.
    """
    r = np.asarray(r, dtype=float)
    if d == 1:
        return 2.0 * np.cosh(r)
    if d == 2:
        return 2.0 * np.pi * r * i0(r)
    raise ValueError(f"interaction weight implemented for d in (1, 2), got {d}")


@dataclass(frozen=True)
class ParamDerivs:
    """Time derivatives of (lambda, z, gamma, v) supplied by the caller."""

    lam_dot: float
    z_dot: np.ndarray
    gamma_dot: float
    v_dot: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z_dot", np.atleast_1d(np.asarray(self.z_dot, dtype=float)))
        object.__setattr__(self, "v_dot", np.atleast_1d(np.asarray(self.v_dot, dtype=float)))


@dataclass(frozen=True)
class ModulationVector:
    """Per-bubble modulation equation values; zero on the exact reduced flow."""

    m_scale: float
    m_translation: np.ndarray
    m_phase: float
    m_velocity: np.ndarray


def modulation_vectors(params, derivs: ParamDerivs) -> tuple[ModulationVector, ModulationVector]:
    """Each bubble's modulation equation values at the parameters and their derivatives."""
    out = []
    rel = derivs.lam_dot / params.lam
    for k in (1, 2):
        sgn = 1.0 if k == 1 else -1.0
        z_k = params.bubble_center(k)
        v_k = params.bubble_velocity(k)
        zd_k = sgn * 0.5 * derivs.z_dot
        vd_k = sgn * 0.5 * derivs.v_dot
        out.append(ModulationVector(
            m_scale=rel,
            m_translation=zd_k - 2.0 * v_k + rel * z_k,
            m_phase=derivs.gamma_dot - 1.0 + float(v_k @ v_k)
                    - rel * float(v_k @ z_k) - float(v_k @ zd_k),
            m_velocity=vd_k - rel * v_k,
        ))
    return out[0], out[1]


def ansatz_residual(params, derivs, gs, grid) -> ComplexField:
    """Flow residual assembled from the modulation vectors plus the cross term."""
    _check_grid(params, grid)
    bubbles = bubble_pair(params, gs, grid.x_mesh)
    total = np.zeros(grid.shape, dtype=complex)
    for b, m in zip(bubbles, modulation_vectors(params, derivs)):
        term = m.m_scale * (-1j * b.lamq)
        term = term + sum(mt * (-1j * gq) for mt, gq in zip(m.m_translation, b.grad_q))
        term = term + m.m_phase * (-b.q)
        term = term + sum(mv * (-o * b.q) for mv, o in zip(m.m_velocity, b.offs))
        total += b.phase * term
    total += _cross_term(*bubbles, gs.p)
    return ComplexField(grid, total)


def ansatz_residual_direct(params, derivs, gs, grid) -> np.ndarray:
    """Flow residual of the two-bubble ansatz, term by term from the renormalized equation.

    Builds each bubble from gs.q_at/gs.dq_at at the lattice offsets, with the
    Laplacian taken through the profile equation; independent of the
    assembled modulation-vector form.
    """
    p = gs.p
    rel = derivs.lam_dot / params.lam
    total = np.zeros(grid.shape, dtype=complex)
    P = np.zeros(grid.shape, dtype=complex)
    for k in (1, 2):
        sgn = 1.0 if k == 1 else -1.0
        v_k = params.bubble_velocity(k)
        zd_k = sgn * 0.5 * derivs.z_dot
        vd_k = sgn * 0.5 * derivs.v_dot
        offs = [x - c for x, c in zip(grid.x_mesh, params.bubble_center(k))]
        r = np.sqrt(sum(o ** 2 for o in offs))
        phase = np.exp(1j * sum(vc * o for vc, o in zip(v_k, offs)))
        q = gs.q_at(r)
        dq = gs.dq_at(r)
        with np.errstate(invalid="ignore"):
            unit = [np.where(r > 0, o / np.maximum(r, 1e-300), 0.0) for o in offs]
        grad_q = [dq * u for u in unit]
        pk = phase * q
        P += pk
        # i dP_k/ds
        idot = phase * ((-sum(vd * o for vd, o in zip(vd_k, offs))
                         + float(v_k @ zd_k)) * q
                        - 1j * sum(zd * gq for zd, gq in zip(zd_k, grad_q)))
        # Laplacian through the profile equation
        lap = phase * ((q - q ** p) + 2j * sum(vc * gq for vc, gq in zip(v_k, grad_q))
                       - float(v_k @ v_k) * q)
        grad_pk = [phase * (gq + 1j * vc * q) for gq, vc in zip(grad_q, v_k)]
        lam_pk = 2.0 / (p - 1.0) * pk + sum(x * gp for x, gp in zip(grid.x_mesh, grad_pk))
        total += idot + lap - pk - 1j * rel * lam_pk + (1.0 - derivs.gamma_dot) * pk
    return total + np.abs(P) ** (p - 1.0) * P


def strang_reference(values: np.ndarray, lin_half: np.ndarray, dt: float,
                     p: float, n_steps: int, sup_guard: float) -> np.ndarray:
    """n_steps of Strang splitting, drift-first with merged half drifts.

    Allocates a new array for every product and transform, with the phase
    taken as exp(1j * dt * |v|^(p-1)).
    """
    lin_full = lin_half * lin_half
    v = np.fft.ifftn(lin_half * np.fft.fftn(values))
    for step in range(n_steps):
        v = v * np.exp(1j * dt * np.abs(v) ** (p - 1.0))
        v = np.fft.ifftn((lin_full if step < n_steps - 1 else lin_half)
                         * np.fft.fftn(v))
        if not step % 64 or step == n_steps - 1:
            m = np.max(np.abs(v))
            if not np.isfinite(m) or m > sup_guard:
                raise Overflow(f"sup-norm {m:.3e} exceeded blow-up guard {sup_guard:.3e}")
    return v


def strang_chunk_reference(values: np.ndarray, k_sq: np.ndarray, dt: float, p: float,
                           n_steps: int, guard: float, weights: tuple[float, ...]) -> np.ndarray:
    """n_steps of Strang splitting, drift-first with merged half drifts.

    A step is the composition of Strang sub-steps of size w * dt, w in
    weights; the half drifts that meet between sub-steps and between steps
    are merged into one linear factor, and the last step ends on the closing
    half drift.  The first forward transform writes a new array, so the
    caller's values are never touched; every later transform and product
    runs in place on the kernel's own buffers.  The nonlinear phase
    dt |v|^(p-1) is built from re^2 + im^2 and applied as cos + i sin.  The
    guard is checked after every 64th step and after the last; a check
    raises Overflow past the sup-norm guard and StepTooLarge once
    dt sup^(p-1) reaches 1.
    """
    halves = [np.exp(-0.5j * w * dt * k_sq) for w in weights]
    joins = [h * halves[(j + 1) % len(halves)] for j, h in enumerate(halves)]
    fft, ifft = (sfft.fft, sfft.ifft) if values.ndim == 1 else (sfft.fftn, sfft.ifftn)
    half_power = 0.5 * (p - 1.0)
    squares = np.empty(values.shape[:-1] + (2 * values.shape[-1],))
    phase = np.empty(values.shape)
    rot = np.empty(values.shape, dtype=complex)
    v = fft(np.asarray(values, dtype=complex))
    v *= halves[0]
    v = ifft(v, overwrite_x=True)
    last = len(weights) - 1
    for step in range(n_steps):
        closing = step == n_steps - 1
        for j, w in enumerate(weights):
            # |v|^2 as the pairwise sum of the squared re/im doubles
            np.square(v.view(np.float64), out=squares)
            np.add(squares[..., 0::2], squares[..., 1::2], out=phase)
            if half_power != 1.0:
                np.power(phase, half_power, out=phase)
            phase *= w * dt
            np.cos(phase, out=rot.real)
            np.sin(phase, out=rot.imag)
            v *= rot
            v = fft(v, overwrite_x=True)
            v *= halves[last] if closing and j == last else joins[j]
            v = ifft(v, overwrite_x=True)
        if not step % 64 or closing:
            m = float(np.max(np.abs(v)))
            if not np.isfinite(m) or m > guard:
                raise Overflow(f"sup-norm {m:.3e} exceeded blow-up guard {guard:.3e} "
                               f"at step {step}")
            bound = abs(dt) * m ** (p - 1.0)
            if bound >= 1.0:
                raise StepTooLarge(f"per-step nonlinear phase {bound:.3f} >= 1 at step {step}")
    return v


def field_from_values(grid: Grid, values) -> ComplexField:
    values = np.asarray(values, dtype=complex)
    if values.shape != grid.shape:
        raise ResolutionTooLow(f"values shape {values.shape} != grid {grid.shape}")
    if not np.all(np.isfinite(values)):
        raise Overflow("non-finite values in field")
    return ComplexField(grid, values)


def conj(u: ComplexField) -> ComplexField:
    return ComplexField(u.grid, np.conj(u.values))


def reflect(u: ComplexField) -> ComplexField:
    """Values at -x, using the periodic identification of the box."""
    v = u.values
    for ax in range(u.grid.d):
        v = np.roll(np.flip(v, axis=ax), 1, axis=ax)
    return ComplexField(u.grid, v)


def laplacian(u: ComplexField) -> np.ndarray:
    return np.fft.ifftn(-u.grid.k_sq * np.fft.fftn(u.values))


def l2_norm_sq(u: ComplexField) -> float:
    return integrate(u.grid, np.abs(u.values) ** 2)


def interaction_G(params: BubbleParams, gs, grid: Grid) -> ComplexField:
    """Nonlinear cross term F(P1+P2) - F(P1) - F(P2)."""
    _check_grid(params, grid)
    return ComplexField(grid, _cross_term(*bubble_pair(params, gs, grid.x_mesh), gs.p))


def nonlinearity_derivative(P: np.ndarray, eps: np.ndarray, p: float) -> np.ndarray:
    """First variation F'(P).eps = (p+1)/2 |P|^(p-1) eps + (p-1)/2 |P|^(p-3) P^2 conj(eps),
    with (P/|P|)^2 taken as 0 where P = 0."""
    a = np.abs(P)
    phase_sq = np.zeros_like(P)
    nz = a > 0
    phase_sq[nz] = (P[nz] / a[nz]) ** 2
    a = a ** (p - 1.0)
    return 0.5 * (p + 1.0) * a * eps + 0.5 * (p - 1.0) * a * phase_sq * np.conj(eps)


def lab_frame_error(u, params, gs):
    """eps_lab = u - e^{i gamma} lam^{-2/(p-1)} P(x / lam) on the lattice."""
    P_scaled = ansatz_on_lattice(params, gs, [x / params.lam for x in u.grid.x_mesh])
    pref = np.exp(1j * params.gamma) * params.lam ** (-2.0 / (gs.p - 1.0))
    return ComplexField(u.grid, u.values - pref * P_scaled)


def renormalized_h1(eps_lab, lam: float, p: float) -> float:
    """H1 norm of the rescaled error in renormalized coordinates, with its L2
    and gradient parts summed separately."""
    g = eps_lab.grid
    eh = np.fft.fftn(eps_lab.values)
    scale = g.cell_volume / g.N ** g.d
    l2 = float(np.sum(np.abs(eh) ** 2)) * scale
    grad2 = float(np.sum(g.k_sq * np.abs(eh) ** 2)) * scale
    a = lam ** (4.0 / (p - 1.0) - g.d)
    return float(np.sqrt(a * l2 + a * lam ** 2 * grad2))


def apply_linearized(which: str, f: ComplexField, gs) -> ComplexField:
    """L+ or L- around the origin-centered profile, spectral Laplacian."""
    coef = gs.p if which == "plus" else 1.0
    g = f.grid
    q = LatticeBubble(gs, g.x_mesh, np.zeros(g.d), np.zeros(g.d)).q
    pot = coef * q ** (gs.p - 1.0)
    return ComplexField(g, -laplacian(f) + f.values - pot * f.values)


def quadratic_form(eta: ComplexField, gs) -> float:
    """<L+ Re eta, Re eta> + <L- Im eta, Im eta>."""
    g = eta.grid
    re = ComplexField(g, eta.values.real.astype(complex))
    im = ComplexField(g, eta.values.imag.astype(complex))
    lp = apply_linearized("plus", re, gs)
    lm = apply_linearized("minus", im, gs)
    vol = g.cell_volume
    return float((np.sum(lp.values * re.values) + np.sum(lm.values * im.values)).real) * vol


def projection_basis(gs, grid) -> list[np.ndarray]:
    """span{Q, y_m Q, i Lambda Q, i d_m Q} centered at the origin."""
    b = LatticeBubble(gs, grid.x_mesh, np.zeros(grid.d), np.zeros(grid.d))
    return [b.phase * f for f in _bare_fields(b, 2 + 2 * grid.d)]


def project_out(values: np.ndarray, basis: list[np.ndarray], vol: float) -> np.ndarray:
    """Remove the real-pairing components along the basis fields."""
    gram = np.array([[float(np.sum(bi * np.conj(bj)).real) * vol for bj in basis]
                     for bi in basis])
    rhs = np.array([float(np.sum(values * np.conj(bi)).real) * vol for bi in basis])
    coef = np.linalg.solve(gram, rhs)
    out = values.astype(complex).copy()
    for c, bi in zip(coef, basis):
        out -= c * bi
    return out


def coercivity_check(gs, grid, n_samples: int = 100,
                     seed: int = 0) -> tuple[float, np.ndarray]:
    """Minimum of the normalized quadratic form over projected random fields."""
    rng = np.random.default_rng(seed)
    basis = projection_basis(gs, grid)
    envelope = np.exp(-sum(x ** 2 for x in grid.x_mesh) / (grid.L / 4.0) ** 2)
    decay = np.exp(-0.25 * grid.k_sq)
    ratios = np.empty(n_samples)
    for i in range(n_samples):
        noise = (rng.standard_normal(grid.shape)
                 + 1j * rng.standard_normal(grid.shape))
        smooth = np.fft.ifftn(decay * np.fft.fftn(noise)) * envelope
        eta = ComplexField(grid, project_out(smooth, basis, grid.cell_volume))
        ratios[i] = quadratic_form(eta, gs) / h1_norm_sq(eta)
    return float(np.min(ratios)), ratios


if __name__ == "__main__":
    import sys

    p = float(sys.argv[1]) if len(sys.argv) > 1 else 3.0
    d = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    h = float(sys.argv[3]) if len(sys.argv) > 3 else 1e-5
    width = float(sys.argv[4]) if len(sys.argv) > 4 else 1e-10
    print(f"q0({p=}, {d=}, {h=}) = {shoot_q0(p, d, h=h, bracket_width=width):.12f}")
