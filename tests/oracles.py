"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the package's own numerics: fixed-step
classic RK4 and plain bisection for the profile, scipy's B-spline
evaluation of the profile interpolants (not the package's per-cell Taylor
table), scipy's adaptive quadrature (not the package's fixed
Gauss-Legendre rule) for the d=1 interaction force, the angular reduction
of the interaction integral, the flow residual written term by term from
the profile values, the first variation of the nonlinearity, and the
split-step loop in numpy's allocating array idiom.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import make_interp_spline
from scipy.special import i0

from twobubble.errors import Overflow
from twobubble.groundstate import _decay_shape_deriv, decay_shape


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


def nonlinearity_derivative(P: np.ndarray, eps: np.ndarray, p: float) -> np.ndarray:
    """First variation F'(P).eps = (p+1)/2 |P|^(p-1) eps + (p-1)/2 |P|^(p-3) P^2 conj(eps),
    with (P/|P|)^2 taken as 0 where P = 0."""
    a = np.abs(P)
    phase_sq = np.zeros_like(P)
    nz = a > 0
    phase_sq[nz] = (P[nz] / a[nz]) ** 2
    a = a ** (p - 1.0)
    return 0.5 * (p + 1.0) * a * eps + 0.5 * (p - 1.0) * a * phase_sq * np.conj(eps)


if __name__ == "__main__":
    import sys

    p = float(sys.argv[1]) if len(sys.argv) > 1 else 3.0
    d = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    h = float(sys.argv[3]) if len(sys.argv) > 3 else 1e-5
    width = float(sys.argv[4]) if len(sys.argv) > 4 else 1e-10
    print(f"q0({p=}, {d=}, {h=}) = {shoot_q0(p, d, h=h, bracket_width=width):.12f}")

