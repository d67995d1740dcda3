"""Two-bubble approximate solution and its interaction machinery.

The configuration is symmetric: bubble centers at +-z/2 carry velocities
+-v/2 and a common scale and phase.  Every lattice field is built from
``LatticeBubble``, one lazily evaluated boosted bubble; the interaction
force H(z) is one Cartesian composite Gauss-Legendre rule for d = 1 and
d = 2 over the near half-space, onto which the reflection y -> -y - z
folds the far one, and at d = 2 over the half-plane y2 >= 0, onto which
the mirror y2 -> -y2 folds the other, cut where its integrand falls below
double precision against H, on panels whose width follows p
(``force_panel``), with a coarse/fine check.  A call keeps no state: it
lays its nodes and evaluates the profile on them in blocks of y1 rows of
at most ``_FORCE_BLOCK`` radii.  ``ForceLaw``
interpolates H once per ground state and reads it, in the dynamics, from a
table of cell polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridTooSmall, QuadratureFailure
from .groundstate import (FORCE_CUT, GL_NODES, GroundState, _stacked_template, force_panel,
                          gl_rows, panel_edges)
from .nls_core import ComplexField, Grid

# Separation below which the two-bubble ansatz, and its force law, is invalid.
COLLISION_SEP = 5.0


def smoothstep(x, a: float, b: float):
    """Quintic smoothstep on [a, b] (0 below a, 1 above b) and its derivative."""
    t = np.clip((np.asarray(x, dtype=float) - a) / (b - a), 0.0, 1.0)
    w = t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2)
    dw = 30.0 * t ** 2 * (1.0 - t) ** 2 / (b - a)
    return w, dw


@dataclass(frozen=True)
class BubbleParams:
    """Modulation vector (lambda, z, gamma, v) of the symmetric pair."""

    lam: float
    z: np.ndarray
    gamma: float
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z", np.atleast_1d(np.asarray(self.z, dtype=float)))
        object.__setattr__(self, "v", np.atleast_1d(np.asarray(self.v, dtype=float)))
        if self.lam <= 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")

    @property
    def d(self) -> int:
        return self.z.size

    def bubble_center(self, k: int) -> np.ndarray:
        return 0.5 * self.z if k == 1 else -0.5 * self.z

    def bubble_velocity(self, k: int) -> np.ndarray:
        return 0.5 * self.v if k == 1 else -0.5 * self.v


def _check_grid(params: BubbleParams, grid: Grid):
    if params.d != grid.d:
        raise GridTooSmall(f"params dimension {params.d} != grid dimension {grid.d}")
    if 0.5 * float(np.linalg.norm(params.z)) + 10.0 >= grid.L:
        raise GridTooSmall(
            f"|z|/2 + 10 = {0.5 * np.linalg.norm(params.z) + 10:.2f} >= L = {grid.L}")


class LatticeBubble:
    """One boosted bubble e^{i v.(y - z)} Q(y - z) at the given coordinates.

    The offsets y - z and radii are computed at construction, since every
    caller reads them; every other field is computed on first use, so a
    caller pays only for what it reads.  q and q' come from one
    ``gs.q_dq_at`` on the first read of either (a caller reading only the
    geometry may pass gs=None), and every field is built from them alone:
    the fit's Jacobian needs no second derivative of Q.  q'/r takes its
    r -> 0 limit q''(0) = (q0 - q0^p)/d.
    """

    def __init__(self, gs: GroundState, coords, center: np.ndarray, vel: np.ndarray):
        self.gs = gs
        self.vel = vel
        self.offs = [c - zc for c, zc in zip(coords, center)]
        self.r = np.sqrt(sum(o ** 2 for o in self.offs))

    @cached_property
    def _q_dq(self) -> tuple[np.ndarray, np.ndarray]:
        return self.gs.q_dq_at(self.r)

    @cached_property
    def q(self) -> np.ndarray:
        return self._q_dq[0]

    @cached_property
    def phase(self) -> np.ndarray:
        return np.exp(1j * sum(vc * o for vc, o in zip(self.vel, self.offs)))

    @cached_property
    def values(self) -> np.ndarray:
        return self.phase * self.q

    @cached_property
    def dq(self) -> np.ndarray:
        return self._q_dq[1]

    @cached_property
    def dq_over_r(self) -> np.ndarray:
        gs, safe = self.gs, self.r > 1e-12
        return np.where(safe, self.dq / np.where(safe, self.r, 1.0),
                        (gs.q0 - gs.q0 ** gs.p) / gs.d)

    @cached_property
    def grad_q(self) -> list[np.ndarray]:
        return [self.dq_over_r * o for o in self.offs]

    @cached_property
    def lamq(self) -> np.ndarray:
        """Radial part of the scaling generator, 2/(p-1) q + r q'."""
        return 2.0 / (self.gs.p - 1.0) * self.q + self.r * self.dq


def bubble_pair(params: BubbleParams, gs: GroundState,
                coords) -> tuple[LatticeBubble, LatticeBubble]:
    """Both bubbles of the symmetric pair at the given coordinates."""
    return tuple(LatticeBubble(gs, coords, params.bubble_center(k),
                               params.bubble_velocity(k)) for k in (1, 2))


def ansatz_on_lattice(params: BubbleParams, gs: GroundState, coords) -> np.ndarray:
    """P = P1 + P2 at the given lattice coordinates (x / lambda for the lab frame)."""
    b1, b2 = bubble_pair(params, gs, coords)
    return b1.values + b2.values


def build_two_bubble(params: BubbleParams, gs: GroundState, grid: Grid) -> ComplexField:
    """Sum of the two boosted, translated copies of the ground state."""
    _check_grid(params, grid)
    return ComplexField(grid, ansatz_on_lattice(params, gs, grid.x_mesh))


# Composite Gauss-Legendre rule shared by d = 1 and d = 2: panels whose
# width follows p (``force_panel``), evaluated with the coarse and the fine
# node count of GL_NODES, whose disagreement, against FORCE_TOL times the
# leading-order size of H, bounds the error.
FORCE_TOL = 1e-10
# Most radii at which one evaluation of the force rule takes the profile:
# 2^20 radii hold 8 MB per array.  At d = 2, p = 7, |z| = 40 the rule has
# 15.8 million radii, and evaluated at once they peaked at 549 MB.
_FORCE_BLOCK = 1 << 20


def _force_cut(p: float) -> np.ndarray:
    """Panel edges on [0, b] of the folded rule, with z along e1: y1 runs
    over [-|z|/2, b], split at 0, and at d = 2 the transverse axis over
    [0, b].

    The width is ``force_panel(p)`` for d = 1 and d = 2 alike.  At a
    distance b beyond either bubble, or across the pair axis, the integrand
    is below e^(-p b) of H, so both axes stop at b = FORCE_CUT/p rounded up
    to whole panels, whose edges are the multiples of the width."""
    step = force_panel(p)
    return step * np.arange(math.ceil(FORCE_CUT / (p * step)) + 1)


def _force_nodes(zlen: float, gs: GroundState) -> list[float]:
    """The folded rule at separation |z|, one value per node count
    (coarse, fine).

    The reflection y -> -y - z swaps the bubbles and maps the far half-space
    y1 < -|z|/2 onto the near one, so H is the near integral of
    p Q^{p-1}(y) Q(y+z) [d_1Q(y) - d_1Q(y+z)], the second term being the far
    half folded on.  It maps the two-sided rule's nodes onto these, so the
    folded rule is that rule with each node pair summed.  At d = 2 the
    integrand is even in y2, the panels of [-b, b] are mirror images with 0
    as an edge and the Gauss-Legendre nodes are symmetric, so the transverse
    axis runs over [0, b] with doubled weights and sums the same terms
    pairwise; d = 1 has no transverse axis, and any other d is a
    QuadratureFailure.

    Both passes take their rows from one stacked template.  Each pass is cut
    into blocks of y1 rows of at most ``_FORCE_BLOCK`` radii, and q and q'
    come from one joint evaluation at |y| and |y+z| per run of blocks that
    fits in ``_FORCE_BLOCK``: one for both passes at d = 1 and wherever the
    rule is small, so that a pass of one block sums as one product.  Every
    radius is > 0: y1 = 0 is a break, so no node lies on it, and
    y1 > -|z|/2."""
    p, d = gs.p, gs.d
    if d not in (1, 2):
        raise QuadratureFailure(f"the force rule covers d in (1, 2), got {d}")
    outer = _force_cut(p)
    x, w, spans = _stacked_template(GL_NODES)
    near = panel_edges((-0.5 * zlen, 0.0), outer[1])[:-1]
    y1s, w1s = gl_rows(np.concatenate([near, outer]), x, w)
    if d == 2:
        y2s, w2s = gl_rows(outer, x, w)
    sums, run, size = [0.0] * len(spans), [], 0
    for k, cols in enumerate(spans):
        y1, w1 = y1s[:, cols].ravel(), w1s[:, cols].ravel()
        y2 = w2 = None
        if d == 2:
            y2, w2 = y2s[:, cols].ravel(), 2.0 * w2s[:, cols].ravel()
        width = 2 if y2 is None else 2 * y2.size        # radii per y1 row
        rows = max(1, _FORCE_BLOCK // width)
        for a in range(0, y1.size, rows):
            n = width * min(rows, y1.size - a)
            if run and size + n > _FORCE_BLOCK:
                _add_block_sums(run, zlen, gs, sums)
                run, size = [], 0
            run.append((k, y1[a:a + rows], w1[a:a + rows], y2, w2))
            size += n
    _add_block_sums(run, zlen, gs, sums)
    return [p * total for total in sums]


def _add_block_sums(blocks: list, zlen: float, gs: GroundState, sums: list) -> None:
    """Add each block's part of its pass's sum to sums, from one joint
    evaluation of q and q' at the radii of all the blocks."""
    parts = []
    for k, y1, w1, y2, w2 in blocks:
        shifted = np.stack([y1, y1 + zlen])             # (y1, y1 + |z|)
        if y2 is None:
            r = np.abs(shifted)
        else:
            shifted = shifted[:, :, None]
            r = np.hypot(shifted, y2)
        parts.append((k, shifted, w1, w2, r))
    q, dq = gs.q_dq_at(np.concatenate([r.ravel() for *_, r in parts]))
    at = 0
    for k, shifted, w1, w2, r in parts:
        qs, pull = (v[at:at + r.size].reshape(r.shape) for v in (q, dq))
        at += r.size
        pull *= np.divide(shifted, r, out=r)            # (d_1Q(y), d_1Q(y + z))
        integrand = qs[0]
        integrand **= gs.p - 1.0
        integrand *= qs[1]
        integrand *= np.subtract(pull[0], pull[1], out=pull[0])
        sums[k] += float(w1 @ integrand if w2 is None else w1 @ integrand @ w2)


def interaction_force_H(z, gs: GroundState, min_sep: float = COLLISION_SEP) -> np.ndarray:
    """Half-space-split projection of the interaction onto the translation direction.

    The integral is split exactly at y.(z/|z|) = -|z|/2 and its far half is
    folded onto the near one by y -> -y - z (``_force_nodes``); the result is
    parallel to z and follows C_p zhat |z|^(-(d-1)/2) e^(-|z|) at leading
    order.  The composite Gauss-Legendre rule stops FORCE_CUT/p beyond the
    near bubble and across the pair axis, where the integrand has fallen
    below e^-FORCE_CUT of H, and runs with 8 and 12 nodes per panel on the
    same panels; they must agree to
    max(FORCE_TOL |z|^(-(d-1)/2) e^(-|z|), 1e-8 |H|).  A non-finite z, or
    |z| below min_sep, is a QuadratureFailure.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    zlen = float(np.linalg.norm(z))
    if not math.isfinite(zlen):
        raise QuadratureFailure(f"non-finite separation z = {z}")
    if zlen < min_sep:
        raise QuadratureFailure(f"|z| = {zlen:.2f} below validity threshold {min_sep}")
    coarse, fine = _force_nodes(zlen, gs)
    scale = zlen ** (-0.5 * (gs.d - 1)) * np.exp(-zlen)
    if abs(fine - coarse) > max(FORCE_TOL * scale, 1e-8 * abs(fine)):
        raise QuadratureFailure(
            f"{gs.d}d force rule not converged at |z| = {zlen:.3f}: "
            f"|fine - coarse| = {abs(fine - coarse):.3e}")
    return fine * z / zlen


# Domain in |z| and node count of the cached force law.  Its readers stop at
# the collision threshold COLLISION_SEP = 5; the stages of the reduced
# dynamics dip below it before the collision event is located, to |z| = 4.76
# at the least in 2000 predictor runs from |z| in [5.01, 7] with |v| <= 0.5,
# so 4 leaves a margin.  40 is s ~ 1e8 on the orbit.
FORCE_LAW_DOMAIN = (4.0, 40.0)
FORCE_LAW_NODES = 80
# Cells of the law's table, uniform in the Chebyshev variable, and the
# degree of its polynomial on each cell
FORCE_LAW_CELLS = 128
FORCE_LAW_DEGREE = 7


class ForceLaw:
    """|H| as a function of |z|, interpolated once per ground state.

    g = log H + |z| + ((d-1)/2) log |z| tends to log C_p and is smooth in
    w = 1/|z| for d = 1 and 2, so its Chebyshev interpolant in w on
    first-kind nodes, each one call of the reference rule
    ``interaction_force_H``, converges geometrically.  That series is then
    re-expanded, with no further rule calls, as a table of FORCE_LAW_CELLS
    cells uniform in its variable x in [-1, 1]: row j holds the monomial
    coefficients in t = s - j, s = (x + 1) FORCE_LAW_CELLS/2, of the degree
    FORCE_LAW_DEGREE polynomial that interpolates the series at the
    Chebyshev points of cell j.  A call reads one row and runs one Horner
    pass, in Python floats.
    """

    def __init__(self, gs: GroundState):
        lo, hi = FORCE_LAW_DOMAIN
        e1, self.d = np.eye(gs.d)[0], gs.d

        def g(w):
            H = [interaction_force_H(e1 / x, gs, min_sep=lo)[0] for x in w]
            return np.log(H) + 1.0 / w - 0.5 * (gs.d - 1) * np.log(w)

        cheb = np.polynomial.Chebyshev.interpolate(g, FORCE_LAW_NODES - 1, (1 / hi, 1 / lo))
        n = FORCE_LAW_DEGREE + 1
        t = 0.5 - 0.5 * np.cos(np.pi * (np.arange(n) + 0.5) / n)
        x = (np.arange(FORCE_LAW_CELLS)[:, None] + t) * (2.0 / FORCE_LAW_CELLS) - 1.0
        values = np.polynomial.chebyshev.chebval(x, cheb.coef)
        coef = np.linalg.solve(np.vander(t, n, increasing=True), values.T).T
        self._rows = coef.tolist()                  # row j: c_0 .. c_7 of cell j
        # s = (x + 1) cells/2 with x = off + scl/|z|
        off, scl = map(float, cheb.mapparms())
        self._s0 = (off + 1.0) * (0.5 * FORCE_LAW_CELLS)
        self._s1 = scl * (0.5 * FORCE_LAW_CELLS)

    def __call__(self, zlen: float) -> float:
        lo, hi = FORCE_LAW_DOMAIN
        if not lo <= zlen <= hi:
            raise QuadratureFailure(
                f"|z| = {zlen:.6g} outside the force law domain [{lo:g}, {hi:g}]")
        s = self._s0 + self._s1 / zlen
        j = min(max(int(s), 0), FORCE_LAW_CELLS - 1)
        t = s - j
        c0, c1, c2, c3, c4, c5, c6, c7 = self._rows[j]
        g = (((((((c7 * t + c6) * t + c5) * t + c4) * t + c3) * t + c2) * t + c1) * t + c0)
        return math.exp(g - zlen - 0.5 * (self.d - 1) * math.log(zlen))


def force_asymptotic(z, c_p: float, d: int) -> np.ndarray:
    """Leading-order law C_p zhat |z|^(-(d-1)/2) e^(-|z|)."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    zlen = float(np.linalg.norm(z))
    return c_p * (z / zlen) * zlen ** (-0.5 * (d - 1)) * np.exp(-zlen)
