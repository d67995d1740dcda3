"""Two-bubble approximate solution and its interaction machinery.

The configuration is symmetric: bubble centers at +-z/2 carry velocities
+-v/2 and a common scale and phase.  Every lattice field is built from
``LatticeBubble``, one lazily evaluated boosted bubble; the interaction
force H(z) is one Cartesian composite Gauss-Legendre rule for d = 1 and
d = 2 (the transverse axis is a single node for d = 1) over the near
half-space, onto which the reflection y -> -y - z folds the far one, cut
where its integrand falls below double precision against H, on panels
whose width follows p (``force_panel``), with a coarse/fine check.  The
half of that rule that does not depend on z is prepared once per ground
state and cached on it, so a call evaluates the profile only where z
enters.  ``ForceLaw`` interpolates H once per ground state and reads it,
in the dynamics, from a table of cell polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridTooSmall, InvalidExponent, QuadratureFailure
from .groundstate import (FORCE_CUT, GroundState, _stacked_template, force_panel, gl_rows,
                          panel_edges, radial_integral)
from .nls_core import ComplexField, Grid, h1_norm_sq

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


@dataclass(frozen=True)
class RefinedCorrection:
    """One Helmholtz-inverted correction of the interaction tail."""

    j: int
    field: ComplexField
    sup_norm: float
    h1_norm: float


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
    geometry may pass gs=None).  Quotients by r take their r -> 0 limits
    from q''(0) = (q0 - q0^p)/d.
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

    def _div(self, f: np.ndarray, den: np.ndarray, limit: float) -> np.ndarray:
        safe = self.r > 1e-12
        return np.where(safe, f / np.where(safe, den, 1.0), limit)

    @property
    def _curv0(self) -> float:
        return (self.gs.q0 - self.gs.q0 ** self.gs.p) / self.gs.d

    @cached_property
    def dq_over_r(self) -> np.ndarray:
        return self._div(self.dq, self.r, self._curv0)

    @cached_property
    def grad_q(self) -> list[np.ndarray]:
        return [self.dq_over_r * o for o in self.offs]

    @cached_property
    def lamq(self) -> np.ndarray:
        """Radial part of the scaling generator, 2/(p-1) q + r q'."""
        return 2.0 / (self.gs.p - 1.0) * self.q + self.r * self.dq

    @cached_property
    def d2q(self) -> np.ndarray:
        """q'' from the profile equation."""
        return self.q - self.q ** self.gs.p - (self.gs.d - 1.0) * self.dq_over_r

    @cached_property
    def dlamq_over_r(self) -> np.ndarray:
        a = 2.0 / (self.gs.p - 1.0)
        return self._div((a + 1.0) * self.dq + self.r * self.d2q, self.r,
                         (a + 2.0) * self._curv0)

    @cached_property
    def hess_factor(self) -> np.ndarray:
        """(q'' - q'/r)/r^2 with a vanishing limit; multiplies offs_m offs_n."""
        return self._div(self.d2q - self.dq_over_r, self.r ** 2, 0.0)


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


def nonlinearity(values: np.ndarray, p: float) -> np.ndarray:
    """F(u) = |u|^(p-1) u, elementwise."""
    return np.abs(values) ** (p - 1.0) * values


def _cross_term(b1: LatticeBubble, b2: LatticeBubble, p: float) -> np.ndarray:
    return (nonlinearity(b1.values + b2.values, p) - nonlinearity(b1.values, p)
            - nonlinearity(b2.values, p))


# Composite Gauss-Legendre rule shared by d = 1 and d = 2: panels whose
# width follows p (``force_panel``), evaluated with a coarse and a fine node
# count whose disagreement, against FORCE_TOL times the leading-order size of
# H, bounds the error.
_COARSE_NODES = 8
_FINE_NODES = 12
FORCE_TOL = 1e-10


def _force_cut(p: float) -> tuple[float, float]:
    """Panel width and cut b of the folded rule, with z along e1: y1 runs
    over [-|z|/2, b], split at 0, and the transverse axis over [-b, b] (one
    node for d = 1).

    The width is ``force_panel(p)`` for d = 1 and d = 2 alike.  At a
    distance b beyond either bubble, or across the pair axis, the integrand
    is below e^(-p b) of H, so both axes stop at b = FORCE_CUT/p rounded up
    to whole panels, which keeps the edges of [0, b] on the multiples of the
    panel width."""
    step = force_panel(p)
    return step, step * math.ceil(FORCE_CUT / (p * step))


def transverse_edges(d: int, half_width: float, step: float) -> np.ndarray | None:
    """Panel edges across the pair axis of the force rule: None for d = 1,
    whose transverse axis is one node, and [-half_width, half_width] cut into
    panels at most step wide for d = 2.  QuadratureFailure for any other d."""
    if d == 1:
        return None
    if d == 2:
        return panel_edges((-half_width, half_width), step)
    raise QuadratureFailure(f"the force rule covers d in (1, 2), got {d}")


@dataclass(frozen=True)
class _FixedRows:
    """One pass's rows of the folded rule on y1 in [0, b]: nodes y1 and
    weights w1, the transverse axis (y2 None for d = 1), and Q^{p-1}(y) and
    d_1Q(y) on them, one row per y1."""

    cols: slice             # the pass's columns of the stacked template
    y1: np.ndarray
    w1: np.ndarray
    y2: np.ndarray | None
    w2: np.ndarray
    weight: np.ndarray
    pull: np.ndarray


def _radii(y1: np.ndarray, y2: np.ndarray | None) -> np.ndarray:
    """|y| on the nodes (y1, y2), one row per y1: |y1| for d = 1."""
    return np.abs(y1)[:, None] if y2 is None else np.hypot(y1[:, None], y2)


def _fixed_half(gs: GroundState, step: float, cut: float, counts):
    """The z-independent half of the folded rule on ``gs``, cached on it:
    the stacked template and each pass's ``_FixedRows``.

    q and q' at |y| on [0, b] (at d = 2 times the whole transverse axis)
    come from one joint evaluation, and Q^{p-1} and d_1Q from the
    operations ``_force_nodes`` would apply to them."""
    key = (step, cut, counts)
    half = gs._force_halves.get(key)
    if half is not None:
        return half
    x, w, spans = _stacked_template(counts)
    y1s, w1s = gl_rows(panel_edges((0.0, cut), step), x, w)
    across = transverse_edges(gs.d, cut, step)
    if across is not None:
        y2s, w2s = gl_rows(across, x, w)
    rows = []
    for cols in spans:
        y2, w2 = (None, np.ones(1)) if across is None else \
            (y2s[:, cols].ravel(), w2s[:, cols].ravel())
        y1 = y1s[:, cols].ravel()
        rows.append((cols, y1, w1s[:, cols].ravel(), y2, w2, _radii(y1, y2)))
    q, dq = gs.q_dq_at(np.concatenate([row[-1].ravel() for row in rows]))
    passes, at = [], 0
    for cols, y1, w1, y2, w2, r in rows:
        weight, pull = (v[at:at + r.size].reshape(r.shape) for v in (q, dq))
        weight **= gs.p - 1.0
        pull *= np.divide(y1[:, None], r, out=r)
        passes.append(_FixedRows(cols, y1, w1, y2, w2, weight, pull))
        at += r.size
    half = gs._force_halves[key] = (x, w, passes)
    return half


def _force_nodes(zlen: float, gs: GroundState) -> list[float]:
    """The folded rule at separation |z|, one value per node count
    (coarse, fine).

    The reflection y -> -y - z swaps the bubbles and maps the far half-space
    y1 < -|z|/2 onto the near one, so H is the near integral of
    p Q^{p-1}(y) Q(y+z) [d_1Q(y) - d_1Q(y+z)], the second term being the far
    half folded on.  It maps the two-sided rule's nodes onto these, so the
    folded rule is that rule with each node pair summed.

    The rows with y1 in [0, b] and their Q^{p-1}(y) and d_1Q(y) do not
    depend on z; ``_fixed_half`` prepares them once per ground state.  A
    call builds the rows on [-|z|/2, 0] of both passes from one stacked
    template and evaluates q and q' once, jointly, at |y| on those rows and
    at |y+z| on every row, all > 0: y1 = 0 is a break, so no node lies on
    it, and y1 > -|z|/2.  Each pass then sums the integrand over its rows,
    the near ones first, with the operations of a pass that evaluates every
    node itself, so the values are the same to the bit."""
    p = gs.p
    step, cut = _force_cut(p)
    x, w, passes = _fixed_half(gs, step, cut, (_COARSE_NODES, _FINE_NODES))
    near_y, near_w = gl_rows(panel_edges((-0.5 * zlen, 0.0), step), x, w)
    rows, radii = [], []
    for fixed in passes:
        y1 = near_y[:, fixed.cols].ravel()
        w1 = np.concatenate([near_w[:, fixed.cols].ravel(), fixed.w1])
        shifted = np.concatenate([y1, fixed.y1])
        shifted += zlen
        rows.append((y1, shifted, w1))
        radii += [_radii(y1, fixed.y2), _radii(shifted, fixed.y2)]
    q, dq = gs.q_dq_at(np.concatenate([r.ravel() for r in radii]))
    out, at = [], 0
    for fixed, (y1, shifted, w1), rn, rs in zip(passes, rows, radii[::2], radii[1::2]):
        qn, dqn = (v[at:at + rn.size].reshape(rn.shape) for v in (q, dq))
        at += rn.size
        qs, dqs = (v[at:at + rs.size].reshape(rs.shape) for v in (q, dq))
        at += rs.size
        k = y1.size
        qn **= p - 1.0
        dqn *= np.divide(y1[:, None], rn, out=rn)
        integrand, pull = np.empty(rs.shape), np.empty(rs.shape)
        integrand[:k], integrand[k:] = qn, fixed.weight         # Q^{p-1}(y)
        pull[:k], pull[k:] = dqn, fixed.pull                    # d_1Q(y)
        dqs *= np.divide(shifted[:, None], rs, out=rs)          # d_1Q(y + z)
        integrand *= qs
        integrand *= np.subtract(pull, dqs, out=pull)
        out.append(p * float(w1 @ integrand @ fixed.w2))
    return out


def interaction_force_H(z, gs: GroundState, min_sep: float = COLLISION_SEP) -> np.ndarray:
    """Half-space-split projection of the interaction onto the translation direction.

    The integral is split exactly at y.(z/|z|) = -|z|/2 and its far half is
    folded onto the near one by y -> -y - z (``_force_nodes``); the result is
    parallel to z and follows C_p zhat |z|^(-(d-1)/2) e^(-|z|) at leading
    order.  The composite Gauss-Legendre rule stops FORCE_CUT/p beyond the
    near bubble and across the pair axis, where the integrand has fallen
    below e^-FORCE_CUT of H, and runs with 8 and 12 nodes per panel on the
    same panels; they must agree to
    max(FORCE_TOL |z|^(-(d-1)/2) e^(-|z|), 1e-8 |H|).  The half of the rule
    that does not depend on z is prepared on the ground state's first call,
    and each call evaluates the profile only where z enters.  A non-finite
    z, or |z| below min_sep, is a QuadratureFailure.
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


def interaction_cutoff(params: BubbleParams, grid: Grid) -> np.ndarray:
    """Plateau cutoff selecting points within |z| of both bubble centers."""
    zlen = float(np.linalg.norm(params.z))
    out = np.ones(grid.shape)
    for b in bubble_pair(params, None, grid.x_mesh):
        # psi0 on [-1, 0]: argument |z| - r, quintic transition
        out = out * smoothstep(zlen - b.r + 1.0, 0.0, 1.0)[0]
    return out


def correction_count(p: float) -> int:
    """Smallest J with p > (J+3)/(J+2)."""
    if not 1.0 < p <= 2.0:
        raise InvalidExponent(f"refined corrections require 1 < p <= 2, got {p}")
    j = 0
    while p <= (j + 3.0) / (j + 2.0):
        j += 1
    return j


def remove_translation_projections(values: np.ndarray, params: BubbleParams,
                                   gs: GroundState, grid: Grid) -> np.ndarray:
    """Subtract the real-pairing components along grad Q at both centers.

    Both coefficients come from the input field (no sequential
    re-orthogonalization), which keeps the result reflection-symmetric; the
    residual cross-projection is of the order of the bubble overlap.
    """
    denom = radial_integral(gs, gs.dq ** 2) / gs.d     # ||d_j Q||^2 per component
    vol = grid.cell_volume
    out = values.astype(complex).copy()
    for b in bubble_pair(params, gs, grid.x_mesh):
        for gq in b.grad_q:
            out -= (float(np.sum(values * gq).real) * vol / denom) * gq
    return out


def helmholtz_inverse(values: np.ndarray, grid: Grid) -> np.ndarray:
    """(-Delta + 1)^(-1) as the Fourier multiplier 1/(1 + |xi|^2)."""
    return np.fft.ifftn(np.fft.fftn(values) / (1.0 + grid.k_sq))


def refined_corrections(params: BubbleParams, gs: GroundState,
                        grid: Grid) -> list[RefinedCorrection]:
    """Iterated corrections for 1 < p <= 2, each an inverted projected source.

    The zeroth source is the cutoff interaction term with both translation
    projections removed; later sources are the nonlinear increments produced
    by the previous corrections.
    """
    _check_grid(params, grid)
    p = gs.p
    J = correction_count(p)
    bubbles = bubble_pair(params, gs, grid.x_mesh)
    base = bubbles[0].values + bubbles[1].values
    source = _cross_term(*bubbles, p) * interaction_cutoff(params, grid)
    corrections = []
    accum = np.zeros(grid.shape, dtype=complex)
    for j in range(J + 1):
        tilde = remove_translation_projections(source, params, gs, grid)
        R = helmholtz_inverse(tilde, grid)
        field = ComplexField(grid, R)
        corrections.append(RefinedCorrection(
            j=j, field=field, sup_norm=float(np.max(np.abs(R))),
            h1_norm=float(np.sqrt(h1_norm_sq(field)))))
        prev = base + accum
        accum = accum + R
        source = nonlinearity(base + accum, p) - nonlinearity(prev, p)
    return corrections
