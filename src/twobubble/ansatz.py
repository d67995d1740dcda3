"""Two-bubble approximate solution and its interaction machinery.

The configuration is symmetric: bubble centers at +-z/2 carry velocities
+-v/2 and a common scale and phase.  Every lattice field is built from
``LatticeBubble``, one lazily evaluated boosted bubble; the interaction
force H(z) is one Cartesian composite Gauss-Legendre rule for d = 1 and
d = 2 (the transverse axis is a single node for d = 1), cut where its
integrand falls below double precision against H, with a coarse/fine check;
``ForceLaw`` interpolates it once per ground state for the dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridTooSmall, InvalidExponent, QuadratureFailure
from .groundstate import (FORCE_CUT, GroundState, gl_axis, radial_integral, smoothstep,
                          transverse_axis)
from .nls_core import ComplexField, Grid, h1_norm_sq

# Separation below which the two-bubble ansatz, and its force law, is invalid.
COLLISION_SEP = 5.0


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


@dataclass(frozen=True)
class RefinedCorrection:
    """One Helmholtz-inverted correction of the interaction tail."""

    j: int
    field: ComplexField
    sup_norm: float
    h1_norm: float


def modulation_vectors(params: BubbleParams,
                       derivs: ParamDerivs) -> tuple[ModulationVector, ModulationVector]:
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
    caller pays only for what it reads.  Profile values go through
    ``gs.q_at``/``gs.dq_at`` (a caller reading only the geometry may pass
    gs=None).  Quotients by r take their r -> 0 limits from
    q''(0) = (q0 - q0^p)/d.
    """

    def __init__(self, gs: GroundState, coords, center: np.ndarray, vel: np.ndarray):
        self.gs = gs
        self.vel = vel
        self.offs = [c - zc for c, zc in zip(coords, center)]
        self.r = np.sqrt(sum(o ** 2 for o in self.offs))

    @cached_property
    def q(self) -> np.ndarray:
        return self.gs.q_at(self.r)

    @cached_property
    def phase(self) -> np.ndarray:
        return np.exp(1j * sum(vc * o for vc, o in zip(self.vel, self.offs)))

    @cached_property
    def values(self) -> np.ndarray:
        return self.phase * self.q

    @cached_property
    def dq(self) -> np.ndarray:
        return self.gs.dq_at(self.r)

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


def interaction_G(params: BubbleParams, gs: GroundState, grid: Grid) -> ComplexField:
    """Nonlinear cross term F(P1+P2) - F(P1) - F(P2)."""
    _check_grid(params, grid)
    return ComplexField(grid, _cross_term(*bubble_pair(params, gs, grid.x_mesh), gs.p))


# Composite Gauss-Legendre rule shared by d = 1 and d = 2: panels of fixed
# width per dimension, evaluated with a coarse and a fine node count whose
# disagreement, against FORCE_TOL times the leading-order size of H, bounds
# the error.
_COARSE_NODES = 8
_FINE_NODES = 12
_PANEL = {1: 0.25, 2: 0.5}
FORCE_TOL = 1e-10


def _force_nodes(zlen: float, gs: GroundState, nodes: int) -> float:
    """Cartesian rule with z along e1, split exactly at y1 = -|z|, -|z|/2 and 0;
    near nodes (y1 > -|z|/2) weigh Q^{p-1}(y) d_1Q(y) Q(y+z), far nodes
    Q^{p-1}(y+z) d_1Q(y) Q(y).  At a distance b beyond either bubble, or
    across the pair axis, the integrand is below e^(-p b) of H, so both axes
    stop at b = FORCE_CUT/p rounded up to whole panels: y1 runs over
    [-|z| - b, b] and the transverse axis, ``transverse_axis`` (one node for
    d = 1), over [-b, b].  Whole panels keep the edges of [0, b] on the
    multiples of the panel width, as r_max = 25, where ``q_at`` passes from
    the spline to the tail, is by default."""
    p, step = gs.p, _PANEL.get(gs.d, 1.0)    # transverse_axis rejects any other d
    cut = step * math.ceil(FORCE_CUT / (p * step))
    y2, w2 = transverse_axis(gs.d, cut, nodes, step)
    y1, w1 = gl_axis((-zlen - cut, -zlen, -0.5 * zlen, 0.0, cut), nodes, step)
    Y1 = y1[:, None]
    r = np.hypot(Y1, y2)        # > 0: y1 = 0 is a break, so no node lies on it
    qr, qs = gs.q_at(np.stack([r, np.hypot(Y1 + zlen, y2)]))
    near = Y1 > -0.5 * zlen
    weight = np.where(near, qr, qs) ** (p - 1.0)
    partner = np.where(near, qs, qr)
    return p * float(w1 @ (weight * gs.dq_at(r) * (Y1 / r) * partner) @ w2)


def interaction_force_H(z, gs: GroundState, min_sep: float = COLLISION_SEP) -> np.ndarray:
    """Half-space-split projection of the interaction onto the translation direction.

    Two integrals split exactly at y.(z/|z|) = -|z|/2; the result is parallel
    to z and follows C_p zhat |z|^(-(d-1)/2) e^(-|z|) at leading order.  The
    composite Gauss-Legendre rule stops FORCE_CUT/p beyond both bubbles and
    across the pair axis, where the integrand has fallen below e^-FORCE_CUT
    of H, and runs with 8 and 12 nodes per panel; they must agree to
    max(FORCE_TOL |z|^(-(d-1)/2) e^(-|z|), 1e-8 |H|).
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    zlen = float(np.linalg.norm(z))
    if zlen < min_sep:
        raise QuadratureFailure(f"|z| = {zlen:.2f} below validity threshold {min_sep}")
    coarse = _force_nodes(zlen, gs, _COARSE_NODES)
    fine = _force_nodes(zlen, gs, _FINE_NODES)
    scale = zlen ** (-0.5 * (gs.d - 1)) * np.exp(-zlen)
    if abs(fine - coarse) > max(FORCE_TOL * scale, 1e-8 * abs(fine)):
        raise QuadratureFailure(
            f"{gs.d}d force rule not converged at |z| = {zlen:.3f}: "
            f"|fine - coarse| = {abs(fine - coarse):.3e}")
    return fine * z / zlen


# Domain in |z| and node count of the cached force law.  |z| = 2 is the
# relaxed guard below the collision threshold; 40 is s ~ 1e8 on the orbit.
FORCE_LAW_DOMAIN = (2.0, 40.0)
FORCE_LAW_NODES = 112


class ForceLaw:
    """|H| as a function of |z|, interpolated once per ground state.

    g = log H + |z| + ((d-1)/2) log |z| tends to log C_p and is smooth in
    w = 1/|z| for d = 1 and 2, so its Chebyshev interpolant in w on
    first-kind nodes, each one call of the reference rule
    ``interaction_force_H``, converges geometrically.
    """

    def __init__(self, gs: GroundState):
        lo, hi = FORCE_LAW_DOMAIN
        e1, self.d = np.eye(gs.d)[0], gs.d

        def g(w):
            H = [interaction_force_H(e1 / x, gs, min_sep=lo)[0] for x in w]
            return np.log(H) + 1.0 / w - 0.5 * (gs.d - 1) * np.log(w)

        cheb = np.polynomial.Chebyshev.interpolate(g, FORCE_LAW_NODES - 1, (1 / hi, 1 / lo))
        self._coef = cheb.coef.tolist()
        self._off, self._scl = map(float, cheb.mapparms())

    def __call__(self, zlen: float) -> float:
        lo, hi = FORCE_LAW_DOMAIN
        if not lo <= zlen <= hi:
            raise QuadratureFailure(
                f"|z| = {zlen:.6g} outside the force law domain [{lo:g}, {hi:g}]")
        x2, b1, b2 = 2.0 * (self._off + self._scl / zlen), 0.0, 0.0
        for c in reversed(self._coef[1:]):      # Clenshaw, in Python floats
            b1, b2 = c + x2 * b1 - b2, b1
        g = self._coef[0] + 0.5 * x2 * b1 - b2
        return math.exp(g - zlen - 0.5 * (self.d - 1) * math.log(zlen))


def force_asymptotic(z, c_p: float, d: int) -> np.ndarray:
    """Leading-order law C_p zhat |z|^(-(d-1)/2) e^(-|z|)."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    zlen = float(np.linalg.norm(z))
    return c_p * (z / zlen) * zlen ** (-0.5 * (d - 1)) * np.exp(-zlen)


def ansatz_residual(params: BubbleParams, derivs: ParamDerivs, gs: GroundState,
                    grid: Grid) -> ComplexField:
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
