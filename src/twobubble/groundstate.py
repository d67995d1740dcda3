"""Radial ground state of the focusing semilinear elliptic problem.

Computes the positive decaying solution of

    q'' + (d-1)/r q' - q + q^p = 0,   q'(0) = 0,   q(r) -> 0,

at d = 1 or 2, with the amplitude of its linear tail, plus the structure
constants the rest of the package consumes, all from the interaction
integral I_Q and ||Q||^2.

The profile is one Newton solve of a Chebyshev collocation (Trefethen,
Spectral Methods in MATLAB, chs. 6 and 13; Boyd, Chebyshev and Fourier
Spectral Methods, ch. 17).  The unknown is g = q e^rho, rho = sqrt(1 + r^2),
which tends to a slowly varying tail.  The even Chebyshev grid on [-1, 1]
has no node at 0, and r = c sinh(s x), with c the core width 1/(p-1) up to
1, puts its nodes in the core; at r_max a Robin condition takes the linear
tail's log-derivative; r_max is 25, or 20/(p-1) below p = 1.8, where the
seam of that tail, which omits q^p, would cost accuracy.  Petviashvili's
iteration brings the d=1 closed form near the ground state, and Newton
stops when its step stops shrinking: at d=1, p=3 after two steps, at d=2,
p=3 after four.  The degree is 151, doubled while the series' last terms
are not negligible.  q and q' are sampled onto the uniform mesh from the
Chebyshev series, whose step shrinks where the core's curvature is large.

Q is radial, so I_Q and ||Q||^2 reduce to integrals in r, which one rule
computes (``_radial_passes``); it and the force H(z) of ``ansatz`` run on
composite Gauss-Legendre panels from the same helpers (``panel_edges``,
``gl_rows``, ``_stacked_template`` and ``force_panel``), and each stops
where its integrands have fallen by e^-FORCE_CUT.

q and q' are interpolated on the uniform mesh by quintic Hermite cells,
stored in one table with a row per mesh cell: the six Taylor coefficients
of q, then the six of q'.  On cell j = floor(r/h), with t = r/h - j, a
value is sum_k c_k[j] t^k.  The cell of q matches q, q' and q'' at both
its ends, that of q' matches q', q'' and q'''; q and q' are the samples,
q'' and q''' come from the profile equation, so each cell is local and in
closed form, and each field is C^2 across the knots.  ``q_dq_at`` is the
one evaluator: per chunk it gathers one row per radius and runs both
Horner passes on every radius, then overwrites the radii past ``r_max``
with the matched linear tail, sqrt(pi/2) e^(-r) and its derivative at
d = 1, K_0 and -K_1 at d = 2 (Cephes' ``k0`` and ``k1``).  ``q_at`` and
``dq_at`` are its two halves.  The cost is the same for sorted and
shuffled radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.fft import dct
from scipy.linalg import lu_factor, lu_solve
from scipy.special import gamma as gamma_fn
from scipy.special import i0
from scipy.special import k0 as bessel_k0
from scipy.special import k1 as bessel_k1

from .errors import InvalidExponent, NonConvergence, QuadratureFailure

_SQRT_HALF_PI = np.sqrt(0.5 * np.pi)
# Chebyshev degrees of the collocation, tried in turn until the last ten
# terms of the series are below _CHEB_TAIL of its largest; odd, so that no
# node sits at r = 0.  The first resolves d=1 for p up to 30 and d=2 up to p = 7,
# and the rounding of its solve moves q by about 1e-14.
_CHEB_DEGREES = (151, 301, 601, 1201)
_CHEB_TAIL = 1e-14
# Largest step, in q, from which the collocation leaves Petviashvili's
# iteration for Newton's, and the most iterations of either
_NEWTON_START = 1e-2
_ITERATIONS_MAX = 100

# Step of the uniform mesh the profile is sampled on, set by the cell table's
# accuracy: against the k=5 splines of the samples it is within 1.8e-15 at
# 2e-3, and 6.0e-14 at 4e-3, both at d=2, p=3.  No integral reads the mesh.
_MESH_STEP = 2e-3
# The table's h^6 error grows like the cube of the core's curvature
# -q''(0)/q0 = (q0^(p-1) - 1)/d, so where that exceeds _MESH_CURVATURE the
# step shrinks as its inverse square root.  On r in (0, 2], at 2e-3, q_at was
# off the collocation series by 1.0e-14 at d=2, p=7 (curvature 22), 3.1e-13
# at p=9 (60), 1.2e-7 at p=17.5 (3180) and 1.8e-14 at d=1, p=30 (14.5); with
# the shrunk step it is within 1.4e-15 at each of these.  4 is the curvature of
# d=1, p=9, so p <= 9 at d=1 and p <= 3 at d=2 (1.93) keep 2e-3.
_MESH_CURVATURE = 4.0
# Past r_max the linear tail omits q^p, so q'' jumps there by about
# q^(p-1)(r_max) ~ e^-((p-1) r_max) relative, 6.4e-5 at p = 1.45 and 2.9e-2
# at p = 1.2 for r_max = 25; r_max reaches _SEAM_DECAY/(p-1), which keeps
# that jump near e^-20
_SEAM_DECAY = 20.0
# points per pass of the array evaluator, which bounds its temporaries
_CHUNK = 1 << 14


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^d (2 for d=1)."""
    return 2.0 * np.pi ** (d / 2.0) / gamma_fn(d / 2.0)


def closed_form_q0(p: float) -> float:
    """d=1 peak value ((p+1)/2)^(1/(p-1))."""
    return ((p + 1.0) / 2.0) ** (1.0 / (p - 1.0))


def closed_form_profile(p: float, r) -> np.ndarray:
    """d=1 solution ((p+1)/2)^(1/(p-1)) sech^(2/(p-1))((p-1) r / 2).

    Where cosh x overflows, past |x| = 710, it is e^|x|/2 to the last bit,
    and the power is taken of that form; the overflows ignored here are
    cosh's own and those of the branch not taken."""
    x = 0.5 * (p - 1.0) * np.asarray(r, dtype=float)
    power = -2.0 / (p - 1.0)
    with np.errstate(over="ignore"):
        cosh = np.cosh(x)
        return closed_form_q0(p) * np.where(np.isinf(cosh),
                                            np.exp(power * (np.abs(x) - math.log(2.0))),
                                            cosh ** power)


def decay_shape(d: int, r) -> np.ndarray:
    """Decaying solution r^(1-d/2) K_(d/2-1)(r) of the linearized radial
    equation at d = 1 or 2: sqrt(pi/2) e^(-r) and K_0(r).

    Behaves like sqrt(pi/2) r^(-(d-1)/2) e^(-r) for large r, exactly so for d=1.
    """
    r = np.asarray(r, dtype=float)
    if d == 1:
        return _SQRT_HALF_PI * np.exp(-r)
    return bessel_k0(r)


def _decay_shape_deriv(d: int, r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if d == 1:
        return -_SQRT_HALF_PI * np.exp(-r)
    return -bessel_k1(r)            # K_0' = -K_1


@dataclass(frozen=True)
class GroundState:
    """Sampled radial profile with the metadata of its Newton solve.

    Samples live on a uniform mesh in r.  Between samples q and q' come
    from the quintic Hermite cell table of the module docstring, built on
    first use, within 1.8e-15 of the k=5 interpolating splines of the
    samples, and at d=1, p=3 within 1.8e-14 of the closed form, as those
    splines are.  Values beyond ``r_max`` follow the matched linear tail
    ``tail_amplitude * decay_shape``.  ``q_dq_at`` evaluates both fields at
    once; a caller that needs one takes its half.  Only the cell table (with
    its width) and ``force_law`` are cached on an instance, each built on
    first use.  Instances are immutable and safe to share between threads.
    """

    p: float
    d: int
    r_max: float
    q0: float
    r: np.ndarray
    q: np.ndarray
    dq: np.ndarray
    tail_amplitude: float
    newton_iters: int       # Newton steps of the collocation solve
    residual: float         # largest collocation residual of the solution

    @cached_property
    def _cell_width(self) -> float:
        return self.r_max / (self.r.size - 1)

    @cached_property
    def _cells(self) -> np.ndarray:
        """Row j: the t^0 .. t^5 coefficients of q, then those of q', on cell j."""
        d2q, d3q = _ode_derivatives(self)
        cells = np.empty((self.r.size - 1, 12))
        _hermite_cells(self._cell_width, self.q, self.dq, d2q, cells[:, :6])
        _hermite_cells(self._cell_width, self.dq, d2q, d3q, cells[:, 6:])
        return cells

    def q_dq_at(self, rr) -> tuple[np.ndarray, np.ndarray]:
        """q and q' at arbitrary radii, of the shape of rr: cell polynomials
        up to ``r_max``, ``tail_amplitude`` times the matched tail beyond.

        The tail overwrites every radius that is not <= r_max, so a NaN
        radius reads NaN although its Horner pass read the last cell."""
        rr = np.asarray(rr, dtype=float)
        q, dq = np.empty(rr.shape), np.empty(rr.shape)
        flat, flat_q, flat_dq = np.ravel(rr), q.reshape(-1), dq.reshape(-1)
        for a in range(0, flat.size, _CHUNK):
            x, out_q, out_dq = (v[a:a + _CHUNK] for v in (flat, flat_q, flat_dq))
            _horner_cells(self._cells, x, self._cell_width, out_q, out_dq)
            far = ~(x <= self.r_max)
            beyond = x[far]
            out_q[far] = self.tail_amplitude * decay_shape(self.d, beyond)
            out_dq[far] = self.tail_amplitude * _decay_shape_deriv(self.d, beyond)
        return q, dq

    def q_at(self, rr) -> np.ndarray:
        """Profile value at arbitrary radii: the first half of ``q_dq_at``."""
        return self.q_dq_at(rr)[0]

    def dq_at(self, rr) -> np.ndarray:
        """Profile slope at arbitrary radii: the second half of ``q_dq_at``."""
        return self.q_dq_at(rr)[1]

    @cached_property
    def force_law(self):
        """|H(|z|)|, the interaction force, as one cached ``ansatz.ForceLaw``."""
        from .ansatz import ForceLaw    # here, because ansatz imports this module
        return ForceLaw(self)


def _ode_derivatives(gs: GroundState) -> tuple[np.ndarray, np.ndarray]:
    """q'' and q''' on the mesh, from the samples through the profile equation:

        q''  = q - q^p - (d-1) q'/r,
        q''' = (1 - p q^(p-1)) q' - (d-1) (q'' - q'/r)/r,

    and at r = 0 their limits q''(0) = (q0 - q0^p)/d and q'''(0) = 0.
    """
    r, q, dq = gs.r, gs.q, gs.dq
    q_pm1 = q ** (gs.p - 1.0)
    d2q = q - q * q_pm1
    d3q = (1.0 - gs.p * q_pm1) * dq
    if gs.d > 1:
        bend = (gs.d - 1.0) / r[1:]
        d2q[1:] -= bend * dq[1:]
        d3q[1:] -= bend * (d2q[1:] - dq[1:] / r[1:])
    d2q[0] /= gs.d
    d3q[0] = 0.0
    return d2q, d3q


def _hermite_cells(h: float, f: np.ndarray, df: np.ndarray, d2f: np.ndarray,
                   out: np.ndarray) -> None:
    """Write into the (n_cells, 6) array out the t^0 .. t^5 coefficients, on
    each cell of the uniform mesh of step h, of the quintic that takes the
    values f, slopes df and curvatures d2f at both ends of the cell.

    With g = h f', k = h^2 f'' and D = f1 - f0 over the cell, the quintic is
    f0 + g0 t + k0/2 t^2 + c3 t^3 + c4 t^4 + c5 t^5 with
    c3 = 10D - 6g0 - 4g1 - (3k0 - k1)/2, c4 = -15D + 8g0 + 7g1 + (3k0 - 2k1)/2
    and c5 = 6D - 3(g0 + g1) - (k0 - k1)/2.
    """
    g = h * df
    k = (h * h) * d2f
    delta = f[1:] - f[:-1]
    g0, g1, k0, k1 = g[:-1], g[1:], k[:-1], k[1:]
    out[:, 0] = f[:-1]
    out[:, 1] = g0
    out[:, 2] = 0.5 * k0
    out[:, 3] = 10.0 * delta - 6.0 * g0 - 4.0 * g1 - 0.5 * (3.0 * k0 - k1)
    out[:, 4] = -15.0 * delta + 8.0 * g0 + 7.0 * g1 + 0.5 * (3.0 * k0 - 2.0 * k1)
    out[:, 5] = 6.0 * delta - 3.0 * (g0 + g1) - 0.5 * (k0 - k1)


def _horner_cells(cells: np.ndarray, rr: np.ndarray, h: float, q: np.ndarray,
                  dq: np.ndarray) -> None:
    """Write the cell polynomials of q and q' at the 1-d radii rr into q and dq.

    s = r/h is capped at the cell count, so r_max reads the last cell at
    t = 1, as do +inf and NaN (np.fmin drops a NaN), and floored at -2, so
    every radius below -2h, -inf included, reads the first cell at t = -2
    and the cast to an index stays finite.  j = floor(s) is clamped to the
    cell range on both sides, because a negative index would wrap.  One
    gather fetches row j of cells for each radius, and each field's Horner
    pass reads its six coefficients.
    """
    n_cells = cells.shape[0]
    s = np.fmin(rr / h, n_cells)
    np.fmax(s, -2.0, out=s)
    j = np.fmin(s, n_cells - 1).astype(np.intp)
    np.maximum(j, 0, out=j)
    s -= j
    c = cells.take(j, axis=0)
    for a, o in ((0, q), (6, dq)):
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
    i_q:  interaction integral I_Q of Q^p(y) e^(-y1) over R^d, by ``_radial_passes``
    c1:   pairing <Lambda Q, Q> of the scaling generator with the profile,
          (2/(p-1) - d/2) l2; 0 at the mass-critical p = 1 + 4/d
    c2:   per-component pairing <-y_j Q, d_j Q>, l2 / 2
    c_p:  c_q * i_q
    c:    2 c_p / c2, the force constant of the reduced system
    l2:   squared L2 norm of the profile over R^d, by ``_radial_passes``
    """

    c_q: float
    i_q: float
    c1: float
    c2: float
    c_p: float
    c: float
    l2: float


def solve_profile(p: float, d: int, tol: float = 1e-10) -> GroundState:
    """The radial ground state at d = 1 or 2, by Newton on Chebyshev collocation.

    ``_newton_collocation`` solves for the Chebyshev series of g = q e^rho
    on [0, r_max], at the first of _CHEB_DEGREES whose series ends in
    negligible terms; q and q' are sampled from it onto the uniform mesh
    of step _MESH_STEP, or less where the core's curvature exceeds
    _MESH_CURVATURE, and the tail amplitude is q(r_max) /
    decay_shape(d, r_max), so q meets the tail there.  r_max is 25, or more
    where tol or p asks for it (``_SEAM_DECAY``); tol bounds the last Newton
    step in q.  ``newton_iters`` counts the Newton steps and ``residual`` is
    the largest collocation residual of the result.

    At the default tol the p range has measured limits, each a
    NonConvergence in milliseconds to about a second.  The rounding floor
    of the solve grows like 2^(2/(p-1)), and r_max like 20/(p-1).  Scanned
    in steps of 0.002, every p from 1.126 to 1.16 solves at both d, and
    every p <= 1.12 at d=1 and <= 1.11 at d=2 stops with its last Newton
    step above tol; in between, 1.122 solves at d=1, 1.112 to 1.122 at d=2,
    and 1.124 at neither.  The largest r_max reached is 178.6, at d=2 and
    p = 1.112, on 89,287 mesh points.  At d=2, degree 1201 leaves the last
    terms of the series above _CHEB_TAIL from p = 18 (18 and 20 tried);
    17.5 solves.
    """
    if d not in (1, 2):
        raise InvalidExponent(f"dimension must be 1 or 2, got {d}")
    if not (1.0 < p < math.inf):
        raise InvalidExponent(f"p={p} outside (1, inf)")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise NonConvergence(f"tol must be finite and positive, got {tol}")

    # 25, or farther where the tail value must sit below 10*tol or the seam
    # below e^-_SEAM_DECAY
    r_max = max(25.0, -np.log(10.0 * tol) + 4.0, _SEAM_DECAY / (p - 1.0))
    for degree in _CHEB_DEGREES:
        coef, iters, residual = _newton_collocation(float(p), int(d), float(r_max), tol, degree)
        if np.max(np.abs(coef[-10:])) <= _CHEB_TAIL * np.max(np.abs(coef)):
            break
    else:
        raise NonConvergence(f"degree {degree} does not resolve the profile at p={p}, d={d}")
    core, rate = _radial_map(p, r_max)
    cheb = np.polynomial.chebyshev
    # -q''(0)/q0, with q0 = g(0)/e, as rho = 1 at r = 0
    curvature = ((cheb.chebval(0.0, coef) / math.e) ** (p - 1.0) - 1.0) / d
    step = _MESH_STEP * min(1.0, math.sqrt(_MESH_CURVATURE / curvature))
    r = np.linspace(0.0, r_max, int(round(r_max / step)) + 1)
    x = np.arcsinh(r / core) / rate
    g = cheb.chebval(x, coef)
    rho = np.hypot(1.0, r)
    dg = cheb.chebval(x, cheb.chebder(coef)) / (rate * np.hypot(core, r))    # dx/dr
    weight = np.exp(-rho)
    q = weight * g
    dq = weight * (dg - r / rho * g)
    # the boundary row holds q' = k q at r_max; the differentiated series reads
    # it there only to ~1e-12, so the last sample takes the condition itself
    dq[-1] = q[-1] * _decay_shape_deriv(d, r_max) / decay_shape(d, r_max)
    return GroundState(p=float(p), d=int(d), r_max=float(r_max), q0=float(q[0]), r=r, q=q,
                       dq=dq, tail_amplitude=float(q[-1] / decay_shape(d, r_max)),
                       newton_iters=iters, residual=residual)


def _radial_map(p: float, r_max: float) -> tuple[float, float]:
    """Scale c and rate s of the map r = c sinh(s x) of x in [0, 1] onto
    [0, r_max]: c is the width of the profile's core, 1/(p-1), up to 1."""
    core = min(1.0, 1.0 / (p - 1.0))
    return core, math.asinh(r_max / core)


def _even_chebyshev(n: int):
    """The Chebyshev points x_j = cos(pi j / n) with x > 0, and the first and
    second differentiation matrices on them for even functions.

    n is odd, so no point sits at 0.  Rows are those of the full matrices
    (Weideman & Reddy's recursion, with x_i - x_j from a sine identity and
    each diagonal by the negative sum of its row); the column of -x_j is
    folded onto that of x_j, as an even function takes equal values there.
    """
    m = (n + 1) // 2
    j = np.arange(n + 1)
    i = j[:m, None]
    x = np.sin(0.5 * np.pi * (n - 2.0 * j[:m]) / n)
    signed = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    gap = 2.0 * np.sin(0.5 * np.pi * (i + j) / n) * np.sin(0.5 * np.pi * (j - i) / n)
    inv = np.divide(1.0, gap, out=np.zeros_like(gap), where=(i != j))
    ratio = signed[:m, None] / signed
    diag = (np.arange(m), np.arange(m))
    d1 = ratio * inv
    d1[diag] = -d1.sum(axis=1)
    d2 = 2.0 * inv * (ratio * d1[diag][:, None] - d1)
    d2[diag] = -d2.sum(axis=1)
    return x, *(mat[:, :m] + mat[:, ::-1][:, :m] for mat in (d1, d2))


def _newton_collocation(p: float, d: int, r_max: float, tol: float, degree: int):
    """Chebyshev coefficients of g = q e^rho, rho = sqrt(1 + r^2), in x of
    ``_radial_map``, from a collocation of the given degree; the Newton
    steps taken; the largest final collocation residual.

    In g the equation reads g'' + a g' + b g + e^-((p-1) rho) g^p = 0 with
    a = (d-1)/r - 2r/rho and b = -1/rho^2 - 1/rho^3 - (d-1)/rho; g tends to
    a slowly varying tail, so the weight turns the tail's relative error
    into an absolute one.  The map r = c sinh(s x) puts the nodes of an
    even Chebyshev grid on [-1, 1] in the core, and the boundary row is the
    linear tail's Robin condition g' = (k + rho') g, k = decay_shape' /
    decay_shape at r_max.

    Petviashvili's iteration (J. Yang, Nonlinear Waves in Integrable and
    Nonintegrable Systems, SIAM 2010, ch. 7) takes the d=1 closed form to
    within _NEWTON_START of the ground state; from the closed form itself
    Newton misses it at d=2 for p >= 3.5.  Newton then stops when its step,
    measured in q, stops shrinking; the smallest step must be within tol
    and g positive, or NonConvergence.
    """
    x, d1, d2 = _even_chebyshev(degree)
    core, rate = _radial_map(p, r_max)
    r = core * np.sinh(rate * x)
    span = rate * np.hypot(core, r)                 # dr/dx
    rho = np.hypot(1.0, r)
    slope = r / rho
    # d/dr = D1 / span and d2/dr2 = (D2 - rate^2 r / span D1) / span^2
    dr = d1 / span[:, None]
    lin = (d2 / span[:, None] - (rate ** 2 * r / span ** 2)[:, None] * d1) / span[:, None] \
        + ((d - 1.0) / r - 2.0 * slope)[:, None] * dr
    lin[np.diag_indices_from(lin)] += -1.0 / rho ** 2 - 1.0 / rho ** 3 - (d - 1.0) / rho
    lin[0] = dr[0]
    lin[0, 0] -= _decay_shape_deriv(d, r_max) / decay_shape(d, r_max) + slope[0]
    weight = np.exp(-(p - 1.0) * rho)
    weight[0] = 0.0                 # the boundary row is linear
    decay = np.exp(-rho)

    def source(g):
        return weight * np.abs(g) ** (p - 1.0) * g

    g = closed_form_profile(p, r) / decay
    lu = lu_factor(-lin)
    for _ in range(_ITERATIONS_MAX):
        f = source(g)
        new = ((g @ (-lin @ g)) / (g @ f)) ** (p / (p - 1.0)) * lu_solve(lu, f)
        size = float(np.max(np.abs(new - g) * decay))
        g = new
        if size < _NEWTON_START:
            break
    smallest, iters = math.inf, 0
    while iters < _ITERATIONS_MAX:
        jac = lin.copy()
        jac[np.diag_indices_from(jac)] += p * weight * np.abs(g) ** (p - 1.0)
        step = np.linalg.solve(jac, lin @ g + source(g))
        size = float(np.max(np.abs(step) * decay))
        if size >= smallest:
            break
        g -= step
        smallest, iters = size, iters + 1
    if not (smallest <= tol and np.all(g > 0.0)):
        raise NonConvergence(f"Newton collocation at p={p}, d={d} stopped after {iters} "
                             f"steps at a step of {smallest:.3e} (tol {tol:.3e})")
    residual = float(np.max(np.abs(lin @ g + source(g))))
    coef = dct(np.concatenate([g, g[::-1]]), type=1) / degree
    coef[[0, -1]] *= 0.5
    return coef, iters, residual


def panel_edges(breaks, step: float) -> np.ndarray:
    """Edges of the panels that cut each interval between consecutive breaks
    into equal parts at most step wide."""
    return np.concatenate([np.linspace(a, b, max(2, int(np.ceil((b - a) / step)) + 1))[:-1]
                           for a, b in zip(breaks[:-1], breaks[1:])] + [breaks[-1:]])


def gl_rows(edges: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Nodes and weights of the composite rule whose one-panel template on
    [-1, 1] is (x, w), on the panels between consecutive edges: one row per
    panel."""
    half = (0.5 * (edges[1:] - edges[:-1]))[:, None]
    mid = (0.5 * (edges[:-1] + edges[1:]))[:, None]
    return half * x + mid, half * w


@lru_cache(maxsize=None)
def _stacked_template(counts: tuple[int, ...]):
    """The Gauss-Legendre nodes and weights on [-1, 1] of every node count,
    side by side, and each count's columns; cached, so read-only."""
    rules = [np.polynomial.legendre.leggauss(n) for n in counts]
    ends = np.cumsum((0, *counts)).tolist()
    x, w = (np.concatenate(parts) for parts in zip(*rules))
    x.flags.writeable = w.flags.writeable = False
    return x, w, tuple(slice(a, b) for a, b in zip(ends[:-1], ends[1:]))


def force_panel(p: float) -> float:
    """Panel width of the force rule: the largest power of two at most
    min(1, 4/(p-1)^2), for d = 1 and d = 2 alike.

    n Gauss-Legendre nodes on a panel of half-width h converge like
    rho^(-2n), rho = a/h + sqrt(1 + (a/h)^2), with a the distance of the
    integrand's nearest complex singularity from the real axis (Trefethen,
    ATAP ch. 19).  At d = 1 the least smooth factor, Q^{p-1} ~
    sech^2((p-1)r/2), has a = pi/(p-1), so a width of 2/(p-1) would do; at
    d = 2 the width must shrink faster.  On the force law's nodes the
    coarse/fine gap, as a share of the check's bound, measured at d = 2:
    0.17 at p = 3 and width 1; 0.057 at p = 4 and 1/2; 15.5 at p = 5 and
    1/2, 1.4e-3 at 1/4; 2.6e-3 at p = 7 and 1/8; 20 at p = 9 and 1/8, 9e-4
    at 1/16.  The rule meets each of these, and leaves each width at a p
    no larger than one where that width was measured inside the bound."""
    return math.ldexp(1.0, math.frexp(min(1.0, 4.0 / (p - 1.0) ** 2))[1] - 1)


# Decay, as an exponent, past which an integrand is below double precision
# against its integral (e^-40 ~ 4e-18).  The radial rule here and the force
# rule of ``ansatz`` stop their axes where their integrands have fallen that
# far, so both domains follow p.
FORCE_CUT = 40.0
# Gauss-Legendre nodes per panel of the coarse and the fine pass of both
# rules, whose disagreement bounds each rule's error
GL_NODES = (8, 12)


def _sphere_weight(d: int, r: np.ndarray) -> np.ndarray:
    """Integral of e^(-y1) over the sphere of radius r in R^d, area element
    included: 2 cosh r for d = 1, 2 pi r I_0(r) for d = 2.
    QuadratureFailure for any other d."""
    if d == 1:
        return 2.0 * np.cosh(r)
    if d == 2:
        return 2.0 * np.pi * r * i0(r)
    raise QuadratureFailure(f"the radial rule covers d in (1, 2), got {d}")


def _radial_passes(gs: GroundState) -> list[tuple[float, float]]:
    """(I_Q, ||Q||^2) with 8 and then 12 Gauss-Legendre nodes per panel.

    Q is radial, so the mean of e^(-y1) over each sphere (``_sphere_weight``,
    the Funk-Hecke formula) reduces I_Q to the integral of Q^p(r) times that
    weight over r >= 0, and ||Q||^2 is that of Q^2(r) times the sphere's
    area.  The integrands decay like e^(-(p-1) r) and e^(-2r), so r stops at
    the larger of FORCE_CUT/(p-1) and FORCE_CUT/2, each a break, so that
    I_Q's panels do not depend on the second cut; r_max is a break where the
    rule passes it, as q'' jumps there by about e^-20 onto the matched tail.
    The panels are min(1/2, ``force_panel(p)``) wide, and both passes take q
    from one evaluation on one stacked template."""
    p = gs.p
    cut = FORCE_CUT / min(p - 1.0, 2.0)
    breaks = sorted({0.0, FORCE_CUT / (p - 1.0), cut, min(gs.r_max, cut)})
    x, w, spans = _stacked_template(GL_NODES)
    r, wr = gl_rows(panel_edges(breaks, min(0.5, force_panel(p))), x, w)
    q = gs.q_dq_at(r)[0]
    i_q = _sphere_weight(gs.d, r) * q ** p
    l2 = sphere_area(gs.d) * r ** (gs.d - 1) * q ** 2
    return [tuple(float(wr[:, cols].ravel() @ f[:, cols].ravel()) for f in (i_q, l2))
            for cols in spans]


def structure_constants(gs: GroundState) -> StructureConstants:
    """All scalar constants from I_Q and ||Q||^2, whose radial rule's passes
    with 8 and 12 nodes per panel must agree (``_radial_passes``)."""
    coarse, fine = _radial_passes(gs)
    for name, a, b in zip(("I_Q", "||Q||^2"), coarse, fine):
        if abs(b - a) > 1e-9 * max(1.0, abs(b)):          # absolute and relative 1e-9
            raise QuadratureFailure(f"radial {name} rule not converged: {abs(b - a):.3e}")
    i_q, l2 = fine

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
