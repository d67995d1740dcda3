"""Parameter extraction by orthogonality, and the localized energy
functional.

The fit finds (lambda, z, gamma, v) so that the recentered error of

    u(x) = e^{i gamma} lambda^{-2/(p-1)} (P + eps)(x / lambda)

is orthogonal to the generalized null directions Q, yQ, i Lambda Q (and
i grad Q in snapshot mode).  All pairings are evaluated in lab coordinates
with exact lambda scaling factors, so the Newton loop never resamples the
input field.  The Jacobian differentiates no test field: summation by parts
moves each derivative of a test field's argument onto the spectral gradient
of u, taken once per fit, or onto the gradient of bubble 2, so the fit reads
only Q and Q' and Newton's convergence stays quadratic.  Every bubble and
test field comes from ``ansatz.LatticeBubble``.  The fit returns the
parameters and projections alone: the resampled, recentered error field,
which only the tests read, is ``tests/oracles.recentered_error``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ansatz import BubbleParams, LatticeBubble, bubble_pair, smoothstep
from .errors import InvalidConfig, NoConvergence, OutOfBasin
from .groundstate import GroundState
from .nls_core import ComplexField, gradient

# decompose's Newton budget, and its bound on the first step (OutOfBasin beyond)
MAX_ITER = 40
TRUST_RADIUS = 5.0


@dataclass(frozen=True)
class DecompResult:
    """Fitted parameters and their annihilated projections."""

    params: BubbleParams
    projections: dict
    newton_iters: int
    step_history: tuple


def _bare_fields(b: LatticeBubble, count: int) -> list[np.ndarray]:
    """The first count null directions Q, y_m Q, i Lambda Q, i d_m Q, without the boost."""
    out = [b.q] + [o * b.q for o in b.offs] + [1j * b.lamq]
    if count > len(out):
        out += [1j * gq for gq in b.grad_q]
    return out


def _d_dv(b: LatticeBubble, f: np.ndarray, m: int) -> np.ndarray:
    """Derivative of b.phase * f along v_m (phase e^{i v/2 . (y - z/2)})."""
    return 0.5 * b.phase * (1j * b.offs[m] * f)


class _Workspace:
    """The orthogonality conditions on u at theta = (lambda, z, gamma, v).

    snapshot mode enforces all 2 + 2d of them and varies all of theta;
    tracking mode enforces the first 2 + d and varies (lambda, z, gamma),
    holding v at theta's."""

    def __init__(self, u: ComplexField, gs: GroundState, mode: str):
        self.u = u
        self.g = u.grid
        self.gs = gs
        self.d = self.g.d
        self.vol = self.g.cell_volume
        self.mode = mode
        self.n_eq = 2 + self.d + (self.d if mode == "snapshot" else 0)
        self.b_exp = 2.0 / (gs.p - 1.0) - self.d
        # u is fixed during the solve, so its gradient and x . grad u are
        # taken once; the Jacobian pairs them with the test fields
        self.grad_u = gradient(u)
        self.radial_u = sum(x * gu for x, gu in zip(self.g.x_mesh, self.grad_u))

    def _pair(self, f: np.ndarray, g: np.ndarray) -> float:
        return float(np.sum(f * np.conj(g)).real) * self.vol

    def unpack(self, theta: np.ndarray):
        d = self.d
        lam = theta[0]
        z = theta[1:1 + d]
        gamma = theta[1 + d]
        return lam, z, gamma, theta[2 + d:2 + 2 * d]

    def _residual(self, theta: np.ndarray, count: int):
        """Residuals of the first count pairings and the pieces the Jacobian reuses.

        The u side pairs the rescaled, phase-stripped input with the test
        fields at x / lambda; the ansatz side pairs P with the test fields of
        bubble 1 on the unit lattice.
        """
        lam, z, gamma, v = self.unpack(theta)
        g, gs = self.g, self.gs
        bu = LatticeBubble(gs, [x / lam for x in g.x_mesh], 0.5 * z, 0.5 * v)
        upre = np.exp(-1j * gamma) * self.u.values * lam ** self.b_exp
        bare_u = _bare_fields(bu, count)
        T_u = [bu.phase * f for f in bare_u]
        I = np.array([self._pair(upre, t) for t in T_u])

        by = (LatticeBubble(gs, g.x_mesh, 0.5 * z, 0.5 * v),
              LatticeBubble(gs, g.x_mesh, -0.5 * z, -0.5 * v))
        P = by[0].values + by[1].values
        bare_y = _bare_fields(by[0], count)
        Ty = [by[0].phase * f for f in bare_y]
        res = I - np.array([self._pair(P, t) for t in Ty])
        return res, (bu, upre, bare_u, T_u, I, by, P, bare_y, Ty)

    def residual_jacobian(self, theta: np.ndarray):
        """Residual and Jacobian.  Each derivative of a test field's argument
        is moved by parts onto the other factor of its pairing, so no test
        field is differentiated.

        u side, with T_j(x / lambda) and y = x / lambda: d/dz_m T_j is
        -(1/2) d/dy_m T_j, so the z_m column is (lambda/2) <d_m upre, T_j>;
        d/dlambda is -(x . grad T_j)/lambda, so the lambda column is
        (2/(p-1) I_j + <x . grad upre, T_j>)/lambda.  Ansatz side: bubble 1
        and the test fields shift together, so only bubble 2 moves against
        them, and d/dz_m <P, T_j> is <d_m P_2, T_j>.
        """
        d, n_eq = self.d, self.n_eq
        snapshot = self.mode == "snapshot"
        res, (bu, upre, bare, T_u, I, by, P, bare_y, Ty) = self._residual(theta, n_eq)
        jac = np.zeros((n_eq, n_eq))

        # u side
        lam, gamma = theta[0], theta[1 + d]
        scale = np.exp(-1j * gamma) * lam ** self.b_exp
        grad_upre = [scale * gu for gu in self.grad_u]
        radial_upre = scale * self.radial_u
        a = 2.0 / (self.gs.p - 1.0)
        for j in range(n_eq):
            jac[j, 0] = (a * I[j] + self._pair(radial_upre, T_u[j])) / lam
            jac[j, 1 + d] = self._pair(-1j * upre, T_u[j])
            for m in range(d):
                jac[j, 1 + m] = 0.5 * lam * self._pair(grad_upre[m], T_u[j])
                if snapshot:
                    jac[j, 2 + d + m] = self._pair(upre, _d_dv(bu, bare[j], m))

        # ansatz side: P and the test fields of bubble 1 both move with v
        b1, b2 = by
        grad_p2 = [b2.phase * (1j * b2.vel[m] * b2.q + b2.grad_q[m]) for m in range(d)]
        dP_dv = [_d_dv(b1, b1.q, m) - _d_dv(b2, b2.q, m) for m in range(d)] if snapshot else []
        for j in range(n_eq):
            for m in range(d):
                jac[j, 1 + m] -= self._pair(grad_p2[m], Ty[j])
                if snapshot:
                    jac[j, 2 + d + m] -= (self._pair(dP_dv[m], Ty[j])
                                          + self._pair(P, _d_dv(b1, bare_y[j], m)))
        return res, jac

    def projections(self, theta: np.ndarray) -> dict:
        """All four pairing families at theta (also the non-enforced ones)."""
        d = self.d
        res, _ = self._residual(theta, 2 + 2 * d)
        return {"Q": res[0], "yQ": res[1:1 + d].copy(),
                "iLamQ": res[1 + d], "igradQ": res[2 + d:2 + 2 * d].copy()}


def decompose(u: ComplexField, guess: BubbleParams, gs: GroundState,
              mode: str = "snapshot", with_fields: bool = False,
              xtol: float = 1e-12) -> DecompResult:
    """Newton solve of the orthogonality conditions around a parameter guess.

    tracking mode fits (lambda, z, gamma) and keeps the guess's v; snapshot
    mode promotes the i grad Q condition to an equation and fits v as well;
    any other mode, or a guess of another dimension than u, is an
    InvalidConfig.  It builds no error field; ``error_h1`` measures eps at
    the fitted parameters.  with_fields is kept for callers that pass
    False; True is an InvalidConfig, as the recentered error field is the
    test oracle ``recentered_error``.
    """
    if mode not in ("snapshot", "tracking"):
        raise InvalidConfig(f"unknown fit mode {mode!r}; use 'snapshot' or 'tracking'")
    if with_fields:
        raise InvalidConfig("decompose builds no error field; the recentered error "
                            "is tests/oracles.recentered_error")
    if guess.d != u.grid.d:
        raise InvalidConfig(f"a {guess.d}-dimensional guess for a {u.grid.d}-dimensional field")
    ws = _Workspace(u, gs, mode)
    n = ws.n_eq

    theta = np.concatenate([[guess.lam], guess.z, [guess.gamma], guess.v])
    history = []
    for it in range(MAX_ITER):
        res, jac = ws.residual_jacobian(theta)
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"singular Newton system: {exc}") from exc
        size = float(np.max(np.abs(step)))
        if it == 0 and size > TRUST_RADIUS:
            raise OutOfBasin(f"first Newton step {size:.3e} > {TRUST_RADIUS}")
        theta[:n] += step
        if theta[0] <= 0:
            raise NoConvergence(f"scale went nonpositive: {theta[0]:.3e}")
        history.append(size)
        if size < xtol:
            break
    else:
        raise NoConvergence(f"no convergence after {MAX_ITER} iterations; "
                            f"last step {history[-1]:.3e}")

    lam, z, gamma, v = ws.unpack(theta)
    gamma = float(np.angle(np.exp(1j * gamma)))  # report in (-pi, pi]
    params = BubbleParams(lam=float(lam), z=z.copy(), gamma=gamma, v=v.copy())
    proj = ws.projections(theta)
    return DecompResult(params=params, projections=proj,
                        newton_iters=len(history), step_history=tuple(history))


def _lab_error(u: ComplexField, params: BubbleParams, gs: GroundState):
    """The bubble pair at x / lam, P(x / lam), eps_lab = u - e^{i gamma}
    lam^{-2/(p-1)} P(x / lam), its spectrum, and the squared H1 norm of eps(y)
    as lam^(4/(p-1) - d) sum |eps_hat|^2 (1 + lam^2 |k|^2) on the lattice."""
    g, p, lam = u.grid, gs.p, params.lam
    bubbles = bubble_pair(params, gs, [x / lam for x in g.x_mesh])
    P_scaled = bubbles[0].values + bubbles[1].values
    eps_lab = u.values - np.exp(1j * params.gamma) * lam ** (-2.0 / (p - 1.0)) * P_scaled
    eh = np.fft.fftn(eps_lab)
    a = lam ** (4.0 / (p - 1.0) - g.d) * g.cell_volume / g.N ** g.d
    h1_sq = a * float(np.sum(np.abs(eh) ** 2 * (1.0 + lam ** 2 * g.k_sq)))
    return bubbles, P_scaled, eps_lab, eh, h1_sq


def error_h1(u: ComplexField, params: BubbleParams, gs: GroundState) -> float:
    """eps_h1: the H1 norm of eps in u = e^{i gamma} lam^{-2/(p-1)} (P + eps)(x / lam)."""
    return math.sqrt(_lab_error(u, params, gs)[-1])


def energy_functional(u: ComplexField, params: BubbleParams, s: float,
                      gs: GroundState) -> dict:
    """Localized almost-conserved energy of the error: W = H - J.

    H is the nonlinear energy of the error relative to the two-bubble ansatz;
    J localizes the momentum around each bubble with a plateau cutoff of
    radius log(s).  Everything is evaluated in lab coordinates with exact
    scale factors; eps_h1 is ``error_h1``'s.
    """
    g = u.grid
    p = gs.p
    lam = params.lam
    vol = g.cell_volume

    bubbles, P_scaled, eps_lab, eh, eps_h1_sq = _lab_error(u, params, gs)
    grads = [np.fft.ifftn(1j * k * eh) for k in g.k_mesh]

    # potential part: int |P+eps|^{p+1} - |P|^{p+1} - (p+1)|P|^{p-1} Re(eps conj(P))
    w_scaled = np.exp(-1j * params.gamma) * lam ** (2.0 / (p - 1.0)) * u.values
    eps_scaled = w_scaled - P_scaled
    absP = np.abs(P_scaled)
    pot = (np.abs(w_scaled) ** (p + 1.0) - absP ** (p + 1.0)
           - (p + 1.0) * absP ** (p - 1.0) * (eps_scaled * np.conj(P_scaled)).real)
    H_val = 0.5 * eps_h1_sq - lam ** (-g.d) * float(np.sum(pot)) * vol / (p + 1.0)

    radius = np.log(s)
    J_val = 0.0
    for bub in bubbles:
        chi = 1.0 - smoothstep(bub.r / radius, 0.1, 0.125)   # 1 inside radius/10, 0 past /8
        b = lam ** (1.0 + 4.0 / (p - 1.0) - g.d)
        dens = sum(vc * (gr * np.conj(eps_lab)).imag for vc, gr in zip(bub.vel, grads))
        J_val += b * float(np.sum(dens * chi)) * vol

    return {"W": H_val - J_val, "H": H_val, "J": J_val,
            "eps_h1": math.sqrt(eps_h1_sq)}
