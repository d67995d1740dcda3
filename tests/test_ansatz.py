import numpy as np
import pytest
from scipy.integrate import quad

from twobubble import ansatz as az
from twobubble import nls_core as nc
from twobubble.errors import GridTooSmall, InvalidExponent, QuadratureFailure
from twobubble.groundstate import solve_profile, structure_constants

from oracles import adaptive_force_1d, ansatz_residual_direct, nonlinearity_derivative


def params_1d(z, v=0.0, lam=1.0, gamma=0.0):
    return az.BubbleParams(lam=lam, z=[z], gamma=gamma, v=[v])


def test_coincident_bubbles(gs1, grid_2048_64):
    P = az.build_two_bubble(params_1d(0.0), gs1, grid_2048_64)
    expected = 2.0 * gs1.q_at(np.abs(grid_2048_64.axis))
    assert np.max(np.abs(P.values - expected)) < 1e-12
    assert np.max(np.abs(P.values.imag)) == 0.0

    G = az.interaction_G(params_1d(0.0), gs1, grid_2048_64)
    assert np.max(np.abs(G.values - (2.0 ** 3 - 2.0) * gs1.q_at(
        np.abs(grid_2048_64.axis)) ** 3)) < 1e-11


def test_tau_symmetry(gs1, grid_2048_64):
    pr = params_1d(17.0, v=0.03, gamma=0.4)
    dv = az.ParamDerivs(lam_dot=0.01, z_dot=[0.05], gamma_dot=1.01, v_dot=[-0.002])
    for field in (az.build_two_bubble(pr, gs1, grid_2048_64),
                  az.interaction_G(pr, gs1, grid_2048_64),
                  az.ansatz_residual(pr, dv, gs1, grid_2048_64)):
        refl = nc.reflect(field)
        assert np.max(np.abs(refl.values - field.values)) < 1e-13


def test_build_two_bubble_2d(gs2):
    g = nc.make_grid(2, 256, 16.0)
    pr = az.BubbleParams(lam=1.0, z=[9.0, 0.0], gamma=0.0, v=[0.02, 0.0])
    P = az.build_two_bubble(pr, gs2, g)
    refl = nc.reflect(P)
    assert np.max(np.abs(refl.values - P.values)) < 1e-13
    # non-axis-aligned separation: symmetric up to the periodic wrap of the
    # tails at this small box
    pr2 = az.BubbleParams(lam=1.0, z=[6.0, 5.0], gamma=0.0, v=[0.01, -0.01])
    P2 = az.build_two_bubble(pr2, gs2, g)
    asym = np.abs(nc.reflect(P2).values - P2.values)
    assert np.max(asym) < 1e-5
    interior = (np.abs(g.x_mesh[0]) < 8.0) & (np.abs(g.x_mesh[1]) < 8.0)
    assert np.max(asym[interior]) < 1e-12


def test_two_bubble_mass(gs1, sc1, grid_2048_64):
    # mass = 2||Q||^2 + 2<Q, Q(.-z)>; the cross term comes from quadrature
    z = 20.0
    P = az.build_two_bubble(params_1d(z), gs1, grid_2048_64)
    cross, err = quad(lambda y: gs1.q_at(abs(y)) * gs1.q_at(abs(y - z)),
                      -30.0, 50.0, limit=200)
    assert err < 1e-12
    oracle = 2.0 * sc1.l2 + 2.0 * cross
    mass = nc.l2_norm_sq(P)
    assert abs(mass - oracle) < 1e-9
    assert abs(mass - 2.0 * sc1.l2) < 1e-6  # spec example: ~8 within 1e-6


def test_grid_too_small(gs1):
    g = nc.make_grid(1, 512, 16.0)
    with pytest.raises(GridTooSmall):
        az.build_two_bubble(params_1d(14.0), gs1, g)


def test_force_antisymmetry(gs1):
    plus = az.interaction_force_H([15.0], gs1)
    minus = az.interaction_force_H([-15.0], gs1)
    assert plus[0] == -minus[0]


def test_force_magnitude(gs1, sc1):
    H = az.interaction_force_H([15.0], gs1)[0]
    assert H == pytest.approx(16.0 * np.exp(-15.0), rel=1e-3)
    assert H == pytest.approx(4.894e-6, rel=1e-3)


def test_force_asymptotic_law(gs1, sc1):
    devs = []
    for z in (10.0, 15.0, 20.0, 25.0):
        H = az.interaction_force_H([z], gs1)[0]
        devs.append(abs(H / (sc1.c_p * np.exp(-z)) - 1.0))
        assert devs[-1] <= 5.0 / z
    assert all(a > b for a, b in zip(devs, devs[1:]))


def test_force_matches_adaptive_oracle(gs1):
    for z in (2.0, 4.5, 8.0, 12.0, 15.0, 20.0, 25.0):
        H = az.interaction_force_H([z], gs1, min_sep=2.0)[0]
        assert H == pytest.approx(adaptive_force_1d(z, gs1), rel=1e-10)


def test_force_cut_drops_nothing(monkeypatch, gs1, gs18, gs2):
    # past the cut the integrand is below e^-FORCE_CUT of H, so a rule cut
    # twice as far moves H by rounding only
    cases = [(gs, z) for gs in (gs1, gs18) for z in (2.0, 8.0, 25.0, 40.0)]
    cases += [(gs2, 8.0), (gs2, 15.0)]

    def forces():
        return [az.interaction_force_H(np.eye(gs.d)[0] * z, gs, min_sep=2.0)[0]
                for gs, z in cases]

    base = forces()
    monkeypatch.setattr(az, "FORCE_CUT", 2.0 * az.FORCE_CUT)
    for (gs, z), h, wide in zip(cases, base, forces()):
        assert abs(wide / h - 1.0) <= 3e-14, (gs.p, gs.d, z)


def test_force_rule_not_converged(monkeypatch, gs1):
    # a one-node (midpoint) coarse rule is off by ~4e-7 relative at |z| = 12
    monkeypatch.setattr(az, "_COARSE_NODES", 1)
    with pytest.raises(QuadratureFailure, match="not converged"):
        az.interaction_force_H([12.0], gs1)


def test_force_below_threshold(gs1):
    with pytest.raises(QuadratureFailure):
        az.interaction_force_H([3.0], gs1)


def test_cartesian_rules_reject_d3():
    # H(z) and I_Q share the transverse axis, which covers d = 1 and 2 only
    gs3 = solve_profile(3.0, 3)
    with pytest.raises(QuadratureFailure, match="got 3"):
        structure_constants(gs3)
    with pytest.raises(QuadratureFailure, match="got 3"):
        az.interaction_force_H([8.0, 0.0, 0.0], gs3)


def test_force_2d_direction_and_law(gs2):
    sc2 = structure_constants(gs2)
    theta = 0.7
    zvec = 9.0 * np.array([np.cos(theta), np.sin(theta)])
    H = az.interaction_force_H(zvec, gs2)
    # parallel to z
    cross = H[0] * zvec[1] - H[1] * zvec[0]
    assert abs(cross) < 1e-12 * np.linalg.norm(H)
    ratio = np.linalg.norm(H) / (sc2.c_p * 9.0 ** -0.5 * np.exp(-9.0))
    assert abs(ratio - 1.0) < 5.0 / 9.0
    # deviation shrinks with separation
    ratio2 = np.linalg.norm(az.interaction_force_H([12.0, 0.0], gs2)) \
        / (sc2.c_p * 12.0 ** -0.5 * np.exp(-12.0))
    assert abs(ratio2 - 1.0) < abs(ratio - 1.0)


@pytest.mark.slow
def test_force_law_2d(gs2):
    # the d=2 law against the rule; building it takes ~25 s of rule calls
    law = gs2.force_law
    for z in np.linspace(4.5, 30.0, 5):
        H = az.interaction_force_H([z, 0.0], gs2, min_sep=2.0)[0]
        assert law(z) == pytest.approx(H, rel=8e-13, abs=0.0)


def test_interaction_bound_shapes(gs1, gs18, grid_2048_64):
    # p = 3: sup G * e^{|z|} bounded above and below over |z| in [10, 20]
    vals = []
    for z in (10.0, 12.5, 15.0, 17.5, 20.0):
        G = az.interaction_G(params_1d(z), gs1, grid_2048_64)
        vals.append(np.max(np.abs(G.values)) * np.exp(z))
    assert min(vals) > 1.0 and max(vals) < 100.0
    assert max(vals) / min(vals) < 3.0
    # p = 1.8: the weaker e^{-p|z|/2} envelope
    G18 = az.interaction_G(params_1d(20.0), gs18, grid_2048_64)
    ratio = np.max(np.abs(G18.values)) / np.exp(-0.9 * 20.0)
    assert 0.1 < ratio < 100.0


def test_projection_consistency(gs1, grid_2048_64):
    # grid pairing of G against the boosted translation direction vs H(z)
    worst = 0.0
    for z in (10.0, 14.0, 18.0):
        for v in (0.0, 0.05, 0.1):
            pr = params_1d(z, v=v)
            G = az.interaction_G(pr, gs1, grid_2048_64)
            off = grid_2048_64.axis - 0.5 * z
            T = np.exp(0.5j * v * off) * gs1.dq_at(np.abs(off)) * np.sign(off)
            lhs = float(np.sum(G.values * np.conj(T)).real) * grid_2048_64.h
            H = az.interaction_force_H([z], gs1)[0]
            bound = ((v * v * z * z + v * v) * np.exp(-z)
                     + np.exp(-1.5 * z))
            worst = max(worst, abs(lhs - H) / bound)
    assert worst < 10.0


@pytest.mark.parametrize("p,min_slope", [(3.0, 1.9), (1.8, 1.7)])
def test_expansion_order(p, min_slope, grid_2048_64):
    gs = solve_profile(p, 1)
    pr = params_1d(14.0, v=0.02)
    P = az.build_two_bubble(pr, gs, grid_2048_64).values
    rng = np.random.default_rng(5)
    noise = np.fft.ifft(np.exp(-0.25 * grid_2048_64.k_sq)
                        * (rng.standard_normal(2048) + 1j * rng.standard_normal(2048)))
    noise *= np.exp(-(grid_2048_64.axis / 20.0) ** 2)
    noise /= np.max(np.abs(noise))
    scales = np.array([1e-1, 1e-2, 1e-3])
    errs = []
    for t in scales:
        eps = t * noise
        err = az.nonlinearity(P + eps, p) - az.nonlinearity(P, p) \
            - nonlinearity_derivative(P, eps, p)
        errs.append(np.max(np.abs(err)))
    slope = np.polyfit(np.log(scales), np.log(errs), 1)[0]
    assert slope >= min_slope


def test_residual_paths_agree(gs1, grid_2048_64):
    rng = np.random.default_rng(11)
    pr = az.BubbleParams(lam=1.1, z=[18.0], gamma=0.3, v=[0.04])
    dv = az.ParamDerivs(lam_dot=0.01, z_dot=[0.08], gamma_dot=1.02, v_dot=[-0.003])
    ra = az.ansatz_residual(pr, dv, gs1, grid_2048_64)
    rd = ansatz_residual_direct(pr, dv, gs1, grid_2048_64)
    assert np.max(np.abs(ra.values - rd)) < 1e-13
    # random derivatives as well
    for _ in range(3):
        dv = az.ParamDerivs(lam_dot=0.05 * rng.standard_normal(),
                            z_dot=[0.1 * rng.standard_normal()],
                            gamma_dot=1.0 + 0.05 * rng.standard_normal(),
                            v_dot=[0.01 * rng.standard_normal()])
        ra = az.ansatz_residual(pr, dv, gs1, grid_2048_64)
        rd = ansatz_residual_direct(pr, dv, gs1, grid_2048_64)
        assert np.max(np.abs(ra.values - rd)) < 1e-13


def test_residual_free_flow_equals_G(gs1, grid_2048_64):
    # on the free flow (no velocity forcing) all modulation vectors vanish
    z, v = 20.0, 0.002
    pr = params_1d(z, v=v)
    dv = az.ParamDerivs(lam_dot=0.0, z_dot=[2.0 * v],
                        gamma_dot=1.0 + 0.25 * v * v, v_dot=[0.0])
    m1, m2 = az.modulation_vectors(pr, dv)
    for m in (m1, m2):
        assert max(abs(m.m_scale), np.max(np.abs(m.m_translation)), abs(m.m_phase),
                   np.max(np.abs(m.m_velocity))) < 1e-15
    res = az.ansatz_residual(pr, dv, gs1, grid_2048_64)
    G = az.interaction_G(pr, gs1, grid_2048_64)
    assert np.max(np.abs(res.values - G.values)) < 1e-14


def test_residual_envelope(gs1, sc1, grid_2048_64):
    # with reduced-flow parameters the residual obeys the e^{-|z|} envelope
    vals = []
    for z in (12.0, 16.0, 20.0):
        v = np.sqrt(sc1.c) * np.exp(-0.5 * z)
        pr = params_1d(z, v=v)
        H = az.interaction_force_H([z], gs1)[0]
        dv = az.ParamDerivs(lam_dot=0.0, z_dot=[2.0 * v],
                            gamma_dot=1.0 + 0.25 * v * v,
                            v_dot=[-2.0 / sc1.c2 * H])
        res = az.ansatz_residual(pr, dv, gs1, grid_2048_64)
        vals.append(np.max(np.abs(res.values)) * np.exp(z))
    assert min(vals) > 1.0 and max(vals) < 100.0


def test_correction_count():
    assert az.correction_count(1.8) == 0
    assert az.correction_count(1.45) == 1
    assert az.correction_count(1.3) == 2
    with pytest.raises(InvalidExponent):
        az.correction_count(2.5)


def test_refined_corrections_p18(gs18, grid_2048_32):
    pr = params_1d(2.0 * np.log(100.0))
    cors = az.refined_corrections(pr, gs18, grid_2048_32)
    assert len(cors) == 1
    R0 = cors[0]
    assert R0.j == 0 and R0.sup_norm > 0

    # Helmholtz inverse recovers the projected source to spectral accuracy
    g = grid_2048_32
    back = np.fft.ifftn((1.0 + g.k_sq) * np.fft.fftn(R0.field.values))
    source = az.interaction_G(pr, gs18, g).values * az.interaction_cutoff(pr, g)
    tilde = az.remove_translation_projections(source, pr, gs18, g)
    assert np.max(np.abs(back - tilde)) < 1e-10

    # tau symmetry; the removal cancels the translation component down to the
    # bubble-overlap order (the residual cross projection)
    assert np.max(np.abs(nc.reflect(R0.field).values - R0.field.values)) < 1e-13
    off = g.axis - 0.5 * pr.z[0]
    gq1 = gs18.dq_at(np.abs(off)) * np.sign(off)
    dQp = gs18.p * gs18.q_at(np.abs(off)) ** (gs18.p - 1.0) * gq1
    pre = abs(float(np.sum(source * gq1).real) * g.h)
    post = abs(float(np.sum(tilde * gq1).real) * g.h)
    assert post < 0.05 * pre
    # self-adjointness: <R0, grad(Q^p)> equals the residual projection
    r0_pair = float(np.sum(R0.field.values * dQp).real) * g.h
    assert abs(abs(r0_pair) - post) < 1e-10


def test_refined_corrections_p145(grid_2048_32):
    gs = solve_profile(1.45, 1)
    pr = params_1d(11.0)
    cors = az.refined_corrections(pr, gs, grid_2048_32)
    assert len(cors) == 2
    assert cors[1].sup_norm < cors[0].sup_norm


def test_refined_scaling(gs18, grid_2048_32):
    vals = []
    for s in (50.0, 100.0, 200.0):
        pr = params_1d(2.0 * np.log(s))
        sup = az.refined_corrections(pr, gs18, grid_2048_32)[0].sup_norm
        vals.append(sup * s ** 1.8)
    assert max(vals) / min(vals) < 3.0


def test_helmholtz_kernel_1d(grid_1024_32):
    # multiplier inverse vs direct convolution with the half-exponential kernel
    g = grid_1024_32
    f = np.exp(-g.axis ** 2)
    via_multiplier = az.helmholtz_inverse(f.astype(complex), g).real
    diffs = g.axis[:, None] - g.axis[None, :]
    direct = 0.5 * np.exp(-np.abs(diffs)) @ f * g.h
    assert np.max(np.abs(via_multiplier - direct)) < 5e-3 * np.max(np.abs(direct))
    assert np.min(direct) > 0  # kernel positivity


def test_modulation_vector_signs(gs1):
    pr = az.BubbleParams(lam=2.0, z=[10.0], gamma=0.0, v=[0.1])
    dv = az.ParamDerivs(lam_dot=0.2, z_dot=[0.3], gamma_dot=1.1, v_dot=[0.01])
    m1, m2 = az.modulation_vectors(pr, dv)
    rel = 0.1
    assert m1.m_scale == pytest.approx(rel)
    assert m1.m_translation[0] == pytest.approx(0.15 - 0.1 + rel * 5.0)
    assert m2.m_translation[0] == pytest.approx(-0.15 + 0.1 - rel * 5.0)
    assert m1.m_phase == pytest.approx(1.1 - 1.0 + 0.05 ** 2 - rel * 0.25 - 0.05 * 0.15)
    assert m1.m_velocity[0] == pytest.approx(0.005 - rel * 0.05)
