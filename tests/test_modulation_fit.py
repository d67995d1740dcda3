from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import simpson

from twobubble import modulation_fit as mf
from twobubble import nls_core as nc
from twobubble.ansatz import BubbleParams
from twobubble.errors import InvalidConfig, NoConvergence, OutOfBasin
from twobubble.groundstate import GroundState, solve_profile

from conftest import random_smooth_field
from oracles import (apply_linearized, coercivity_check, lab_frame_error, lam_q, project_out,
                     quadratic_form, reflect, renormalized_h1)

COERCIVITY_FLOOR = 0.5   # observed 0.59 at N=2048, L=32, 200 samples, seed 1


def exact_two_bubble(params, gs, grid):
    pref = np.exp(1j * params.gamma) * params.lam ** (-2.0 / (gs.p - 1.0))
    scaled = [x / params.lam for x in grid.x_mesh]
    return nc.ComplexField(grid, pref * mf.ansatz_on_lattice(params, gs, scaled))


def soliton_carrier(gs, grid, values):
    return nc.ComplexField(grid, np.asarray(values, dtype=complex))


def test_null_space_identities(gs1, grid_2048_32):
    g = grid_2048_32
    r = np.abs(g.axis)
    sgn = np.sign(g.axis)
    Q = soliton_carrier(gs1, g, gs1.q_at(r))
    gradQ = soliton_carrier(gs1, g, gs1.dq_at(r) * sgn)
    lamQ = soliton_carrier(gs1, g, lam_q(gs1, r))
    xQ = soliton_carrier(gs1, g, g.axis * gs1.q_at(r))

    def l2(vals):
        return np.sqrt(np.sum(np.abs(vals) ** 2) * g.h)

    assert l2(apply_linearized("minus", Q, gs1).values) < 1e-8
    assert l2(apply_linearized("plus", gradQ, gs1).values) < 1e-8
    assert l2(apply_linearized("plus", lamQ, gs1).values + 2.0 * Q.values) < 1e-8
    assert l2(apply_linearized("minus", xQ, gs1).values
              + 2.0 * gradQ.values) < 1e-8


def test_identity_decomposition(gs1, grid_2048_64):
    true = BubbleParams(lam=1.0, z=[15.0], gamma=0.3, v=[0.01])
    u = exact_two_bubble(true, gs1, grid_2048_64)
    res = mf.decompose(u, true, gs1, mode="snapshot")
    assert abs(res.params.lam - 1.0) < 1e-10
    assert abs(res.params.z[0] - 15.0) < 1e-10
    assert abs(res.params.gamma - 0.3) < 1e-10
    assert abs(res.params.v[0] - 0.01) < 1e-10
    assert mf.error_h1(u, res.params, gs1) < 1e-10


def test_round_trip_random_draws(gs1, grid_2048_64):
    rng = np.random.default_rng(42)
    quadratic_seen = 0
    for _ in range(50):
        true = BubbleParams(lam=0.9 + 0.2 * rng.random(),
                            z=[12.0 + 8.0 * rng.random()],
                            gamma=-np.pi + 2.0 * np.pi * rng.random(),
                            v=[-0.05 + 0.1 * rng.random()])
        u = exact_two_bubble(true, gs1, grid_2048_64)
        guess = BubbleParams(lam=true.lam * (1.0 + 0.02 * rng.standard_normal()),
                             z=true.z + 0.05 * rng.standard_normal(),
                             gamma=true.gamma + 0.03 * rng.standard_normal(),
                             v=true.v + 0.002 * rng.standard_normal())
        res = mf.decompose(u, guess, gs1, mode="snapshot", with_fields=False)
        err = max(abs(res.params.lam - true.lam),
                  abs(res.params.z[0] - true.z[0]),
                  abs(np.angle(np.exp(1j * (res.params.gamma - true.gamma)))),
                  abs(res.params.v[0] - true.v[0]))
        assert err < 1e-10
        # quadratic contraction: once below 1e-3, the next step is 10x smaller
        steps = res.step_history
        for a, b in zip(steps, steps[1:]):
            if a < 1e-3:
                assert b <= 0.1 * a or b < 1e-12
                quadratic_seen += 1
                break
    assert quadratic_seen >= 40


def test_phase_shift_recovery(gs1, grid_2048_64):
    true = BubbleParams(lam=1.0, z=[14.0], gamma=0.2, v=[0.02])
    u = exact_two_bubble(true, gs1, grid_2048_64)
    shifted = nc.ComplexField(grid_2048_64, u.values * np.exp(1j * 0.7))
    res = mf.decompose(shifted, true, gs1, mode="snapshot")
    assert abs(res.params.gamma - 0.9) < 1e-10
    assert abs(res.params.z[0] - 14.0) < 1e-10
    assert abs(res.params.lam - 1.0) < 1e-10


def test_scaling_direction_perturbation(gs1, grid_2048_64):
    # adding a symmetrized i Lambda Q bump shifts the parameters so the
    # enforced projections of the new recentered error all vanish
    g = grid_2048_64
    true = BubbleParams(lam=1.002, z=[12.3], gamma=0.5, v=[0.03])
    u = exact_two_bubble(true, gs1, g)
    off = g.axis - 0.5 * true.z[0]
    bump = np.exp(0.5j * true.v[0] * off) * 1j * lam_q(gs1, np.abs(off))
    bump = bump + reflect(nc.ComplexField(g, bump)).values
    pert = nc.ComplexField(g, u.values + 1e-3 * bump)
    res = mf.decompose(pert, true, gs1, mode="snapshot")
    for key in ("Q", "yQ", "iLamQ", "igradQ"):
        assert np.max(np.abs(np.atleast_1d(res.projections[key]))) < 1e-9
    assert 1e-4 < mf.error_h1(pert, res.params, gs1) < 1e-2
    assert res.params.gamma != true.gamma  # the shift is the fitted output


def test_tracking_mode(gs1, grid_2048_64):
    true = BubbleParams(lam=1.01, z=[13.0], gamma=-0.4, v=[0.025])
    u = exact_two_bubble(true, gs1, grid_2048_64)
    guess = BubbleParams(lam=1.0, z=[13.1], gamma=-0.35, v=[0.025])
    res = mf.decompose(u, guess, gs1, mode="tracking")
    assert abs(res.params.z[0] - 13.0) < 1e-10
    assert abs(res.params.lam - 1.01) < 1e-10
    assert np.array_equal(res.params.v, [0.025])


def test_projections_are_snapshot_residual(gs1, grid_2048_64):
    # a slightly wrong velocity, which tracking keeps, leaves a nonzero
    # i grad Q pairing
    true = BubbleParams(lam=1.01, z=[13.0], gamma=-0.4, v=[0.025])
    u = exact_two_bubble(true, gs1, grid_2048_64)
    res = mf.decompose(u, replace(true, v=[0.03]), gs1, mode="tracking")
    fit = res.params
    assert np.array_equal(fit.v, [0.03])
    theta = np.concatenate([[fit.lam], fit.z, [fit.gamma], fit.v])
    full = mf._Workspace(u, gs1, "snapshot").residual_jacobian(theta)[0]
    got = np.concatenate([[res.projections["Q"]], res.projections["yQ"],
                          [res.projections["iLamQ"]], res.projections["igradQ"]])
    assert np.max(np.abs(got - full)) <= 1e-15
    assert abs(res.projections["igradQ"][0]) > 1e-6


def test_unknown_fit_mode(gs1, grid_2048_64):
    # a mistyped mode is a bad argument, raised before any Newton step
    u = nc.ComplexField(grid_2048_64, np.zeros(grid_2048_64.shape, dtype=complex))
    with pytest.raises(InvalidConfig, match="unknown fit mode 'track'"):
        mf.decompose(u, BubbleParams(lam=1.0, z=[13.0], gamma=0.0, v=[0.0]),
                     gs1, mode="track")


def test_out_of_basin(monkeypatch, gs1, grid_2048_64):
    true = BubbleParams(lam=1.0, z=[14.0], gamma=0.0, v=[0.0])
    u = exact_two_bubble(true, gs1, grid_2048_64)
    far = BubbleParams(lam=1.0, z=[19.5], gamma=0.0, v=[0.0])
    monkeypatch.setattr(mf, "TRUST_RADIUS", 1.0)
    with pytest.raises(OutOfBasin):
        mf.decompose(u, far, gs1, mode="snapshot")


def test_no_convergence_budget(monkeypatch, gs1, grid_2048_64):
    true = BubbleParams(lam=1.0, z=[14.0], gamma=0.0, v=[0.0])
    u = exact_two_bubble(true, gs1, grid_2048_64)
    guess = BubbleParams(lam=1.05, z=[14.3], gamma=0.1, v=[0.005])
    monkeypatch.setattr(mf, "MAX_ITER", 2)
    with pytest.raises(NoConvergence):
        mf.decompose(u, guess, gs1, mode="snapshot")


def test_tracking_fit_builds_no_error_field(monkeypatch, gs1, grid_2048_64):
    # each residual of the fit evaluates the profile once per bubble, three
    # times (the Newton steps and the final projections); a bubble pair
    # built for eps_lab would add two evaluations
    true = BubbleParams(lam=1.01, z=[13.0], gamma=-0.4, v=[0.025])
    u = exact_two_bubble(true, gs1, grid_2048_64)
    calls = []
    q_dq_at = GroundState.q_dq_at
    monkeypatch.setattr(GroundState, "q_dq_at",
                        lambda self, rr: calls.append(1) or q_dq_at(self, rr))
    res = mf.decompose(u, true, gs1, mode="tracking")
    assert res.newton_iters >= 1 and len(calls) == 3 * (res.newton_iters + 1)


def test_identity_decomposition_2d(gs2):
    g = nc.make_grid(2, 256, 16.0)
    true = BubbleParams(lam=1.0, z=[9.0, 0.0], gamma=0.4, v=[0.02, 0.0])
    u = exact_two_bubble(true, gs2, g)
    guess = BubbleParams(lam=1.0, z=[9.05, 0.01], gamma=0.42, v=[0.021, 0.001])
    res = mf.decompose(u, guess, gs2, mode="snapshot", with_fields=False)
    assert np.max(np.abs(res.params.z - true.z)) < 1e-9
    assert np.max(np.abs(res.params.v - true.v)) < 1e-9
    assert abs(res.params.gamma - true.gamma) < 1e-9
    assert mf.error_h1(u, res.params, gs2) < 1e-9


def test_resample_scaled_gaussian(grid_2048_32):
    g = grid_2048_32
    lam = 1.03
    u = nc.ComplexField(g, np.exp(-(g.axis / 3.0) ** 2) * np.exp(0.4j * g.axis))
    out = mf.resample_scaled(u, lam)
    expect = np.exp(-(lam * g.axis / 3.0) ** 2) * np.exp(0.4j * lam * g.axis)
    assert np.max(np.abs(out - expect)) < 1e-11


def test_recentered_error_is_eta1(gs1, grid_2048_64):
    # build u = P + e^{iGamma1(y-z1)} w(y-z1); eta1 must recover w
    g = grid_2048_64
    params = BubbleParams(lam=1.0, z=[15.0], gamma=0.0, v=[0.04])
    base = exact_two_bubble(params, gs1, g)
    w = 1e-3 * np.exp(-(g.axis / 2.5) ** 2) * (1.0 + 0.5j)
    off = g.axis - 7.5
    add = np.exp(0.02j * off) * 1e-3 * np.exp(-(off / 2.5) ** 2) * (1.0 + 0.5j)
    u = nc.ComplexField(g, base.values + add)
    _, eta1 = mf.recentered_error(u, params, gs1)
    assert np.max(np.abs(eta1.values - w)) < 1e-12


def test_coercivity_examples(gs1, grid_2048_32):
    # unprojected Q direction is negative, with the quadrature oracle value
    Q = soliton_carrier(gs1, grid_2048_32, gs1.q_at(np.abs(grid_2048_32.axis)))
    oracle = -(gs1.p - 1.0) * 2.0 * simpson(gs1.q ** (gs1.p + 1.0), x=gs1.r)
    assert quadratic_form(Q, gs1) == pytest.approx(oracle, rel=1e-9)
    assert oracle < 0
    # iQ spans the kernel of the minus operator
    iQ = nc.ComplexField(grid_2048_32, 1j * gs1.q_at(np.abs(grid_2048_32.axis)))
    assert abs(quadratic_form(iQ, gs1)) < 1e-12


def test_coercivity_floor(gs1, grid_2048_32):
    mn, ratios = coercivity_check(gs1, grid_2048_32, n_samples=200, seed=1)
    assert ratios.size == 200
    assert mn >= 0.05          # the projected form is strictly positive
    assert mn >= COERCIVITY_FLOOR  # frozen regression value


def test_energy_zero_error(gs1, grid_2048_64):
    params = BubbleParams(lam=1.0, z=[14.0], gamma=0.2, v=[0.0])
    u = exact_two_bubble(params, gs1, grid_2048_64)
    out = mf.energy_functional(u, params, 100.0, gs1)
    assert abs(out["W"]) < 1e-14
    assert abs(out["H"]) < 1e-14
    assert out["J"] == 0.0


def test_energy_coercivity_small_error(gs1, grid_2048_64):
    g = grid_2048_64
    params = BubbleParams(lam=1.0, z=[14.0], gamma=0.0, v=[0.0])
    base = exact_two_bubble(params, gs1, g)
    rng = np.random.default_rng(3)
    noise = random_smooth_field(g, rng, envelope_scale=16.0)
    # remove the null directions around both bubbles
    basis = []
    for center, vel in ((7.0, 0.0), (-7.0, 0.0)):
        off = g.axis - center
        r = np.abs(off)
        basis += [gs1.q_at(r), off * gs1.q_at(r), 1j * lam_q(gs1, r),
                  1j * gs1.dq_at(r) * np.sign(off)]
    clean = project_out(noise, basis, g.cell_volume)
    u = nc.ComplexField(g, base.values + 1e-4 * clean)
    out = mf.energy_functional(u, params, 100.0, gs1)
    assert out["J"] == 0.0  # v = 0
    assert out["W"] >= 0.05 * out["eps_h1"] ** 2


def test_energy_quadratic_scaling(gs1, grid_2048_64):
    g = grid_2048_64
    params = BubbleParams(lam=1.0, z=[14.0], gamma=0.0, v=[0.002])
    base = exact_two_bubble(params, gs1, g)
    rng = np.random.default_rng(9)
    noise = random_smooth_field(g, rng, envelope_scale=16.0)
    ratios = []
    for t in (1e-2, 1e-3, 1e-4):
        u = nc.ComplexField(g, base.values + t * noise)
        ratios.append(mf.energy_functional(u, params, 50.0, gs1)["W"] / t ** 2)
    assert abs(ratios[1] / ratios[2] - 1.0) < 1e-2
    assert abs(ratios[0] / ratios[2] - 1.0) < 2e-1


@pytest.mark.parametrize("lam", [1.0, 0.97, 1.04])
def test_energy_eps_h1_is_renormalized_h1(gs1, grid_2048_64, lam):
    g = grid_2048_64
    params = BubbleParams(lam=lam, z=[14.0], gamma=0.4, v=[0.01])
    rng = np.random.default_rng(5)
    u = nc.ComplexField(g, exact_two_bubble(params, gs1, g).values
                        + 1e-3 * random_smooth_field(g, rng, envelope_scale=16.0))
    out = mf.energy_functional(u, params, 80.0, gs1)
    ref = renormalized_h1(lab_frame_error(u, params, gs1), lam, gs1.p)
    assert out["eps_h1"] == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert mf.error_h1(u, params, gs1) == out["eps_h1"]
    assert ref > 1e-4


@pytest.mark.parametrize("case", ["d1-tracking", "d1-snapshot", "d2-p2", "d2-p3"])
def test_jacobian_matches_central_differences(request, case):
    # the Jacobian moves every derivative of a test field onto u or bubble 2
    # by parts; it holds central differences (step 1e-5) of its own residual
    # to 1e-8 relative, measured 7e-10 at d = 1, 3e-10 at d = 2, p = 2 and
    # 6e-9 at d = 2, p = 3, L = 16, where |u| at the box edge is not negligible
    if case.startswith("d1"):
        gs, g = request.getfixturevalue("gs1"), request.getfixturevalue("grid_2048_64")
        true = BubbleParams(lam=1.01, z=[13.0], gamma=-0.4, v=[0.025])
        theta = np.array([1.03, 13.1, -0.35, 0.03])
    else:
        gs = request.getfixturevalue("gs2") if case == "d2-p3" else solve_profile(2.0, 2)
        g = nc.make_grid(2, 128, 16.0 if case == "d2-p3" else 24.0)
        true = BubbleParams(lam=1.0, z=[9.0, 0.3], gamma=0.4, v=[0.02, 0.01])
        theta = np.array([1.02, 9.05, 0.31, 0.42, 0.021, 0.011])
    u = exact_two_bubble(true, gs, g)
    bump = np.exp(-sum(x ** 2 for x in g.x_mesh) / 25.0) * (1.0 + 0.5j)
    u = nc.ComplexField(g, u.values + 1e-3 * bump)
    mode = "tracking" if case == "d1-tracking" else "snapshot"
    ws = mf._Workspace(u, gs, mode)
    if mode == "tracking":
        theta[-1:] = true.v         # held, not varied
    _, jac = ws.residual_jacobian(theta)
    step = 1e-5
    fd = np.empty_like(jac)
    for k in range(ws.n_eq):
        e = np.zeros(theta.size)
        e[k] = step
        fd[:, k] = (ws._residual(theta + e, ws.n_eq)[0]
                    - ws._residual(theta - e, ws.n_eq)[0]) / (2.0 * step)
    assert np.max(np.abs(jac - fd)) <= 1e-8 * np.max(np.abs(jac)), case
