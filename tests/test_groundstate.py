import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.interpolate import BSpline
from scipy.special import kv

from twobubble.errors import InvalidExponent, NonConvergence, WindowTooNoisy
from twobubble.groundstate import (_CARDINAL_QUINTIC, _EDGE_CELLS, GroundState,
                                   _decay_shape_deriv, asymptotic_constant,
                                   closed_form_profile, closed_form_q0,
                                   decay_shape, ode_residual, solve_profile, sphere_area,
                                   structure_constants)

from oracles import interaction_weight, profile_spline_reference, shoot_q0

# frozen from the fixed-step RK4 oracle, h=1e-5, bracket width 1e-10
Q0_D2_P3_ORACLE = 2.206200864650


def test_closed_form_p3(gs1):
    assert abs(gs1.q0 - np.sqrt(2.0)) < 1e-10
    exact = closed_form_profile(3.0, gs1.r)
    assert np.max(np.abs(gs1.q - exact)) < 1e-8
    dq_exact = -np.sqrt(2.0) * np.tanh(gs1.r) / np.cosh(gs1.r)
    assert np.max(np.abs(gs1.dq - dq_exact)) < 1e-8


def test_decay_shape_d1_closed_form():
    # r^(1/2) K_(-1/2)(r) = sqrt(pi/2) e^(-r), and its derivative
    r = np.geomspace(0.5, 200.0, 400)
    bessel = np.sqrt(r) * kv(-0.5, r)
    bessel_deriv = 0.5 / np.sqrt(r) * kv(-0.5, r) \
        - 0.5 * np.sqrt(r) * (kv(-1.5, r) + kv(0.5, r))
    assert np.max(np.abs(decay_shape(1, r) / bessel - 1.0)) <= 1e-14
    assert np.max(np.abs(_decay_shape_deriv(1, r) / bessel_deriv - 1.0)) <= 1e-14


def test_closed_form_p2():
    gs = solve_profile(2.0, 1)
    assert abs(gs.q0 - 1.5) < 1e-10
    assert np.max(np.abs(gs.q - closed_form_profile(2.0, gs.r))) < 1e-8


@pytest.mark.parametrize("p", [1.8, 2.5, 4.0])
def test_closed_form_generic_p(p):
    gs = solve_profile(p, 1)
    assert abs(gs.q0 - closed_form_q0(p)) < 1e-9
    assert np.max(np.abs(gs.q - closed_form_profile(p, gs.r))) < 1e-8


def test_d2_against_independent_oracle(gs2):
    assert abs(gs2.q0 - Q0_D2_P3_ORACLE) < 1e-3
    assert abs(gs2.q0 - Q0_D2_P3_ORACLE) < 1e-6  # observed agreement is far tighter


def test_oracle_self_consistency():
    # the coarse in-test oracle must agree with the frozen high-resolution value
    coarse = shoot_q0(3.0, 2, h=1e-3, bracket_width=1e-8)
    assert abs(coarse - Q0_D2_P3_ORACLE) < 1e-6


def test_profile_monotone_positive(gs1, gs2):
    for gs in (gs1, gs2):
        assert np.all(gs.q > 0)
        assert np.all(np.diff(gs.q) < 0)
        assert abs(gs.dq[0]) < 1e-12


@pytest.fixture(scope="module", params=[(3.0, 1), (1.8, 1), (3.0, 2)], ids=str)
def any_gs(request, gs1, gs18, gs2):
    return {(3.0, 1): gs1, (1.8, 1): gs18, (3.0, 2): gs2}[request.param]


def test_cardinal_matrix_is_the_quintic_bspline():
    # column l is the piece of the B-spline with knots l-5 .. l+1 on [0, 1]
    t = np.linspace(0.0, 1.0, 17)
    bspline = BSpline.basis_element(np.arange(7.0), extrapolate=False)
    powers = t[:, None] ** np.arange(6)
    for l in range(6):
        assert np.max(np.abs(powers @ _CARDINAL_QUINTIC[:, l] - bspline(t + 5 - l))) < 1e-15


def test_profile_matches_spline_oracle(any_gs):
    gs = any_gs
    q_ref, dq_ref = profile_spline_reference(gs)
    bound = 1e-14 * np.max(np.abs(gs.q))
    h = gs.r[1] - gs.r[0]
    n_cells = gs.r.size - 1
    end_cells = np.r_[0:_EDGE_CELLS, n_cells - _EDGE_CELLS:n_cells]
    radii = np.concatenate([
        np.random.default_rng(11).uniform(0.0, gs.r_max, 100_000),
        [0.0, gs.r_max, -0.4 * h, -1.2 * h],
        gs.r[end_cells], gs.r[end_cells] + 0.37 * h, gs.r[end_cells + 1] - 1e-9 * h,
        gs.r[_EDGE_CELLS:_EDGE_CELLS + 3] + 0.5 * h])
    for ours, ref in ((gs.q_at, q_ref), (gs.dq_at, dq_ref)):
        assert np.max(np.abs(ours(radii) - ref(radii))) <= bound
        for x in (0.0, 1.7, gs.r_max, gs.r[end_cells[-1]] + 0.5 * h, gs.r_max + 2.0):
            for arg in (x, np.float64(x), np.array(x)):
                val = ours(arg)
                assert val.shape == ()
                assert abs(val - ref(np.array([x]))[0]) <= bound


def test_profile_shuffled_is_permuted_sorted(gs1):
    sorted_r = np.linspace(0.0, gs1.r_max + 3.0, 50_001)
    perm = np.random.default_rng(5).permutation(sorted_r.size)
    for f in (gs1.q_at, gs1.dq_at):
        assert np.array_equal(f(sorted_r[perm]), f(sorted_r)[perm])
        # a scalar call and an array call run the same operations
        assert f(sorted_r[123]) == f(sorted_r[:200])[123]
    grid = sorted_r[:40_000].reshape(200, 200)
    assert np.array_equal(gs1.q_at(grid), gs1.q_at(grid.ravel()).reshape(200, 200))
    assert np.array_equal(gs1.q_at(grid.T), gs1.q_at(grid).T)


def test_ode_residual_small(gs1, gs2):
    assert np.max(np.abs(ode_residual(gs1))) < 1e-6
    assert np.max(np.abs(ode_residual(gs2))) < 1e-6


def test_ode_residual_sees_the_core(gs1):
    # a bump in the core samples of q breaks the equation at r = 0 too
    bump = 1e-5 * np.clip(1.0 - (gs1.r / 0.5) ** 2, 0.0, None) ** 2
    bent = dataclasses.replace(gs1, q=gs1.q + bump)
    assert abs(ode_residual(gs1)[0]) < 1e-6
    assert abs(ode_residual(bent)[0]) > 1e-6


def test_pohozaev_weak_residuals(gs1):
    res = ode_residual(gs1)
    w = gs1.r ** (gs1.d - 1)
    against_q = sphere_area(gs1.d) * simpson(res * gs1.q * w, x=gs1.r)
    lam_q = 2.0 / (gs1.p - 1.0) * gs1.q + gs1.r * gs1.dq
    against_lamq = sphere_area(gs1.d) * simpson(res * lam_q * w, x=gs1.r)
    assert abs(against_q) < 1e-9
    assert abs(against_lamq) < 1e-8


def test_asymptotic_constant_p3(gs1):
    c_q, resid = asymptotic_constant(gs1)
    assert abs(c_q - 2.0 * np.sqrt(2.0)) < 1e-6
    assert resid < 1e-4  # fitted model reproduces the window data


def test_asymptotic_constant_p2():
    gs = solve_profile(2.0, 1)
    c_q, _ = asymptotic_constant(gs)
    assert abs(c_q - 6.0) < 1e-4


def test_tail_remainder_bound(gs1):
    # |q - c_Q r^(-(d-1)/2) e^(-r)| <= K r^(-(d-1)/2-1) e^(-r) on the window
    c_q, _ = asymptotic_constant(gs1)
    rr = np.linspace(10.0, 20.0, 200)
    model = c_q * rr ** (-0.5 * (gs1.d - 1)) * np.exp(-rr)
    rem = np.abs(gs1.q_at(rr) - model) * rr ** (0.5 * (gs1.d - 1) + 1) * np.exp(rr)
    assert np.max(rem) < 10.0


def test_structure_constants_p3_d1(gs1, sc1):
    assert abs(sc1.c2 - 2.0) < 1e-8
    assert abs(sc1.c1 - 2.0) < 1e-8
    assert abs(sc1.i_q - 4.0 * np.sqrt(2.0)) < 1e-6
    assert abs(sc1.c - 16.0) < 1e-4
    assert sc1.c > 0 and sc1.c2 > 0


def test_c2_half_mass_identity(gs1, gs2):
    for gs in (gs1, gs2):
        sc = structure_constants(gs)
        assert abs(sc.c2 / (0.5 * sc.l2) - 1.0) < 1e-8


def test_c1_scaling_identity(gs2):
    gs = solve_profile(2.2, 2)
    sc = structure_constants(gs)
    expected = (2.0 / (gs.p - 1.0) - gs.d / 2.0) * sc.l2
    assert abs(sc.c1 - expected) < 1e-8 * abs(expected)
    assert sc.c1 > 0  # sub-critical
    # critical case degenerates
    sc2 = structure_constants(gs2)
    assert abs(sc2.c1) < 1e-8


def test_i_q_d2_against_radial_reduction(gs1, gs2):
    # independent oracle: angular average reduces the weight to a Bessel factor
    # in d = 2 and to 2 cosh r in d = 1; each input has its own tolerance
    for gs, rel in ((gs2, 1e-7), (gs1, 1e-12)):
        sc = structure_constants(gs)
        val, err = quad(lambda r: gs.q_at(r) ** gs.p * interaction_weight(gs.d, r),
                        0.0, gs.r_max, epsabs=0.0, epsrel=1e-13, limit=400)
        assert err < min(1e-8, 0.1 * rel * abs(val))
        assert abs(sc.i_q - val) < rel * abs(val)


def test_i_q_includes_tail_past_r_max(gs18):
    # the rule's e1 axis runs past r_max on the matched tail q = a e^(-r), so
    # the oracle adds that tail's closed-form integral (7e-9 of I_Q at p = 1.8)
    for gs in (gs18, solve_profile(2.0, 1)):
        p, R = gs.p, gs.r_max
        val, err = quad(lambda r: gs.q_at(r) ** p * interaction_weight(1, r),
                        0.0, R, epsabs=0.0, epsrel=1e-13, limit=400)
        a = gs.tail_amplitude * decay_shape(1, 0.0)
        tail = a ** p * (np.exp(-(p - 1.0) * R) / (p - 1.0) + np.exp(-(p + 1.0) * R) / (p + 1.0))
        assert err < 1e-13 * val
        assert abs(structure_constants(gs).i_q / (val + tail) - 1.0) < 1e-12


def test_tail_matches_decay_shape(gs1):
    # beyond r_max the profile continues with the matched linear tail
    rr = np.array([gs1.r_max + 0.5, gs1.r_max + 3.0])
    expect = gs1.tail_amplitude * decay_shape(gs1.d, rr)
    assert np.allclose(gs1.q_at(rr), expect, rtol=1e-12)


def test_invalid_exponent():
    with pytest.raises(InvalidExponent):
        solve_profile(1.0, 1)
    with pytest.raises(InvalidExponent):
        solve_profile(0.5, 1)
    with pytest.raises(InvalidExponent):
        solve_profile(6.0, 3)  # above (d+2)/(d-2) = 5


def test_bad_tolerance():
    with pytest.raises(NonConvergence):
        solve_profile(3.0, 1, tol=-1.0)


def test_window_too_noisy(gs1):
    with pytest.raises(WindowTooNoisy):
        asymptotic_constant(gs1, window=(20.0, 30.0))  # beyond r_max


def test_groundstate_immutable(gs1):
    with pytest.raises(Exception):
        gs1.q0 = 2.0
    assert isinstance(gs1, GroundState)
