import dataclasses
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.special import gamma as gamma_fn
from scipy.special import kv

from twobubble import ansatz as az
from twobubble import groundstate
from twobubble.errors import InvalidExponent, NonConvergence
from twobubble.groundstate import (GroundState, _decay_shape_deriv, closed_form_profile,
                                   closed_form_q0, decay_shape, solve_profile, sphere_area,
                                   structure_constants)

from oracles import (bisect_q0_reference, i_q_cartesian, interaction_weight, ode_residual,
                     profile_spline_reference, row_layout_profile, shoot_q0)

# frozen from the fixed-step RK4 oracle, h=1e-5, bracket width 1e-10
Q0_D2_P3_ORACLE = 2.206200864650


def test_closed_form_p3(gs1):
    assert abs(gs1.q0 - np.sqrt(2.0)) < 1e-10
    exact = closed_form_profile(3.0, gs1.r)
    assert np.max(np.abs(gs1.q - exact)) < 1e-8
    dq_exact = -np.sqrt(2.0) * np.tanh(gs1.r) / np.cosh(gs1.r)
    assert np.max(np.abs(gs1.dq - dq_exact)) < 1e-8
    # Petviashvili's iteration starts from the exact profile here, and
    # Newton stops after 2 steps at a residual of 1.4e-12
    assert 1 <= gs1.newton_iters <= 3
    assert gs1.residual < 1e-10


def test_decay_shape_d1_closed_form():
    # r^(1/2) K_(-1/2)(r) = sqrt(pi/2) e^(-r), and its derivative
    r = np.geomspace(0.5, 200.0, 400)
    bessel = np.sqrt(r) * kv(-0.5, r)
    bessel_deriv = 0.5 / np.sqrt(r) * kv(-0.5, r) \
        - 0.5 * np.sqrt(r) * (kv(-1.5, r) + kv(0.5, r))
    assert np.max(np.abs(decay_shape(1, r) / bessel - 1.0)) <= 1e-14
    assert np.max(np.abs(_decay_shape_deriv(1, r) / bessel_deriv - 1.0)) <= 1e-14


@pytest.mark.parametrize("d", [2])
def test_decay_shape_deriv_bessel_form(d):
    # K_0 and K_0' = -K_1 (Cephes' k0 and k1) against mpmath's besselk at 32
    # digits, from the core to where K_0 nears the smallest normal double:
    # measured 8.9e-16 and 3.3e-16 relative; kv(0/1, r) is up to 5.3e-14
    # off past r = 60 and reads 0 at r = 700
    r = np.geomspace(1e-3, 700.0, 150)
    with mpmath.workdps(32):
        k0 = np.array([float(mpmath.besselk(0, mpmath.mpf(x))) for x in r])
        k1 = np.array([float(mpmath.besselk(1, mpmath.mpf(x))) for x in r])
    assert np.max(np.abs(decay_shape(d, r) / k0 - 1.0)) <= 2e-15
    assert np.max(np.abs(_decay_shape_deriv(d, r) / -k1 - 1.0)) <= 2e-15


def test_closed_form_p2():
    gs = solve_profile(2.0, 1)
    assert abs(gs.q0 - 1.5) < 1e-10
    assert np.max(np.abs(gs.q - closed_form_profile(2.0, gs.r))) < 1e-8


@pytest.mark.parametrize("p", [1.2, 1.45, 1.8, 2.5, 4.0, 7.0])
def test_closed_form_generic_p(p):
    # r_max is 25 from p = 1.8 on and 20/(p-1) below, where the linear tail's
    # seam at 25 would cost accuracy (the profile was 1.4e-10 off at
    # p = 1.2); measured, q0 is within 1.9e-13 and q within 6.5e-13, both at
    # p = 1.2, and within 7.5e-14 at every other p
    gs = solve_profile(p, 1)
    assert gs.r_max == (25.0 if p >= 1.8 else pytest.approx(20.0 / (p - 1.0), rel=1e-15))
    assert abs(gs.q0 - closed_form_q0(p)) < 1e-12
    assert np.max(np.abs(gs.q - closed_form_profile(p, gs.r))) < 2e-12


def test_closed_form_start_does_not_overflow():
    # at d=1, p = 60 cosh overflows past r = 24.1 at the collocation nodes;
    # the start takes e^|x|/2 there, with no warning, and the profile meets
    # the closed form, whose far branch is the same formula (4.3e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gs = solve_profile(60.0, 1)
    assert np.max(np.abs(gs.q - closed_form_profile(60.0, gs.r))) < 1e-12


def test_d2_against_independent_oracle(gs2):
    assert abs(gs2.q0 - Q0_D2_P3_ORACLE) < 1e-3
    assert abs(gs2.q0 - Q0_D2_P3_ORACLE) < 1e-6  # observed agreement is far tighter
    # Newton stops after 4 steps at a residual of 2.6e-12
    assert 1 <= gs2.newton_iters <= 8
    assert gs2.residual < 1e-10


@pytest.mark.parametrize("p,d", [(3.0, 2)])
def test_solve_profile_matches_plain_bisection(gs2, p, d):
    # q0 against the earlier shooting: its plain bracket search and
    # bisection on solve_ivp's events; measured 2.4e-13 apart at d=2, p=3
    lo, hi, _ = bisect_q0_reference(p, d, 1e-10, gs2.r_max)
    assert abs(gs2.q0 - 0.5 * (lo + hi)) < 1e-12


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


@pytest.fixture(scope="module")
def profile(gs1, gs18, gs2):
    """solve_profile(p, d), solved once per module."""
    known = {(3.0, 1): gs1, (1.8, 1): gs18, (3.0, 2): gs2}

    def get(p, d):
        if (p, d) not in known:
            known[(p, d)] = solve_profile(p, d)
        return known[(p, d)]

    return get


def test_profile_matches_spline_oracle(any_gs):
    gs = any_gs
    q_ref, dq_ref = profile_spline_reference(gs)
    bound = 1e-14 * np.max(np.abs(gs.q))
    h = gs.r[1] - gs.r[0]
    n_cells = gs.r.size - 1
    # the spline's B-splines on the repeated end knots reach this many cells in
    edge_cells = 8
    end_cells = np.r_[0:edge_cells, n_cells - edge_cells:n_cells]
    radii = np.concatenate([
        np.random.default_rng(11).uniform(0.0, gs.r_max, 100_000),
        [0.0, gs.r_max],
        gs.r[end_cells], gs.r[end_cells] + 0.37 * h, gs.r[end_cells + 1] - 1e-9 * h,
        gs.r[edge_cells:edge_cells + 3] + 0.5 * h])
    for ours, ref in ((gs.q_at, q_ref), (gs.dq_at, dq_ref)):
        assert np.max(np.abs(ours(radii) - ref(radii))) <= bound
        for x in (0.0, 1.7, gs.r_max, gs.r[end_cells[-1]] + 0.5 * h, gs.r_max + 2.0):
            for arg in (x, np.float64(x), np.array(x)):
                val = ours(arg)
                assert val.shape == ()
                assert abs(val - ref(np.array([x]))[0]) <= bound


def test_cells_take_samples_and_equation_at_knots(any_gs):
    # each cell polynomial takes, at both of its ends, the samples and the
    # equation's q'' (and q''' for the q' field), so value, slope and
    # curvature agree across every knot: the m-th derivative to
    # 4 eps max|f| / h^m, the table's rounding magnified by 1/h^m (measured
    # below 2 eps max|f| / h^m); at d = 2 the knot r = 0 takes the limits
    # q''(0) = (q0 - q0^p)/2 and q'''(0) = 0
    gs = any_gs
    r, q, dq, p, d = gs.r, gs.q, gs.dq, gs.p, gs.d
    h = r[1] - r[0]
    d2q, d3q = np.empty_like(r), np.empty_like(r)
    d2q[1:] = q[1:] - q[1:] ** p - (d - 1.0) * dq[1:] / r[1:]
    d3q[1:] = (1.0 - p * q[1:] ** (p - 1.0)) * dq[1:] \
        - (d - 1.0) * (d2q[1:] - dq[1:] / r[1:]) / r[1:]
    d2q[0], d3q[0] = (q[0] - q[0] ** p) / d, 0.0
    k = np.arange(6.0)
    for col, samples in ((0, (q, dq, d2q)), (6, (dq, d2q, d3q))):
        c = gs._cells[:, col:col + 6]
        starts = (c[:, 0], c[:, 1] / h, 2.0 * c[:, 2] / h ** 2)
        ends = (c.sum(axis=1), c @ k / h, c @ (k * (k - 1.0)) / h ** 2)
        for m, (f, at_0, at_1) in enumerate(zip(samples, starts, ends)):
            bound = 4.0 * np.finfo(float).eps * np.max(np.abs(samples[0])) / h ** m
            assert np.max(np.abs(at_0 - f[:-1])) <= bound
            assert np.max(np.abs(at_1 - f[1:])) <= bound
            assert np.max(np.abs(at_1[:-1] - at_0[1:])) <= bound
    if d == 2:
        assert gs._cells[0, 2] == 0.5 * h ** 2 * (q[0] - q[0] ** p) / 2.0
        assert gs._cells[0, 6 + 2] == 0.0
        # the limits continue the equation's values off r = 0
        assert abs(d2q[1] - d2q[0]) < 1e-4 and abs(d3q[1]) < 1e-1


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


def test_joint_evaluator_matches_row_layout_oracle(any_gs):
    # the one-table evaluator (one gather per radius, both polynomials on
    # every radius, the tail over those past r_max) equals the earlier
    # row-layout one value for value, through q_at, dq_at and q_dq_at alike
    gs = any_gs
    q_ref, dq_ref = row_layout_profile(gs)
    # below r = 0 cell 0 is extrapolated: -1.2 h needs the lower clamp of j
    h = gs.r[1] - gs.r[0]
    edge = [gs.r_max, np.nextafter(gs.r_max, 0.0), np.nextafter(gs.r_max, np.inf), -1e-4,
            -0.4 * h, -1.2 * h]
    # 70_006 radii: chunks all inside, mixed and all beyond r_max
    sorted_r = np.sort(np.concatenate([np.linspace(0.0, gs.r_max + 15.0, 70_000), edge]))
    shuffled = np.random.default_rng(17).permutation(sorted_r)
    inputs = [sorted_r, shuffled, shuffled[:40_000].reshape(200, 200).T,
              np.empty(0), np.empty((0, 3))] + [np.array(x) for x in edge + [1.7, 40.0]]
    for rr in inputs:
        q, dq = gs.q_dq_at(rr)
        expect = q_ref(rr), dq_ref(rr)
        for ours, ref in ((q, expect[0]), (dq, expect[1]),
                          (gs.q_at(rr), expect[0]), (gs.dq_at(rr), expect[1])):
            assert ours.shape == rr.shape
            assert np.array_equal(ours, ref)


def test_non_finite_radii(gs1, gs2):
    # a NaN radius reads NaN and +inf reads 0, q and q' alike, through every
    # evaluator, alone or among finite radii: the Horner pass reads the last
    # cell at both, and the tail overwrites each radius not <= r_max
    for gs in (gs1, gs2):
        rr = np.array([np.nan, 1.0, np.inf, gs.r_max + 1.0])
        q, dq = gs.q_dq_at(rr)
        ref_q, ref_dq = gs.q_dq_at(rr[[1, 3]])
        for ours, ref in ((q, ref_q), (dq, ref_dq), (gs.q_at(rr), ref_q),
                          (gs.dq_at(rr), ref_dq)):
            assert np.isnan(ours[0]) and ours[2] == 0.0
            assert np.array_equal(ours[[1, 3]], ref)
        for f in (gs.q_at, gs.dq_at):
            assert np.isnan(f(np.nan)) and f(np.inf) == 0.0
        # -inf and -1e300 read finite values, with no invalid cast to a cell
        # index: every radius below -2h reads the first cell at t = -2, as
        # r = -2h does
        h = gs._cell_width
        low = np.array([-np.inf, 1.0, -1e300, -2.0 * h])
        q, dq = gs.q_dq_at(low)
        assert np.all(np.isfinite(q)) and np.all(np.isfinite(dq))
        for ours in (q, dq):
            assert ours[0] == ours[2] == ours[3]
        assert (q[1], dq[1]) == (ref_q[0], ref_dq[0])


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


def test_asymptotic_constant_p3(sc1):
    # c_q from the Green identity against the tail 2 sqrt(2) e^(-r) of
    # sqrt(2) sech(r); measured 1.2e-13 relative
    assert abs(sc1.c_q / (2.0 * np.sqrt(2.0)) - 1.0) < 1e-12


@pytest.mark.parametrize("p", [2.0, 1.8, 1.45, 9.0, 15.0])
def test_c_q_green_identity_d1_closed_form(p, profile):
    # c_q from I_Q against the tail q0 2^(2/(p-1)) e^(-r) of the sech^(2/(p-1))
    # profile; measured 6.8e-14, 2.5e-14, 1.9e-13, 5.6e-14 and 1.4e-13.  At
    # p = 1.45 the former tail fit raised on its residual; the identity needs
    # none.  At p = 9 and 15 the former Cartesian I_Q rule failed its own
    # 8/12-node check.
    rel = {2.0: 2e-13, 1.8: 1e-13, 1.45: 1e-12, 9.0: 2e-13, 15.0: 4e-13}[p]
    sc = structure_constants(profile(p, 1))
    assert abs(sc.c_q / (closed_form_q0(p) * 2.0 ** (2.0 / (p - 1.0))) - 1.0) < rel


def test_tail_remainder_bound(gs1, sc1):
    # |q - c_Q r^(-(d-1)/2) e^(-r)| <= K r^(-(d-1)/2-1) e^(-r) on [10, 20]
    rr = np.linspace(10.0, 20.0, 200)
    model = sc1.c_q * rr ** (-0.5 * (gs1.d - 1)) * np.exp(-rr)
    rem = np.abs(gs1.q_at(rr) - model) * rr ** (0.5 * (gs1.d - 1) + 1) * np.exp(rr)
    assert np.max(rem) < 10.0


def test_structure_constants_p3_d1(gs1, sc1):
    assert abs(sc1.c2 - 2.0) < 1e-8
    assert abs(sc1.c1 - 2.0) < 1e-8
    assert abs(sc1.i_q - 4.0 * np.sqrt(2.0)) < 1e-6
    assert abs(sc1.c - 16.0) < 1e-9
    assert sc1.c > 0 and sc1.c2 > 0


def test_c_p2_d1(profile):
    # C_p = c_q I_Q = 36 and c2 = 3 for the closed-form p = 2 profile
    assert abs(structure_constants(profile(2.0, 1)).c / 48.0 - 1.0) < 1e-9


def _radial(gs, values):
    return sphere_area(gs.d) * simpson(values * gs.r ** (gs.d - 1), x=gs.r)


def test_c2_half_mass_identity(gs1, gs2):
    # c2 = ||Q||^2 / 2 against the pairing <-y_j Q, d_j Q> = -(1/d) int r q q'
    for gs in (gs1, gs2):
        direct = -_radial(gs, gs.r * gs.q * gs.dq) / gs.d
        assert abs(structure_constants(gs).c2 / direct - 1.0) < 1e-8


def test_c1_scaling_identity(gs2):
    # c1 = (2/(p-1) - d/2) ||Q||^2 against the pairing <Lambda Q, Q>
    gs = solve_profile(2.2, 2)
    sc = structure_constants(gs)
    direct = _radial(gs, (2.0 / (gs.p - 1.0) * gs.q + gs.r * gs.dq) * gs.q)
    assert abs(sc.c1 / direct - 1.0) < 1e-8
    assert sc.c1 > 0  # sub-critical
    # the mass-critical case degenerates, exactly in the identity
    assert structure_constants(gs2).c1 == 0.0
    assert abs(_radial(gs2, (gs2.q + gs2.r * gs2.dq) * gs2.q)) < 1e-8


@pytest.mark.parametrize("key", [(1.45, 1), (1.8, 1), (2.0, 1), (3.0, 1), (5.0, 1), (7.0, 1),
                                 (1.45, 2), (2.0, 2), (3.0, 2), (5.0, 2)], ids=str)
def test_norms_on_the_radial_rule(key, profile):
    # ||Q||^2 from the radial rule: at d = 1 against the closed form
    # q0^2 a sqrt(pi) Gamma(a) / Gamma(a + 1/2), a = 2/(p-1), measured
    # <= 1.02e-13 relative, the profile's own error; at d = 2 against adaptive
    # quadrature of the same reduction, measured <= 3.3e-16, where Simpson on
    # the mesh was 1.7e-13 off at p = 3 and 1.6e-12 at p = 5.  ||d_j Q||^2 by
    # the identity ``remove_translation_projections`` takes, against
    # quadrature of q'^2: measured <= 8.2e-14 at d = 1 and 5.3e-14 at d = 2.
    # Each bound is 2 to 6 times its measurement
    p, d = key
    gs = profile(p, d)
    l2 = structure_constants(gs).l2
    cut = groundstate.FORCE_CUT / min(p - 1.0, 2.0)
    breaks = sorted({0.0, min(gs.r_max, cut), max(gs.r_max, cut)})

    def squared(f):
        parts = [quad(lambda r: sphere_area(d) * r ** (d - 1) * f(r) ** 2, a, b,
                      epsabs=0.0, epsrel=1e-13, limit=400)
                 for a, b in zip(breaks[:-1], breaks[1:])]
        val = sum(v for v, _ in parts)
        assert sum(e for _, e in parts) < 1e-13 * val
        return val

    if d == 1:
        a = 2.0 / (p - 1.0)
        exact = closed_form_q0(p) ** 2 * a * np.sqrt(np.pi) * gamma_fn(a) / gamma_fn(a + 0.5)
        assert abs(l2 / exact - 1.0) < 2e-13
    else:
        assert abs(l2 / squared(gs.q_at) - 1.0) < 2e-15
    grad_sq = l2 * (p - 1.0) / (2.0 * (p + 1.0) - d * (p - 1.0))
    assert abs(d * grad_sq / squared(gs.dq_at) - 1.0) < 2e-13


@pytest.mark.slow
def test_c_p_d2_against_force_rule(gs2):
    # H(z) sqrt|z| e^|z| = C_p (1 + a/|z| + b/|z|^2 + ...): extrapolated from
    # the rule on |z| in [15, 40] with 3 and 4 terms it meets the identity's C_p
    # to 1.3e-5 at p = 3 (the former tail fit was 1.8e-4 low); 11 rule calls
    # take about 3 s on a 2-core host
    c_p = structure_constants(gs2).c_p
    z = np.linspace(15.0, 40.0, 11)
    scaled = np.array([az.interaction_force_H([x, 0.0], gs2)[0] for x in z]) \
        * np.sqrt(z) * np.exp(z)
    for terms in (3, 4):
        basis = np.column_stack([z ** -k for k in range(terms)])
        extrapolated = np.linalg.lstsq(basis, scaled, rcond=None)[0][0]
        assert abs(extrapolated / c_p - 1.0) < 3e-5


def test_i_q_d2_against_radial_reduction(gs1, gs2, profile):
    # adaptive quadrature of the same reduction, with the angular average of
    # the weight a Bessel factor in d = 2 and 2 cosh r in d = 1, up to r_max
    # (past the rule's cut 40/(p-1) the integrand is below e^-40 of I_Q);
    # measured <= 4.0e-16 relative at d = 2, p = 3, 5 and 7, and 0 at d = 1
    for gs in (gs2, profile(5.0, 2), profile(7.0, 2), gs1):
        sc = structure_constants(gs)
        val, err = quad(lambda r: gs.q_at(r) ** gs.p * interaction_weight(gs.d, r),
                        0.0, gs.r_max, epsabs=0.0, epsrel=1e-13, limit=400)
        assert err < 1e-13 * abs(val)
        assert abs(sc.i_q - val) < 2e-15 * abs(val), (gs.p, gs.d)


@pytest.mark.parametrize("key", [(1.45, 1), (1.8, 1), (3.0, 1), (2.0, 2), (3.0, 2)], ids=str)
def test_i_q_radial_against_cartesian_rule(key, profile):
    # the radial rule against the former Cartesian rule over y1 and y2, 12
    # nodes per panel, and against adaptive quadrature of the reduction up to
    # the cut, split at r_max: measured <= 2.2e-16 and <= 4.4e-16 relative
    gs = profile(*key)
    i_q = structure_constants(gs).i_q
    assert abs(i_q / i_q_cartesian(gs, 12) - 1.0) < 2e-15
    cut = groundstate.FORCE_CUT / (gs.p - 1.0)
    breaks = sorted({0.0, min(gs.r_max, cut), cut})
    parts = [quad(lambda r: gs.q_at(r) ** gs.p * interaction_weight(gs.d, r), a, b,
                  epsabs=0.0, epsrel=1e-13, limit=400) for a, b in zip(breaks[:-1], breaks[1:])]
    val = sum(v for v, _ in parts)
    assert sum(e for _, e in parts) < 1e-13 * val
    assert abs(i_q / val - 1.0) < 2e-15


def test_i_q_rule_radii_follow_p(monkeypatch):
    # the radial rule evaluates the profile on one axis: at d = 2, p = 1.3
    # (r_max 66.7) at 5360 radii, where the Cartesian rule, whose grid grew
    # like r_max^2, took 1.7e7
    gs = solve_profile(1.3, 2)
    sizes = []
    evaluate = GroundState.q_dq_at

    def counting(self, rr):
        sizes.append(np.size(rr))
        return evaluate(self, rr)

    monkeypatch.setattr(GroundState, "q_dq_at", counting)
    structure_constants(gs)
    assert 0 < sum(sizes) < 10_000


def test_i_q_includes_tail_past_r_max(gs18):
    # the radial rule runs past r_max, to 40/(p-1), on the matched tail
    # q = a e^(-r), so the oracle adds that tail's closed-form integral (7e-9
    # of I_Q at p = 1.8)
    for gs in (gs18, solve_profile(2.0, 1)):
        p, R = gs.p, gs.r_max
        val, err = quad(lambda r: gs.q_at(r) ** p * interaction_weight(1, r),
                        0.0, R, epsabs=0.0, epsrel=1e-13, limit=400)
        a = gs.tail_amplitude * decay_shape(1, 0.0)
        tail = a ** p * (np.exp(-(p - 1.0) * R) / (p - 1.0) + np.exp(-(p + 1.0) * R) / (p + 1.0))
        assert err < 1e-13 * val
        assert abs(structure_constants(gs).i_q / (val + tail) - 1.0) < 1e-12


@pytest.mark.parametrize("key", [(3.0, 1), (2.0, 1), (1.8, 1), (1.45, 1), (2.0, 2), (3.0, 2)],
                         ids=str)
def test_profile_meets_tail_at_r_max(key, profile):
    # the stored amplitude is q(r_max) / decay_shape and the last q' sample
    # is the Robin condition's, so the spline's end is the tail: q and q' at
    # r_max (the last cell at t = 1) and just beyond it
    gs = profile(*key)
    r_max, past = gs.r_max, np.nextafter(gs.r_max, np.inf)
    for at, tail in ((gs.q_at, decay_shape), (gs.dq_at, _decay_shape_deriv)):
        expect = gs.tail_amplitude * tail(gs.d, r_max)
        assert abs(at(r_max) / expect - 1.0) <= 1e-14
        assert abs(at(past) / expect - 1.0) <= 1e-14


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


def test_collocation_p_range_limit():
    # the rounding floor of the collocation grows like 2^(2/(p-1)) and its
    # r_max like 20/(p-1): at p = 1.1 the last Newton step stalls at 3.1e-10
    # (d=1) and 3.3e-10 (d=2), above tol, within milliseconds
    for d in (1, 2):
        with pytest.raises(NonConvergence, match=f"p=1.1, d={d}"):
            solve_profile(1.1, d)


def test_bad_tolerance():
    with pytest.raises(NonConvergence):
        solve_profile(3.0, 1, tol=-1.0)


def _no_solve(*args, **kwargs):
    raise AssertionError("the collocation ran")


def test_bad_arguments_rejected_before_any_shot(monkeypatch):
    # tol = nan used to run 203 shots and return another q0; it is now
    # rejected before the Newton collocation runs, as is a d other than 1
    # or 2
    monkeypatch.setattr(groundstate, "_newton_collocation", _no_solve)
    for tol in (np.nan, np.inf):
        with pytest.raises(NonConvergence, match="tol must be finite and positive"):
            solve_profile(3.0, 1, tol=tol)
    for d in (0, 3, 1.5):
        with pytest.raises(InvalidExponent, match="dimension must be 1 or 2"):
            solve_profile(3.0, d)


def test_groundstate_immutable(gs1):
    with pytest.raises(Exception):
        gs1.q0 = 2.0
    assert isinstance(gs1, GroundState)
