import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

import oracles
from oracles import integrate_reduced_reference, linearized_growth, linearized_instability
from twobubble import reduced_dynamics as rd
from twobubble.ansatz import FORCE_LAW_DOMAIN
from twobubble.errors import CollisionDetected, StepFailure


def marginal_state(s0, c):
    return rd.ReducedState(s=s0, lam=1.0, z=[2.0 * np.log(s0) + np.log(c)],
                           gamma=0.0, v=[1.0 / s0])


def test_exact_orbit_asymptotic(gs1, sc1):
    # z = 2 log s + log c, v = 1/s solves the asymptotic-force system exactly
    c = 16.0
    tr = rd.integrate_reduced(marginal_state(10.0, c), 1e4, gs1,
                              dataclasses.replace(sc1, c=c), tol=1e-12, mode="asymptotic")
    assert np.max(np.abs(tr.z[:, 0] - 2.0 * np.log(tr.s) - np.log(c))) < 1e-6
    assert np.max(np.abs(tr.v[:, 0] * tr.s - 1.0)) < 1e-6
    assert np.all(np.diff(tr.s) > 0)
    assert np.all(tr.lam == 1.0)


def test_quadrature_mode_agreement(gs1, sc1):
    st = marginal_state(10.0, 16.0)
    trq = rd.integrate_reduced(st, 80.0, gs1, sc1, tol=1e-9,
                               mode="quadrature", n_samples=30)
    tra = rd.integrate_reduced(st, 80.0, gs1, sc1, tol=1e-12,
                               mode="asymptotic", n_samples=30)
    rel = np.abs(trq.v[:, 0] - tra.v[:, 0]) / np.abs(tra.v[:, 0])
    assert np.all(rel <= 10.0 / np.abs(tra.z[:, 0]))


def test_backward_perturbation_collides(gs1, sc1):
    # shaving the marginal velocity makes the backward orbit collapse
    st = rd.ReducedState(s=10.0, lam=1.0, z=[2.0 * np.log(10.0) + np.log(16.0)],
                         gamma=0.0, v=[0.1 - 1e-3])
    with pytest.raises(CollisionDetected):
        rd.integrate_reduced(st, 1.0, gs1, dataclasses.replace(sc1, c=16.0), tol=1e-10,
                             mode="asymptotic")


def test_free_phase_rotation(gs1, sc1):
    # huge separation: force negligible, z frozen, gamma linear
    st = rd.ReducedState(s=10.0, lam=1.0, z=[40.0], gamma=0.25, v=[0.0])
    tr = rd.integrate_reduced(st, 60.0, gs1, sc1, tol=1e-12, mode="asymptotic")
    assert np.max(np.abs(tr.z[:, 0] - 40.0)) < 1e-12
    assert np.max(np.abs(tr.gamma - 0.25 - (tr.s - 10.0))) < 1e-10


def test_time_reversibility(gs1, sc1):
    tol = 1e-12
    st = marginal_state(10.0, 16.0)
    fwd = rd.integrate_reduced(st, 100.0, gs1, sc1, tol=tol, mode="asymptotic")
    back = rd.integrate_reduced(fwd.state(-1), 10.0, gs1, sc1, tol=tol,
                                mode="asymptotic")
    assert abs(back.z[-1, 0] - st.z[0]) < 10.0 * 1e-8
    assert abs(back.v[-1, 0] - st.v[0]) < 10.0 * 1e-8


def test_collision_guard_on_start(gs1, sc1):
    st = rd.ReducedState(s=10.0, lam=1.0, z=[4.0], gamma=0.0, v=[0.1])
    with pytest.raises(CollisionDetected):
        rd.integrate_reduced(st, 20.0, gs1, sc1)


def test_quadrature_rhs_is_textbook(gs1, sc1):
    # the benchmark's force orbit: the lean right-hand side must take the same
    # steps, to the bit, as the system written out with numpy arrays
    st = marginal_state(15.0, sc1.c)
    tol, s_eval = 1e-9, np.linspace(15.0, 19.0, 30)
    tr = rd.integrate_reduced(st, 19.0, gs1, sc1, tol=tol, mode="quadrature", n_samples=30)

    def rhs(s, y):
        z, v = y[1:2], y[3:]
        zlen = np.linalg.norm(z)
        vdot = -(2.0 / sc1.c2) * gs1.force_law(zlen) * (z / zlen)
        return np.concatenate([[0.0], 2.0 * v, [1.0 + 0.25 * (v @ v)], vdot])

    y0 = np.concatenate([[st.lam], st.z, [st.gamma], st.v])
    ref = solve_ivp(rhs, (15.0, 19.0), y0, method="DOP853", rtol=tol, atol=1e-13,
                    t_eval=s_eval, max_step=1.0)
    assert np.array_equal(tr.s, ref.t)
    assert np.array_equal(tr.z[:, 0], ref.y[1])
    assert np.array_equal(tr.gamma, ref.y[2])
    assert np.array_equal(tr.v[:, 0], ref.y[3])


def _reduced_case(name, gs1, sc1, gs2):
    """(state, s_end, gs, constants, tol, mode, n_samples) of one oracle case."""
    if name == "forward-d1":
        return marginal_state(15.0, sc1.c), 19.0, gs1, sc1, 1e-9, "quadrature", 30
    if name == "forward-d2":
        st = rd.ReducedState(s=20.0, lam=1.0, z=[8.0, 1.5], gamma=0.3, v=[0.05, -0.01])
        return st, 26.0, gs2, dataclasses.replace(sc1, c=21.2), 1e-10, "asymptotic", 40
    if name == "predictor":
        st = rd.ReducedState(s=120.0, lam=1.02, z=[2.0 * np.log(120.0) + np.log(sc1.c)],
                             gamma=-3.1, v=[1.0 / 120.0])
        return st, 119.5, gs1, sc1, 1e-11, "quadrature", 2
    if name == "asymptotic":
        return marginal_state(10.0, 16.0), 80.0, gs1, sc1, 1e-12, "asymptotic", 50
    raise ValueError(name)


@pytest.mark.parametrize("name", ["forward-d1", "forward-d2", "predictor", "asymptotic"])
def test_integrate_reduced_matches_solve_ivp(name, gs1, sc1, gs2):
    # the bare stepper takes solve_ivp's steps and samples, to the bit
    st, s_end, gs, sc, tol, mode, n = _reduced_case(name, gs1, sc1, gs2)
    tr = rd.integrate_reduced(st, s_end, gs, sc, tol=tol, mode=mode, n_samples=n)
    s_ref, y_ref = integrate_reduced_reference(st, s_end, gs, sc, tol, mode, n)
    d = st.d
    assert np.array_equal(tr.s, s_ref)
    assert np.array_equal(tr.lam, y_ref[0])
    assert np.array_equal(tr.z, y_ref[1:1 + d].T)
    assert np.array_equal(tr.gamma, y_ref[1 + d])
    assert np.array_equal(tr.v, y_ref[2 + d:].T)


def test_quadrature_collision_matches_solve_ivp(gs1, sc1, monkeypatch):
    # a backward orbit shaved below the marginal velocity collides under the
    # quadrature law; no stage may ask the law for |z| below its domain
    st = rd.ReducedState(s=10.0, lam=1.0, z=[2.0 * np.log(10.0) + np.log(sc1.c)],
                         gamma=0.0, v=[0.1 - 1e-3])
    law, asked = gs1.force_law, []

    def spy(zlen):
        asked.append(zlen)
        return law(zlen)

    monkeypatch.setitem(gs1.__dict__, "force_law", spy)
    with pytest.raises(CollisionDetected) as ref:
        integrate_reduced_reference(st, 1.0, gs1, sc1, 1e-10, "quadrature", 400)
    asked.clear()
    with pytest.raises(CollisionDetected) as err:
        rd.integrate_reduced(st, 1.0, gs1, sc1, tol=1e-10, mode="quadrature")
    assert str(err.value) == str(ref.value)
    assert min(asked) >= FORCE_LAW_DOMAIN[0]


def test_non_finite_state(gs1, sc1):
    for z, v in (([np.nan], [0.1]), ([np.inf], [0.1]), ([10.0], [np.nan])):
        st = rd.ReducedState(s=10.0, lam=1.0, z=z, gamma=0.0, v=v)
        with pytest.raises(StepFailure, match="non-finite"):
            rd.integrate_reduced(st, 20.0, gs1, sc1, mode="quadrature")


def _no_integration(*args, **kwargs):
    raise AssertionError("an integration ran")


def test_bad_tolerance_rejected_before_integrating(gs1, sc1, monkeypatch):
    # a NaN tol used to hang the toy run and end the full one in a misleading
    # QuadratureFailure, a negative one in scipy's raw ValueError
    monkeypatch.setattr(rd, "solve_ivp", _no_integration)
    monkeypatch.setattr(oracles, "solve_ivp", _no_integration)
    monkeypatch.setattr(rd, "DOP853", _no_integration)
    st = marginal_state(10.0, 16.0)
    for tol in (np.nan, np.inf, 0.0, -1.0):
        for mode in ("quadrature", "asymptotic"):
            with pytest.raises(StepFailure, match="tol must be finite and positive"):
                rd.integrate_reduced(st, 20.0, gs1, sc1, tol=tol, mode=mode)
        with pytest.raises(StepFailure, match="tol must be finite and positive"):
            rd.toy_double_pole(0.0, 1.0, 10.0, tol=tol)
        with pytest.raises(StepFailure, match="tol must be finite and positive"):
            linearized_instability(1e-6, 20.0, tol=tol)
    # no sample point used to be a raw ValueError after the whole span
    for n in (0, -3):
        with pytest.raises(StepFailure, match="n_samples must be at least 1"):
            rd.integrate_reduced(st, 20.0, gs1, sc1, n_samples=n)
    # a NaN end time used to hang the toy run and the linearized one, an
    # infinite one to fail only after integrating
    for t_end in (np.nan, np.inf, 1.0, 0.5):
        with pytest.raises(StepFailure, match="t_end must be finite"):
            rd.toy_double_pole(0.0, 1.0, t_end)
        with pytest.raises(StepFailure, match="t_end must be finite"):
            linearized_instability(1e-6, t_end)
    # eps = 0 used to return an all-NaN deviation
    for eps in (0.0, -1e-6, np.nan, np.inf):
        with pytest.raises(StepFailure, match="eps must be finite and positive"):
            linearized_instability(eps, 20.0)


def test_toy_log_orbit():
    tr = rd.toy_double_pole(0.0, 1.0, 100.0, tol=1e-10)
    assert np.max(np.abs(tr.z - np.log(tr.t))) < 1e-8
    E = tr.first_integral()
    assert np.max(np.abs(E)) < 1e-10  # identically zero on the log orbit


@pytest.mark.parametrize("z0,zdot0", [(0.3, 0.8), (-0.2, 1.3), (0.5, 1.2)])
def test_toy_first_integral_conserved(z0, zdot0):
    tr = rd.toy_double_pole(z0, zdot0, 100.0, tol=1e-11)
    E = tr.first_integral()
    assert np.max(np.abs(E - E[0])) < 1e-10


def test_toy_requires_future_time():
    with pytest.raises(StepFailure):
        rd.toy_double_pole(0.0, 1.0, 0.5)


def test_linearized_growth_value():
    assert linearized_growth(10.0) == pytest.approx(33.4, abs=1e-12)


def test_linearized_instability_report():
    rep = linearized_instability(1e-6, 20.0)
    i10 = np.argmin(np.abs(rep.t - 10.0))
    assert abs(rep.v1_numeric[i10] - linearized_growth(rep.t[i10])) < 1e-6
    # nonlinear centered deviation matches the linear mode to 1e-3 relative
    rel = np.abs(rep.deviation - rep.v1_closed) / rep.v1_closed
    assert np.max(rel) < 1e-3


def test_growth_exponent():
    rep = linearized_instability(1e-6, 200.0)
    assert 1.95 <= rep.growth_exponent <= 2.05


def test_model_regime_bounds_d2():
    # the d=2 model separation: z^{1/2} e^{-z} = s^{-2}/c; then
    # |zdot - 2/s| * s * log(s) stays bounded
    c = 20.0

    def z_mod(s):
        return brentq(lambda z: 0.5 * np.log(z) - z - np.log(s ** -2 / c),
                      1.0, 100.0, xtol=1e-14)

    vals = []
    for s in np.geomspace(1e2, 1e4, 25):
        z = z_mod(s)
        zdot = (2.0 / s) / (1.0 + 0.25 * (2 - 1) / z * 2.0)  # implicit derivative
        vals.append(abs(zdot - 2.0 / s) * s * np.log(s))
    assert max(vals) < 5.0
