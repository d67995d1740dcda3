"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one line straight to the terminal (capture is bypassed):
PASS or FAIL, then each check's observed value, bound and margin.  The
heavy shooting experiment is shared through the session-scoped fixture.
"""

import dataclasses
import math
import operator
import time

import numpy as np
import pytest

from twobubble import ansatz as az
from twobubble import experiments as ex
from twobubble import modulation_fit as mf
from twobubble import nls_core as nc
from twobubble import reduced_dynamics as rd
from twobubble.groundstate import closed_form_profile, solve_profile, structure_constants

from oracles import (apply_linearized, correction_count, field_from_values, interaction_G,
                     interaction_cutoff, lam_q, linearized_instability, refined_corrections,
                     remove_translation_projections)
from test_groundstate import Q0_D2_P3_ORACLE


_COMPARE = {"<=": operator.le, "<": operator.lt, ">=": operator.ge}


@pytest.fixture
def report(capsys):
    """Print one line per criterion, bypassing output capture, and assert it.

    checks are (name, observed, comparison, bound) tuples; the line gives
    each with its margin ratio, observed/bound (bound/observed for >=), which
    is below 1 inside the bound.  ok carries the conditions without a bound."""

    def _report(num, label, checks, ok=True):
        parts = []
        for name, observed, op, bound in checks:
            ok = ok and bool(_COMPARE[op](observed, bound))
            ratio = (bound / observed if observed else math.inf) if op == ">=" \
                else observed / bound
            parts.append(f"{name} {observed:.3g} {op} {bound:g} ({ratio:.2g})")
        with capsys.disabled():
            print(f"[acceptance] criterion {num:2d} ({label}): "
                  f"{'PASS' if ok else 'FAIL'}; " + "; ".join(parts))
        assert ok

    return _report


def test_criterion_01_ground_state_exactness(report):
    t0 = time.perf_counter()
    gs = solve_profile(3.0, 1)
    sup = np.max(np.abs(gs.q - closed_form_profile(3.0, gs.r)))
    gs2 = solve_profile(3.0, 2)
    d2_err = abs(gs2.q0 - Q0_D2_P3_ORACLE)
    elapsed = time.perf_counter() - t0
    report(1, "ground-state exactness",
           [("sup|q - closed form|", sup, "<=", 1e-8), ("|q0 - d=2 oracle|", d2_err, "<=", 1e-3),
            ("wall s", elapsed, "<", 5.0)])


def test_criterion_02_structure_constants(gs1, report):
    t0 = time.perf_counter()
    sc = structure_constants(gs1)
    elapsed = time.perf_counter() - t0
    report(2, "structure constants",
           [("|c2 - 2|", abs(sc.c2 - 2.0), "<=", 1e-8),
            ("|c1 - 2|", abs(sc.c1 - 2.0), "<=", 1e-8),
            ("|I_Q - 4 sqrt 2|", abs(sc.i_q - 4.0 * np.sqrt(2.0)), "<=", 1e-6),
            ("|c - 16|", abs(sc.c - 16.0), "<=", 1e-9), ("wall s", elapsed, "<", 5.0)])


def test_criterion_03_interaction_law(gs1, sc1, report):
    t0 = time.perf_counter()
    devs, checks = [], []
    for z in (10.0, 15.0, 20.0, 25.0):
        H = az.interaction_force_H([z], gs1)[0]
        dev = abs(H / (sc1.c_p * np.exp(-z)) - 1.0)
        devs.append(dev)
        checks.append((f"|H/asym - 1| at z={z:g}", dev, "<=", 5.0 / z))
    checks.append(("wall s", time.perf_counter() - t0, "<", 30.0))
    report(3, "interaction law", checks, ok=all(a > b for a, b in zip(devs, devs[1:])))


def test_criterion_04_toy_double_pole(report):
    toy = rd.toy_double_pole(0.0, 1.0, 100.0, tol=1e-10)
    log_err = np.max(np.abs(toy.z - np.log(toy.t)))
    generic = rd.toy_double_pole(0.3, 0.8, 100.0, tol=1e-10)
    E = generic.first_integral()
    drift = np.max(np.abs(E - E[0]))
    rep = linearized_instability(1e-6, 10.0)
    v1_err = abs(rep.v1_numeric[-1] - 33.4)
    report(4, "toy double-pole",
           [("|z - log t|", log_err, "<=", 1e-8), ("first-integral drift", drift, "<=", 1e-10),
            ("|v1 - 33.4|", v1_err, "<=", 1e-6)])


def test_criterion_05_reduced_exact_orbit(gs1, sc1, report):
    t0 = time.perf_counter()
    c = 16.0
    st = rd.ReducedState(s=10.0, lam=1.0, z=[2.0 * np.log(10.0) + np.log(c)],
                         gamma=0.0, v=[0.1])
    tr = rd.integrate_reduced(st, 1e4, gs1, dataclasses.replace(sc1, c=c), tol=1e-12,
                              mode="asymptotic")
    z_err = np.max(np.abs(tr.z[:, 0] - 2.0 * np.log(tr.s) - np.log(c)))
    v_err = np.max(np.abs(tr.v[:, 0] * tr.s - 1.0))
    trq = rd.integrate_reduced(st, 80.0, gs1, sc1, tol=1e-9,
                               mode="quadrature", n_samples=30)
    tra = rd.integrate_reduced(st, 80.0, gs1, sc1, tol=1e-12,
                               mode="asymptotic", n_samples=30)
    rel = np.abs(trq.v[:, 0] - tra.v[:, 0]) / np.abs(tra.v[:, 0])
    quad_share = np.max(rel / (10.0 / np.abs(tra.z[:, 0])))       # each sample's own bound
    elapsed = time.perf_counter() - t0
    report(5, "reduced exact orbit",
           [("|z - 2 log s - log c|", z_err, "<=", 1e-6), ("|v s - 1|", v_err, "<=", 1e-6),
            ("quadrature/asymptotic gap over 10/|z|", quad_share, "<=", 1.0),
            ("wall s", elapsed, "<", 30.0)])


def test_criterion_06_solver_fidelity(gs1, grid_2048_32, report):
    g = grid_2048_32
    Q = field_from_values(g, gs1.q_at(np.abs(g.axis)))
    out = nc.propagate(Q, 1e-3, 1000, 3.0)
    soliton_err = np.max(np.abs(out.values - np.exp(1j) * Q.values))

    m0 = nc.observables(Q, 3.0).mass
    drift_mass = abs(nc.observables(nc.propagate(Q, 1e-3, 10000, 3.0), 3.0).mass
                     - m0) / m0

    u = field_from_values(g, 1.2 * gs1.q_at(np.abs(g.axis))
                             * np.exp(0.3j * g.axis))
    e0 = nc.observables(u, 3.0).energy
    d_coarse = abs(nc.observables(nc.propagate(u, 2e-3, 500, 3.0), 3.0).energy - e0)
    d_fine = abs(nc.observables(nc.propagate(u, 1e-3, 1000, 3.0), 3.0).energy - e0)
    factor = d_coarse / d_fine

    p = 5.0
    pulse = field_from_values(g, 0.8 / np.cosh(g.axis) * np.exp(0.2j * g.axis))
    E = nc.observables(pulse, p).energy
    h, dt = 0.02, 1e-4
    n = int(h / dt)
    vp = nc.observables(nc.propagate(pulse, dt, n, p), p).variance
    vm = nc.observables(nc.propagate(pulse, -dt, n, p), p).variance
    v0 = nc.observables(pulse, p).variance
    virial_rel = abs((vp - 2.0 * v0 + vm) / h ** 2 - 16.0 * E) / abs(16.0 * E)

    report(6, "solver fidelity",
           [("soliton phase error", soliton_err, "<=", 1e-6),
            ("relative mass drift", drift_mass, "<=", 1e-10),
            ("energy error ratio dt/(dt/2)", factor, ">=", 3.0),
            ("energy error ratio dt/(dt/2)", factor, "<=", 5.0),
            ("relative virial defect", virial_rel, "<=", 0.02)])


def test_criterion_07_null_space(gs1, grid_2048_32, report):
    g = grid_2048_32
    r = np.abs(g.axis)
    sgn = np.sign(g.axis)

    def l2(vals):
        return np.sqrt(np.sum(np.abs(vals) ** 2) * g.h)

    Q = nc.ComplexField(g, gs1.q_at(r).astype(complex))
    gradQ = nc.ComplexField(g, (gs1.dq_at(r) * sgn).astype(complex))
    lamQ = nc.ComplexField(g, lam_q(gs1, r).astype(complex))
    xQ = nc.ComplexField(g, (g.axis * gs1.q_at(r)).astype(complex))
    norms = [l2(apply_linearized("minus", Q, gs1).values),
             l2(apply_linearized("plus", gradQ, gs1).values),
             l2(apply_linearized("plus", lamQ, gs1).values + 2.0 * Q.values),
             l2(apply_linearized("minus", xQ, gs1).values + 2.0 * gradQ.values)]
    report(7, "linearized null space", [("largest residual norm", max(norms), "<=", 1e-8)])


def test_criterion_08_modulation_round_trip(gs1, grid_2048_64, report):
    rng = np.random.default_rng(2024)
    worst = 0.0
    quadratic = 0
    for _ in range(50):
        true = az.BubbleParams(lam=0.9 + 0.2 * rng.random(),
                               z=[12.0 + 8.0 * rng.random()],
                               gamma=-np.pi + 2.0 * np.pi * rng.random(),
                               v=[-0.05 + 0.1 * rng.random()])
        pref = np.exp(1j * true.gamma) * true.lam ** (-2.0 / (gs1.p - 1.0))
        u = nc.ComplexField(grid_2048_64, pref * az.ansatz_on_lattice(
            true, gs1, [x / true.lam for x in grid_2048_64.x_mesh]))
        guess = az.BubbleParams(lam=true.lam * 1.02, z=true.z + 0.05,
                                gamma=true.gamma + 0.03, v=true.v + 0.002)
        res = mf.decompose(u, guess, gs1, mode="snapshot", with_fields=False)
        worst = max(worst,
                    abs(res.params.lam - true.lam), abs(res.params.z[0] - true.z[0]),
                    abs(np.angle(np.exp(1j * (res.params.gamma - true.gamma)))),
                    abs(res.params.v[0] - true.v[0]))
        steps = res.step_history
        for a, b in zip(steps, steps[1:]):
            if a < 1e-3:
                if b <= 0.1 * a or b < 1e-12:
                    quadratic += 1
                break
    report(8, "modulation round-trip",
           [("worst parameter error", worst, "<=", 1e-10),
            ("quadratic convergences", quadratic, ">=", 45)])


def test_criterion_09_shooting_reproduction(shoot_outcome, sc1, report):
    rec_lo, rec_hi = shoot_outcome["endpoint_records"]
    rec = shoot_outcome["record"]
    config = shoot_outcome["config"]
    endpoints_ok = rec_lo.phi == -1 and rec_hi.phi == 1 \
        and rec_lo.exit == ex.EXIT_ZETA_LOW and rec_hi.exit == ex.EXIT_ZETA_HIGH
    reached = rec.exit == ex.EXIT_REACHED

    s = rec.column("s")
    rep = ex.verify_regime(rec, sc1)
    report(9, "shooting reproduction",
           [("max eps_h1 s", np.max(rec.column("eps_h1") * s), "<=", config.C_star),
            ("max xi", np.max(rec.column("xi")[1:]), "<", 1.0),
            ("|slope - 2|", abs(rep["fit"]["slope"] - 2.0), "<=", 0.1),
            ("wall s", shoot_outcome["elapsed"], "<=", 900.0)],
           ok=endpoints_ok and reached)


def test_criterion_10_refined_corrections(gs18, grid_2048_32, report):
    t0 = time.perf_counter()
    g = grid_2048_32
    assert correction_count(1.8) == 0
    sups, helmholtz = [], []
    for s in (50.0, 100.0, 200.0):
        pr = az.BubbleParams(lam=1.0, z=[2.0 * np.log(s)], gamma=0.0, v=[0.0])
        cors = refined_corrections(pr, gs18, g)
        assert len(cors) == 1
        R0 = cors[0]
        back = np.fft.ifftn((1.0 + g.k_sq) * np.fft.fftn(R0.field.values))
        source = interaction_G(pr, gs18, g).values * interaction_cutoff(pr, g)
        tilde = remove_translation_projections(source, pr, gs18, g)
        helmholtz.append(np.max(np.abs(back - tilde)))
        sups.append(R0.sup_norm * s ** 1.8)
    elapsed = time.perf_counter() - t0
    report(10, "refined corrections",
           [("Helmholtz residual", max(helmholtz), "<=", 1e-10),
            ("sup R0 s^1.8 spread", max(sups) / min(sups), "<=", 3.0),
            ("wall s", elapsed, "<", 60.0)])
