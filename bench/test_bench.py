"""Tests of the benchmark's own machinery: python -m pytest bench/"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
from twobubble import (ansatz, experiments, groundstate, modulation_fit,  # noqa: E402
                       nls_core, reduced_dynamics)


def _tree():
    """op [0, 10] with children a [1, 4] (grandchild [2, 3]) and b [3, 6],
    which overlap on [3, 4], plus c [9, 12] that overruns its parent."""
    S = tracing.Span
    return [S("op", 0.0, 10.0, None, 0), S("a", 1.0, 4.0, 0, 0),
            S("g", 2.0, 3.0, 1, 0), S("b", 3.0, 6.0, 0, 0), S("c", 9.0, 12.0, 0, 0)]


def test_self_time_subtracts_union_of_children():
    selfs = tracing.self_times(_tree())
    # op: children cover [1, 6] and [9, 10] -> 6 of 10
    assert selfs == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])


def test_recorder_nests_spans_and_tags_op():
    rec = tracing.Recorder()
    rec.op = 7
    with rec.span("outer"):
        with rec.span("inner", k=1):
            pass
    outer, inner = rec.spans
    assert inner.parent == 0 and outer.parent is None
    assert inner.op == outer.op == 7 and inner.attrs == {"k": 1}
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert rec.parent_name(inner) == "outer"


def _wrapped_names():
    return [(experiments, "propagate"), (experiments, "decompose"),
            (experiments, "energy_functional"), (experiments, "observables"),
            (experiments, "build_two_bubble"), (experiments, "interaction_force_H"),
            (experiments, "bisect_zeta"), (reduced_dynamics, "interaction_force_H"),
            (reduced_dynamics, "integrate_reduced"), (ansatz, "interaction_force_H"),
            (ansatz, "build_two_bubble"), (nls_core, "propagate"),
            (nls_core, "observables"), (nls_core, "write_snapshot"),
            (nls_core, "read_snapshot"), (modulation_fit, "decompose"),
            (modulation_fit, "energy_functional"), (groundstate, "solve_profile"),
            (groundstate, "structure_constants"),
            (groundstate.GroundState, "q_at"), (groundstate.GroundState, "dq_at")]


def test_uninstall_restores_the_original_functions():
    before = [getattr(owner, attr) for owner, attr in _wrapped_names()]
    tr = tracing.install(tracing.Recorder())
    during = [getattr(owner, attr) for owner, attr in _wrapped_names()]
    assert all(a is not b for a, b in zip(before, during))
    tr.uninstall()
    after = [getattr(owner, attr) for owner, attr in _wrapped_names()]
    assert all(a is b for a, b in zip(before, after))
    # the caller modules' imported names are the definitions themselves again
    assert experiments.propagate is nls_core.propagate
    assert reduced_dynamics.interaction_force_H is ansatz.interaction_force_H


def test_untraced_op_runs_unwrapped_functions(monkeypatch):
    """An op run outside the traced phase calls the original functions."""
    import run

    seen = []
    original = reduced_dynamics.integrate_reduced

    def spy(*args, **kwargs):
        seen.append(all(not hasattr(getattr(owner, attr), "__wrapped__")
                        for owner, attr in _wrapped_names()))
        return original(*args, **kwargs)

    work = run.WORKLOADS["force-d1"]
    gs = groundstate.solve_profile(work.p, work.d)
    ctx = run.Context(gs, groundstate.structure_constants(gs), None, "")
    monkeypatch.setattr(work, "span", 0.05)
    monkeypatch.setattr(work, "n_sweep", 1)
    monkeypatch.setattr(reduced_dynamics, "integrate_reduced", spy)
    _, _, outcome = run.run_op(work, work.draw(np.random.default_rng(0)), ctx, run.Gauge())
    assert seen == [True]
    assert outcome.ok


def test_gauge_scales_by_the_yardsticks_around_each_interval(monkeypatch):
    """After an interval the yardstick runs until it has taken the gauge's
    share of the interval (at least `least` times); the interval is scaled
    by REFERENCE_S over the median of the yardsticks before and after it."""
    import yardstick

    yards = iter([0.1, 0.1, 0.2, 0.2, 0.2, 0.2, 0.4, 0.4])
    monkeypatch.setattr(yardstick, "measure", lambda: next(yards))
    gauge = yardstick.Gauge(share=0.25, least=2)      # takes 0.1, 0.1
    ticks = iter([0.0, 3.0, 10.0, 11.0])
    monkeypatch.setattr(yardstick.time, "perf_counter", lambda: next(ticks))
    # 3 s needs 0.75 s of yardstick: 0.2 x 4; median of 0.1 0.1 0.2 0.2 0.2 0.2
    assert gauge.time(lambda: "a") == ("a", 3.0, pytest.approx(3.0 * yardstick.REFERENCE_S / 0.2))
    # 1 s needs 0.25 s, but at least 2: 0.4 0.4; median of 0.2 x 4 and 0.4 x 2
    assert gauge.time(lambda: "b") == ("b", 1.0, pytest.approx(1.0 * yardstick.REFERENCE_S / 0.2))
    plain = yardstick.Gauge(share=0.0)
    ticks = iter([0.0, 1.5])
    assert plain.time(lambda: "c") == ("c", 1.5, 1.5)


def test_counting_wrapper_counts_points():
    rec = tracing.Recorder()
    tr = tracing.install(rec)
    try:
        gs = groundstate.solve_profile(3.0, 1)
        rec.counters.clear()
        gs.q_at(np.linspace(0.0, 3.0, 5))
        gs.dq_at(1.0)
    finally:
        tr.uninstall()
    assert rec.counters == {"groundstate.profile_evals.calls": 2,
                            "groundstate.profile_evals.points": 6}


def test_draws_repeat_for_a_seed():
    import run

    for work in run.WORKLOADS.values():
        a = work.draw(np.random.default_rng(3))
        b = work.draw(np.random.default_rng(3))
        assert repr(a) == repr(b)
