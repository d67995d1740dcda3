import dataclasses
import json
import math
import multiprocessing
import os
import time

import numpy as np
import pytest

from twobubble import experiments as ex
from twobubble import modulation_fit as mf
from twobubble import nls_core as nc
from twobubble.ansatz import (COLLISION_SEP, FORCE_LAW_DOMAIN, FORCE_LAW_NODES,
                              interaction_force_H)
from twobubble.errors import (FitLost, InvalidConfig, IoFailure, NoConvergence, NoSignChange,
                              QuadratureFailure, WindowTooShort, WorkerLost)
from twobubble.groundstate import GroundState, solve_profile

from oracles import lab_frame_error, refined_corrections, renormalized_h1


@pytest.fixture(scope="module")
def small_config():
    return ex.ShootConfig(s_in=50.0, s0=30.0, N=1024, L=32.0, dt=2e-3)


@pytest.fixture(scope="module")
def small_endpoints(small_config, gs1, sc1):
    lo = ex.backward_shoot(small_config, -1.0, gs1, sc1)
    hi = ex.backward_shoot(small_config, 1.0, gs1, sc1)
    return lo, hi


def test_zeta_inversion(sc1):
    for d, c in ((1, sc1.c), (2, 21.2)):
        for zlen in (8.0, 12.0, 16.0):
            zeta = ex.zeta_of_separation(zlen, c, d)
            assert ex.separation_of_zeta(zeta, c, d) == pytest.approx(zlen, abs=1e-10)


def test_initial_data(small_config, sc1):
    params, zeta_in = ex.initial_data(small_config, 0.3, sc1)
    assert params.lam == 1.0 and params.gamma == 0.0
    assert zeta_in == pytest.approx(
        50.0 + 0.3 * 50.0 / np.sqrt(np.log(50.0)))
    # matched marginal velocity: v_in = 1/zeta_in in d=1
    assert params.v[0] == pytest.approx(1.0 / zeta_in, rel=1e-12)
    assert ex.zeta_of_separation(params.z[0], sc1.c, 1) == pytest.approx(
        zeta_in, rel=1e-12)


@pytest.mark.parametrize("zeta_sharp", [-3.0, -2.39, math.nan, math.inf, -math.inf])
def test_zeta_without_separation_is_refused(monkeypatch, gs1, sc1, zeta_sharp):
    # zeta(s_in) = s_in (1 + zeta#/sqrt(log s_in)) is at most 0 for
    # zeta# <= -sqrt(log 300) = -2.388, and no separation has it
    cfg = ex.ShootConfig(s_in=300.0, s0=299.0)
    with pytest.raises(InvalidConfig, match="zeta_sharp"):
        ex.initial_data(cfg, zeta_sharp, sc1)
    # a shot refuses it before it builds a field or forks a worker
    monkeypatch.setattr(ex, "build_two_bubble", None)
    monkeypatch.setattr(ex, "_Propagation", None)
    with pytest.raises(InvalidConfig, match="zeta_sharp"):
        ex.backward_shoot(cfg, zeta_sharp, gs1, sc1)


@pytest.mark.parametrize("d,c", [(1, 16.0), (2, 21.2)])
def test_zeta_inside_the_collision_threshold_is_refused(monkeypatch, gs1, sc1, d, c):
    # zeta# = -2.388 passes the sign bound at s_in = 300, but zeta(s_in) = 0.0326
    # has no separation outside the collision threshold (at d = 2 none at all)
    cfg = ex.ShootConfig(d=d, s_in=300.0, s0=299.0, N=128, L=16.0)
    sc = dataclasses.replace(sc1, c=c)
    with pytest.raises(InvalidConfig, match="zeta_sharp -2.388 .* the zeta of \\|z\\| = 5"):
        ex.initial_data(cfg, -2.388, sc)
    monkeypatch.setattr(ex, "build_two_bubble", None)
    monkeypatch.setattr(ex, "_Propagation", None)
    with pytest.raises(InvalidConfig, match="zeta_sharp -2.388"):
        ex.backward_shoot(cfg, -2.388, gs1, sc)
    # just above the threshold's zeta the pair starts just outside it
    zeta_in = 1.01 * ex.zeta_of_separation(COLLISION_SEP, c, d)
    params, _ = ex.initial_data(cfg, (zeta_in / 300.0 - 1.0) * math.sqrt(math.log(300.0)), sc)
    assert COLLISION_SEP < np.linalg.norm(params.z) < COLLISION_SEP + 0.03


def test_zeta_bracket_inside_the_separations():
    assert ex.ShootConfig(s_in=300.0, s0=299.0, zeta_bracket=(-2.38, 1.0))
    with pytest.raises(InvalidConfig, match="zeta_sharp -3.0 .* zeta_bracket end"):
        ex.ShootConfig(s_in=300.0, s0=299.0, zeta_bracket=(-3.0, 1.0))


def test_endpoints_exit_opposite(small_endpoints):
    lo, hi = small_endpoints
    assert lo.exit == ex.EXIT_ZETA_LOW and lo.phi == -1
    assert hi.exit == ex.EXIT_ZETA_HIGH and hi.phi == 1
    # both leave immediately near s_in
    assert lo.deepest_s > 48.0 and hi.deepest_s > 48.0


def test_error_vanishes_at_start(small_endpoints):
    for rec in small_endpoints:
        assert rec.samples[0]["eps_h1"] < 1e-9
        assert rec.samples[0]["xi"] == pytest.approx(1.0, abs=1e-9)


def test_transversality_proxy(small_endpoints):
    # xi reaches 1 from below as s decreases: discrete xi-slope is negative
    for rec in small_endpoints:
        assert rec.samples[-1]["xi"] >= 1.0
        ds = rec.samples[-1]["s"] - rec.samples[-2]["s"]
        dxi = rec.samples[-1]["xi"] - rec.samples[-2]["xi"]
        assert ds < 0 and dxi > 0


def test_bisect_reaches_small(small_config, gs1, sc1):
    out = ex.bisect_zeta(small_config, gs1, sc1)
    rec = out["record"]
    assert rec.exit == ex.EXIT_REACHED
    assert rec.deepest_s <= small_config.s0 + small_config.fit_interval
    # depth never shrinks as the bracket narrows
    depths = [h[3] for h in out["history"][2:]]
    assert all(a >= b for a, b in zip(depths, depths[1:]))


def test_predicted_collision_ends_the_shot(gs1, sc1):
    # at s_in = 3.2 the pair starts at |z| = 5.1, and the reduced system
    # reaches the collision threshold within the first chunk
    config = ex.ShootConfig(s_in=3.2, s0=1.5, N=512, L=16.0)
    rec = ex.backward_shoot(config, 0.0, gs1, sc1)
    assert (rec.exit, rec.phi, len(rec.samples)) == (ex.EXIT_COLLISION, -1, 1)


def _check_force_law(gs, rel):
    """The cached law against the reference rule across its whole domain."""
    lo, hi = FORCE_LAW_DOMAIN
    law = gs.force_law
    for zlen in np.linspace(lo, hi, 25):
        H = interaction_force_H([zlen], gs, min_sep=lo)[0]
        assert law(zlen) == pytest.approx(H, rel=rel, abs=0.0), zlen
    for zlen in (3.99, 40.01):
        with pytest.raises(QuadratureFailure, match=r"\[4, 40\]") as err:
            law(zlen)
        assert f"{zlen:.6g}" in str(err.value)
    assert gs.force_law is law


def test_force_law(gs1):
    _check_force_law(gs1, 4e-12)


def test_force_law_p145(gs145):
    # with r_max = 25 the linear tail's seam put a kink in H, and the law was
    # 2.64e-10 off the rule; with r_max following p (44.4 here) it is
    # 8.5e-13 off on the 25 points and on 301 points of [4, 40] (largest at
    # |z| = 40), and the bound leaves a margin of 2.3
    _check_force_law(gs145, 2e-12)


def test_force_law_table_matches_series(gs1):
    # the law's cell table re-expands the Chebyshev series of
    # g = log H + |z| in w = 1/|z| on the same 80 rule values, rebuilt here;
    # on 20001 points of [4, 40] at d = 1, p = 3 the two agree to 3.6e-14
    # relative in H (largest near |z| = 40), and the bound allows 2.8 times that
    lo, hi = FORCE_LAW_DOMAIN

    def g(w):
        return np.log([interaction_force_H([1.0 / x], gs1, min_sep=lo)[0] for x in w]) + 1.0 / w

    cheb = np.polynomial.Chebyshev.interpolate(g, FORCE_LAW_NODES - 1, (1.0 / hi, 1.0 / lo))
    z = np.linspace(lo, hi, 20001)
    table = np.array([gs1.force_law(x) for x in z.tolist()])
    assert np.max(np.abs(table / np.exp(cheb(1.0 / z) - z) - 1.0)) <= 1e-13


def stub_family(target, mid_exit=None):
    """A stub shooting family: exit side given by sign(zeta - target); the
    shots inside the bracket exit with mid_exit when it is given."""
    def stub_shoot(config, zeta, *a, **k):
        phi = 1 if zeta > target else -1
        tag = ex.EXIT_ZETA_HIGH if phi > 0 else ex.EXIT_ZETA_LOW
        if mid_exit and zeta not in config.zeta_bracket:
            tag = mid_exit
        return ex.RunRecord(config=config, zeta_sharp=zeta,
                            samples=[{"s": config.s_in, "zeta": 0.0, "xi": 2.0}],
                            exit=tag, phi=phi, wall_time=0.0)

    return stub_shoot


def test_bisect_bracket_arithmetic(monkeypatch, small_config, gs1, sc1):
    target = 0.137
    monkeypatch.setattr(ex, "backward_shoot", stub_family(target))
    out = ex.bisect_zeta(small_config, gs1, sc1)
    mids = [h[0] for h in out["history"][2:]]
    # bracket width halves every step: midpoints approach the target
    for k, mid in enumerate(mids, start=1):
        assert abs(mid - target) <= 2.0 ** (1 - k) + 1e-12
    assert abs(out["zeta_sharp_star"] - target) < 1e-5


def test_bisect_moves_on_a_lost_fit(monkeypatch, small_config, gs1, sc1):
    # a midpoint whose fit is lost moves the bracket by its phi, as an exit does
    target = 0.137
    monkeypatch.setattr(ex, "backward_shoot", stub_family(target, ex.EXIT_FIT_LOST))
    out = ex.bisect_zeta(small_config, gs1, sc1)
    assert {h[1] for h in out["history"][2:]} == {ex.EXIT_FIT_LOST}
    for k, (mid, _, phi, _) in enumerate(out["history"][2:], start=1):
        assert phi == (1 if mid > target else -1)
        assert abs(mid - target) <= 2.0 ** (1 - k) + 1e-12
    assert abs(out["zeta_sharp_star"] - target) < 1e-5


# the default config: C* = 10, s0 = 30; at s = 100 the eps bound is C*/s = 0.1
_INSIDE = {"s": 100.0, "zeta": 100.0, "xi": 0.5, "eps_h1": 0.05, "z": [20.0]}


@pytest.mark.parametrize("edit, end", [
    ({}, None),
    ({"xi": 1.0, "zeta": 101.0}, (ex.EXIT_ZETA_HIGH, 1)),
    ({"xi": 1.0, "zeta": 99.0}, (ex.EXIT_ZETA_LOW, -1)),
    ({"xi": 1.0}, (ex.EXIT_ZETA_HIGH, 1)),
    ({"xi": math.nextafter(1.0, 0.0)}, None),
    ({"eps_h1": math.nextafter(0.1, 1.0), "zeta": 101.0}, (ex.EXIT_EPS, 1)),
    ({"eps_h1": math.nextafter(0.1, 1.0), "zeta": 99.0}, (ex.EXIT_EPS, -1)),
    ({"eps_h1": 10.0 / 100.0}, None),
    ({"z": [math.nextafter(COLLISION_SEP, 0.0)], "zeta": 101.0}, (ex.EXIT_COLLISION, -1)),
    ({"z": [COLLISION_SEP]}, None),
    ({"z": [0.0, math.nextafter(COLLISION_SEP, 0.0)]}, (ex.EXIT_COLLISION, -1)),
    ({"z": [0.0, COLLISION_SEP]}, None),
    ({"s": 30.0}, (ex.EXIT_REACHED, 0)),
    ({"s": math.nextafter(30.0, 31.0)}, None),
    ({"xi": 2.0, "eps_h1": 1.0, "zeta": 99.0}, (ex.EXIT_ZETA_LOW, -1)),
    ({"eps_h1": 1.0, "z": [1.0], "zeta": 101.0}, (ex.EXIT_EPS, 1)),
    ({"z": [1.0], "s": 30.0}, (ex.EXIT_COLLISION, -1)),
    ({"xi": 1.0, "s": 30.0, "zeta": 101.0}, (ex.EXIT_ZETA_HIGH, 1)),
], ids=["inside", "xi-high", "xi-low", "xi-zeta-at-s", "xi-below-1", "eps-high",
        "eps-low", "eps-at-bound", "collision", "collision-at-sep", "collision-d2",
        "collision-at-sep-d2", "reached", "above-s0", "xi-before-eps",
        "eps-before-collision", "collision-before-reached", "xi-before-reached"])
def test_exit_rule(edit, end):
    assert ex._exit_of({**_INSIDE, **edit}, ex.ShootConfig()) == end


def test_no_sign_change(small_config, gs1, sc1):
    cfg = ex.ShootConfig(**{**small_config.to_dict(),
                            "zeta_bracket": (0.95, 1.0)})
    with pytest.raises(NoSignChange) as err:
        ex.bisect_zeta(cfg, gs1, sc1)
    assert len(err.value.records) == 2


def test_record_serialization(small_endpoints, tmp_path):
    rec = small_endpoints[0]
    rec.save(tmp_path / "rec.json")
    assert [f.name for f in tmp_path.iterdir()] == ["rec.json"]
    back = ex.RunRecord.from_dict(ex.read_record_json(tmp_path / "rec.json"))
    assert back.exit == rec.exit
    assert back.zeta_sharp == rec.zeta_sharp
    assert back.config == rec.config
    assert back.samples == rec.samples


def _synthetic_record(steps, exit=ex.EXIT_REACHED):
    """A record whose chunks take the given step counts at scale 1."""
    config = ex.ShootConfig(s_in=50.0, s0=30.0, N=1024, L=32.0, dt=2e-3)
    s = 50.0 - np.concatenate([[0], np.cumsum(steps)]) * config.dt
    samples = [{"s": float(x), "t": float(x), "lam": 1.0, "z": [2.0 * math.log(x) + 2.77],
                "gamma": 0.1 * k, "v": [1.0 / x], "eps_h1": 1e-4, "zeta": float(x),
                "xi": 0.0, "W": -1.0} for k, x in enumerate(s)]
    return ex.RunRecord(config=config, zeta_sharp=0.0, samples=samples, exit=exit,
                        phi=0, wall_time=1.0)


def test_compare_records_move_and_flip():
    a = _synthetic_record([250] * 8)
    same = ex.compare_records(a, _synthetic_record([250] * 8))
    assert same["same"] and same["first_diff"] is None and same["compared"] == 9

    # a 1e-12 move of z from sample 4 on: an accuracy change, no flip
    moved = _synthetic_record([250] * 8)
    moved.wall_time = 7.0
    for smp in moved.samples[4:]:
        smp["z"] = [smp["z"][0] + 1e-12]
    rep = ex.compare_records(a, moved)
    assert not rep["same"] and rep["changes"] == {} and rep["flips"] == []
    assert rep["first_diff"] == 4
    assert rep["fields"]["z"]["max_abs"] == pytest.approx(1e-12, rel=1e-2)
    assert rep["fields"]["z"]["max_rel"] < 1e-12
    assert all(rep["fields"][k]["max_abs"] == 0.0 for k in ex.SAMPLE_KEYS if k != "z")

    # chunk 5 takes one step more: named as a flip at sample 6, the samples
    # before it compare equal, and the exit and sample count changes are reported
    flipped = _synthetic_record([250] * 5 + [251] + [250] * 3, exit=ex.EXIT_EPS)
    rep = ex.compare_records(a, flipped)
    assert rep["flips"] == [{"sample": 6, "steps": [250, 251]}]
    assert rep["compared"] == 6 and rep["first_diff"] is None
    assert rep["changes"] == {"exit": [ex.EXIT_REACHED, ex.EXIT_EPS], "n_samples": [9, 10]}


def test_compare_records_empty_and_mismatched():
    # a record without samples compares over none and reports the count change
    a = _synthetic_record([250] * 8)
    empty = _synthetic_record([250] * 8)
    empty.samples = []
    rep = ex.compare_records(a, empty)
    assert not rep["same"] and rep["compared"] == 0 and rep["first_diff"] is None
    assert rep["changes"] == {"n_samples": [9, 0]} and rep["flips"] == []
    assert all(f == {"max_abs": 0.0, "max_rel": 0.0} for f in rep["fields"].values())
    assert ex.compare_records(empty, empty)["same"]

    wide = _synthetic_record([250] * 8)
    wide.samples[3]["v"] = [0.1, 0.2]
    with pytest.raises(IoFailure, match="'v'"):
        ex.compare_records(a, wide)
    other_d = _synthetic_record([250] * 8)
    other_d.config = ex.ShootConfig(d=2, s_in=50.0, s0=30.0, N=128, L=32.0, dt=2e-3)
    with pytest.raises(InvalidConfig, match="dimension"):
        ex.compare_records(a, other_d)


def test_fit_log_separation_reduced_oracle():
    # closed-form reduced orbit: separation 2 log s + log 16 against t = s
    s = np.geomspace(30.0, 300.0, 80)
    fit = ex.fit_log_separation(s, 2.0 * np.log(s) + np.log(16.0))
    assert abs(fit["slope"] - 2.0) < 0.01
    assert abs(fit["C"] - (-np.log(16.0))) < 0.01
    assert fit["residual"] < 1e-12


def test_fit_log_separation_toy():
    t = np.geomspace(5.0, 100.0, 50)
    fit = ex.fit_log_separation(t, np.log(t))
    assert abs(fit["slope"] - 1.0) < 1e-10


def test_fit_log_separation_window():
    with pytest.raises(WindowTooShort):
        ex.fit_log_separation(np.array([2.0, 3.0]), np.array([1.0, 2.0]))


def test_verify_requires_success(small_endpoints, sc1):
    with pytest.raises(WindowTooShort):
        ex.verify_regime(small_endpoints[0], sc1)


def test_run_sweep(tmp_path, gs1, sc1):
    registry = tmp_path / "runs"
    assert ex.run_sweep([], registry) == []
    assert not registry.exists()

    configs = [ex.ShootConfig(s_in=si, s0=10.0, N=512, L=18.0, dt=2e-3)
               for si in (15.0, 40.0, 90.0)]
    results = ex.run_sweep(configs, registry, gs1, sc1)
    assert [r["status"] for r in results] == ["ran"] * 3
    # a longer backward window takes more samples
    counts = [len(r["record"].samples) for r in results]
    assert counts[0] < counts[1] < counts[2]
    # one record file per config, named by its hash, that reads back as its record
    names = [f"{r['hash']}.json" for r in results]
    assert sorted(f.name for f in registry.iterdir()) == sorted(names)
    for name, res in zip(names, results):
        assert ex.RunRecord.from_dict(ex.read_record_json(registry / name)) == res["record"]

    again = ex.run_sweep(configs[:1], registry, gs1, sc1)
    assert again == [{"hash": results[0]["hash"], "status": "duplicate", "record": None}]
    assert sorted(f.name for f in registry.iterdir()) == sorted(names)


class _FakeShot:
    """Stands in for backward_shoot: a one-sample record, and a count of the calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, config, zeta, gs, sc):
        self.calls += 1
        return ex.RunRecord(config=config, zeta_sharp=zeta, exit=ex.EXIT_REACHED, phi=0,
                            wall_time=0.0, samples=[dict.fromkeys(ex.SAMPLE_KEYS, 10.0)])


def test_registry_io_failure(tmp_path, monkeypatch, gs1, sc1):
    # an unusable registry path, or a record file that does not read back as
    # its config's record, fails before any shot runs
    shot = _FakeShot()
    monkeypatch.setattr(ex, "backward_shoot", shot)
    configs = [ex.ShootConfig(s_in=si, s0=10.0, N=512, L=16.0) for si in (12.0, 14.0)]
    registry = tmp_path / "runs"
    ha, hb = (r["hash"] for r in ex.run_sweep(configs, registry, gs1, sc1))

    def fails(path, match):
        with pytest.raises(IoFailure, match=match):
            ex.run_sweep(configs, path, gs1, sc1)
        assert shot.calls == 2

    fails(tmp_path / "no_dir" / "runs", "cannot make registry directory")
    record_a = registry / f"{ha}.json"
    text = record_a.read_text()
    old = tmp_path / "runs.jsonl"           # a registry of the JSON-lines format
    old.write_text(text)
    fails(old, "cannot make registry directory")
    record_a.write_text(text[:-40])         # a truncated record file
    fails(registry, "cannot read run record")
    record_a.write_text(text)
    record_a.replace(registry / f"{hb}.json")   # a's record under b's hash
    fails(registry, f"holds the record of hash {ha}")


def test_registry_leftover_tmp_is_not_done(tmp_path, monkeypatch, gs1, sc1):
    # a save cut short leaves <hash>.json.<pid>.tmp behind: not a record, so
    # its config runs; a config given twice runs once
    shot = _FakeShot()
    monkeypatch.setattr(ex, "backward_shoot", shot)
    cfg = ex.ShootConfig(s_in=12.0, s0=10.0, N=512, L=16.0)
    registry = tmp_path / "runs"
    registry.mkdir()
    h = ex.config_hash(cfg, 0.0)
    (registry / f"{h}.json.4242.tmp").write_text('{"hash": "')
    results = ex.run_sweep([cfg, cfg], registry, gs1, sc1)
    assert [r["status"] for r in results] == ["ran", "duplicate"]
    assert ex.run_sweep([cfg], registry, gs1, sc1)[0]["status"] == "duplicate"
    assert shot.calls == 1
    assert ex.RunRecord.from_dict(ex.read_record_json(registry / f"{h}.json")) \
        == results[0]["record"]


def test_run_sweep_solves_each_profile_once(tmp_path, monkeypatch, gs1, sc1):
    # a sweep used to solve the profile and its constants again for each config
    calls = []

    def counted(result):
        def fake(*args):
            calls.append(result)
            return result
        return fake

    monkeypatch.setattr(ex, "solve_profile", counted(gs1))
    monkeypatch.setattr(ex, "structure_constants", counted(sc1))
    monkeypatch.setattr(ex, "backward_shoot", _FakeShot())
    configs = [ex.ShootConfig(s_in=si, s0=10.0, N=512, L=16.0) for si in (12.0, 14.0, 16.0)]
    results = ex.run_sweep(configs, tmp_path / "runs")
    assert [r["status"] for r in results] == ["ran"] * 3
    assert calls == [gs1, sc1]


def test_config_validation():
    with pytest.raises(ValueError):
        ex.ShootConfig(s_in=10.0, s0=20.0)
    with pytest.raises(ValueError):
        ex.ShootConfig(C_star=0.5)


@pytest.mark.parametrize("bad", [
    {"d": 3}, {"d": 0}, {"dt": 0.0}, {"dt": -2e-3}, {"fit_interval": 0.0},
    {"newton_tol": -1e-12}, {"newton_tol": float("nan")}, {"s_in": 10.0, "s0": 20.0},
    {"C_star": 1.0}, {"zeta_bracket": (1.0, -1.0)}, {"zeta_bracket": (0.0, 0.0)},
    {"zeta_bracket": (-1.0, float("inf"))}, {"zeta_bracket": (float("nan"), 1.0)},
    {"zeta_bracket": (-1.0, 0.0, 1.0)}, {"zeta_bracket": 1.0},
    {"zeta_bracket": ("a", "b")}, {"zeta_bracket": (-3.0, 1.0)}])
def test_config_rejects_bad_fields(bad):
    # each message names the first field of the bad ones
    with pytest.raises(InvalidConfig, match=next(iter(bad))):
        ex.ShootConfig(**bad)


def test_config_hash_carries_the_schema(monkeypatch):
    cfg = ex.ShootConfig(s_in=50.0, s0=30.0)
    h = ex.config_hash(cfg, 0.25)
    assert ex.config_hash(ex.ShootConfig(s_in=50.0, s0=30.0), 0.25) == h
    assert ex.config_hash(cfg, 0.5) != h
    monkeypatch.setattr(ex, "RECORD_SCHEMA", ex.RECORD_SCHEMA + 1)
    assert ex.config_hash(cfg, 0.25) != h


def test_refined_ansatz_propagation_smoke(gs18):
    # p = 1.8 smoke test: with the Helmholtz-inverted correction added to the
    # initial data, the fitted error grows markedly slower under the full PDE
    from twobubble import ansatz as az
    from twobubble import modulation_fit as mf
    from twobubble import nls_core as nc

    g = nc.make_grid(1, 1024, 32.0)
    s0 = 60.0
    pr = az.BubbleParams(lam=1.0, z=[2.0 * np.log(s0)], gamma=0.0, v=[1.0 / s0])
    bare = az.build_two_bubble(pr, gs18, g)
    W = refined_corrections(pr, gs18, g)[0].field.values
    corrected = nc.ComplexField(g, bare.values + W)

    dt, n = 1e-3, 2000
    growth = {}
    for name, u0 in (("bare", bare), ("corrected", corrected)):
        f0 = mf.decompose(u0, pr, gs18, mode="snapshot", with_fields=False)
        out = nc.propagate(u0, dt, n, 1.8)
        guess = az.BubbleParams(lam=1.0, z=pr.z + 2.0 * pr.v * dt * n,
                                gamma=dt * n, v=pr.v)
        ft = mf.decompose(out, guess, gs18, mode="snapshot", with_fields=False)
        growth[name] = (mf.error_h1(out, ft.params, gs18)
                        - mf.error_h1(u0, f0.params, gs18))
    assert growth["corrected"] < 0.5 * growth["bare"]


def test_mass_momentum_conserved_along_run(shoot_outcome):
    rec = shoot_outcome["record"]
    mass = rec.column("mass")
    assert np.max(np.abs(mass - mass[0])) / mass[0] < 1e-9
    mom = np.array([smp["momentum"] for smp in rec.samples])
    assert np.max(np.abs(mom)) < 1e-9 * mass[0]


def test_igradq_projection_bounded(shoot_outcome):
    rec = shoot_outcome["record"]
    s = rec.column("s")
    proj = rec.column("proj_igradq")
    assert np.max(proj * s ** 2) < 5.0


def test_energy_bound_chain(shoot_outcome):
    # |W(s)| <= K * int_s^{s_in} sigma^{-2} ||eps|| dsigma along the run
    rec = shoot_outcome["record"]
    s = rec.column("s")[::-1]           # increasing
    W = np.abs(rec.column("W"))[::-1]
    eps = rec.column("eps_h1")[::-1]
    integrand = eps / s ** 2
    bound = np.array([np.trapezoid(integrand[i:], s[i:]) for i in range(s.size)])
    ok = bound > 1e-14
    assert np.max(W[ok] / bound[ok]) < 50.0


@pytest.fixture(scope="module")
def short_config():
    # the acceptance grid and cadence, s 300 -> 297 (six chunks)
    return ex.ShootConfig(s_in=300.0, s0=297.0, N=2048, L=64.0, dt=2e-3)


@pytest.fixture(params=[True, False], ids=["pipelined", "in-process"])
def path(request, monkeypatch):
    monkeypatch.setattr(ex, "_pipelined", lambda: request.param)
    return request.param


def overflow_from(call):
    """A propagate whose calls from the given one on trip the sup-norm guard.

    Each process counts its own calls, so in a forked worker it counts the
    worker's chunks.
    """
    calls = []

    def propagate(u, dt, n_steps, p, **kwargs):
        calls.append(n_steps)
        if len(calls) >= call:
            kwargs["blowup_factor"] = 0.0
        return nc.propagate(u, dt, n_steps, p, **kwargs)

    return propagate


def lose_fit(call, error):
    """A decompose that raises error("no fit") at the given call and after."""
    calls = []

    def decompose(*args, **kwargs):
        calls.append(1)
        if len(calls) >= call:
            raise error("no fit")
        return mf.decompose(*args, **kwargs)

    return decompose


def test_pipelined_shot_matches_in_process(monkeypatch, short_config, gs1, sc1):
    records = []
    for pipelined in (True, False):
        monkeypatch.setattr(ex, "_pipelined", lambda: pipelined)
        records.append(ex.backward_shoot(short_config, 0.0, gs1, sc1))
    piped, inline = records
    assert piped.exit == inline.exit == ex.EXIT_REACHED
    assert piped.phi == inline.phi == 0
    # six chunks of 250 steps end 1e-6 short of s0, and a 1-step chunk follows
    assert len(piped.samples) == 8
    assert piped.samples[-2]["s"] - piped.samples[-1]["s"] == pytest.approx(2e-3, rel=1e-3)
    assert piped.samples == inline.samples


def test_worker_ends_with_its_shot(monkeypatch, short_config, gs1, sc1):
    monkeypatch.setattr(ex, "_pipelined", lambda: True)
    assert ex.backward_shoot(short_config, 0.0, gs1, sc1).exit == ex.EXIT_REACHED
    assert multiprocessing.active_children() == []
    assert ex.backward_shoot(short_config, 1.0, gs1, sc1).exit == ex.EXIT_ZETA_HIGH
    assert multiprocessing.active_children() == []

    monkeypatch.setattr(ex, "decompose", lose_fit(2, NoConvergence))
    rec = ex.backward_shoot(short_config, 0.0, gs1, sc1)
    assert (rec.exit, rec.phi, len(rec.samples)) == (ex.EXIT_FIT_LOST, 1, 1)
    assert multiprocessing.active_children() == []


def test_initial_fit_lost_is_fit_lost(monkeypatch, short_config, gs1, sc1):
    # the initial fit has no sample to end a shot on, so its loss raises
    monkeypatch.setattr(ex, "_pipelined", lambda: True)
    monkeypatch.setattr(ex, "decompose", lose_fit(1, NoConvergence))
    with pytest.raises(FitLost, match="s=300.00: no fit"):
        ex.backward_shoot(short_config, 0.0, gs1, sc1)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("call", [1, 2])
def test_untyped_fit_error_propagates(monkeypatch, short_config, gs1, sc1, call):
    # only a typed fit failure is a lost fit; a bug in the fit is not an exit
    monkeypatch.setattr(ex, "_pipelined", lambda: True)
    monkeypatch.setattr(ex, "decompose", lose_fit(call, RuntimeError))
    with pytest.raises(RuntimeError, match="^no fit$"):
        ex.backward_shoot(short_config, 0.0, gs1, sc1)
    assert multiprocessing.active_children() == []


def test_mass_critical_shot_ends_on_its_lost_fit(monkeypatch):
    # at d = 1, p = 5 (mass-critical) the first tracking fit, at s = 299.5,
    # ends in NoConvergence; the shot keeps its initial sample
    monkeypatch.setattr(ex, "_pipelined", lambda: True)
    rec = ex.backward_shoot(ex.ShootConfig(p=5.0, s_in=300.0, s0=290.0), 0.0,
                            solve_profile(5.0, 1))
    assert (rec.exit, rec.phi, [smp["s"] for smp in rec.samples]) == \
        (ex.EXIT_FIT_LOST, 1, [300.0])
    assert multiprocessing.active_children() == []


def test_sample_error_is_built_once(monkeypatch, short_config, gs1, sc1):
    # each sample's eps_h1 is the one energy_functional measures, equal to
    # the oracle's; the initial field and each sample's eps_lab take one
    # bubble pair, two profile evaluations, each, and a fit three per
    # residual, so the fit builds no second eps_lab
    monkeypatch.setattr(ex, "_pipelined", lambda: False)
    seen, evals, fit_evals = [], [], []

    def energy(u, params, s, gs):
        seen.append((u, params))
        return mf.energy_functional(u, params, s, gs)

    def fit(*args, **kwargs):
        res = mf.decompose(*args, **kwargs)
        fit_evals.append(3 * (res.newton_iters + 1))
        return res

    gs1.force_law           # the law's rule calls evaluate the profile too
    q_dq_at = GroundState.q_dq_at
    monkeypatch.setattr(GroundState, "q_dq_at",
                        lambda self, rr: evals.append(1) or q_dq_at(self, rr))
    monkeypatch.setattr(ex, "energy_functional", energy)
    monkeypatch.setattr(ex, "decompose", fit)
    rec = ex.backward_shoot(short_config, 0.0, gs1, sc1)
    assert rec.exit == ex.EXIT_REACHED and len(seen) == len(rec.samples) == 8
    assert len(evals) == 2 + 2 * len(rec.samples) + sum(fit_evals)
    for (u, params), smp in zip(seen, rec.samples):
        assert (params.lam, list(params.z), params.gamma, list(params.v)) == \
            (smp["lam"], smp["z"], smp["gamma"], smp["v"])
        ref = renormalized_h1(lab_frame_error(u, params, gs1), params.lam, gs1.p)
        assert smp["eps_h1"] == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_dead_worker_is_an_error(monkeypatch, short_config, gs1, sc1):
    monkeypatch.setattr(ex, "_pipelined", lambda: True)
    monkeypatch.setattr(ex, "_serve", lambda conn, u, dt, p: os._exit(3))
    t0 = time.perf_counter()
    with pytest.raises(WorkerLost, match="exit code 3"):
        ex.backward_shoot(short_config, 0.0, gs1, sc1)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("zeta_sharp, phi", [(0.5, 1), (-0.5, -1)])
def test_shot_blowup_exit(monkeypatch, path, gs1, sc1, zeta_sharp, phi):
    monkeypatch.setattr(ex, "propagate", overflow_from(3))
    cfg = ex.ShootConfig(s_in=300.0, s0=290.0, N=2048, L=64.0, dt=2e-3)
    rec = ex.backward_shoot(cfg, zeta_sharp, gs1, sc1)
    assert rec.exit == ex.EXIT_BLOWUP
    # the third chunk overflows: two fitted samples follow the initial one
    assert len(rec.samples) == 3
    last = rec.samples[-1]
    assert rec.phi == phi == (1 if last["zeta"] >= last["s"] else -1)


def test_unconsumed_chunk_cannot_change_the_exit(monkeypatch, path, short_config, gs1, sc1):
    # at zeta# = +1 the shot exits at its first check, s = 299.5, while the
    # worker already runs the next chunk; that chunk and every later one
    # overflow, and the parent never takes them
    monkeypatch.setattr(ex, "propagate", overflow_from(2))
    rec = ex.backward_shoot(short_config, 1.0, gs1, sc1)
    assert rec.exit == ex.EXIT_ZETA_HIGH and rec.phi == 1
    assert len(rec.samples) == 2
    assert rec.deepest_s == pytest.approx(299.5, abs=1e-6)


def test_counts_go_out_one_chunk_ahead(monkeypatch, short_config, gs1, sc1):
    monkeypatch.setattr(ex, "_pipelined", lambda: False)
    queued = []

    class Logged(ex._Propagation):
        def recv(self):
            queued.append(len(self.counts))
            return super().recv()

    monkeypatch.setattr(ex, "_Propagation", Logged)
    rec = ex.backward_shoot(short_config, 0.0, gs1, sc1)
    assert rec.exit == ex.EXIT_REACHED and len(rec.samples) == 8
    # each recv but the last finds the next chunk's count already sent; the
    # last chunk ends at s0, so no count follows it
    assert queued == [2] * 6 + [1]


@pytest.mark.parametrize("edit, match", [
    (lambda data: data.pop("phi"), "no key 'phi'"),
    (lambda data: data["config"].update(grid="fine"), "unexpected keyword argument 'grid'"),
    (lambda data: data["config"].update(dt=1e-3), "hash .* does not match"),
    (lambda data: data.update(exit="escaped"), "exit 'escaped' is not one of"),
    (lambda data: data["samples"][1].pop("lam"), "sample 1 has no key lam"),
    (lambda data: data["samples"][0].pop("W"), "sample 0 has no key W"),
], ids=["missing-key", "unknown-config-key", "edited-config", "unknown-exit",
        "sample-without-lam", "sample-without-W"])
def test_record_read_is_checked(small_endpoints, edit, match):
    data = json.loads(json.dumps(small_endpoints[0].to_dict()))
    assert ex.RunRecord.from_dict(data).samples == small_endpoints[0].samples
    edit(data)
    with pytest.raises(IoFailure, match=match):
        ex.RunRecord.from_dict(data)
