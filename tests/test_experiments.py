import json

import numpy as np
import pytest

from twobubble import experiments as ex
from twobubble.errors import IoFailure, NoSignChange, QuadratureFailure, WindowTooShort


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


def test_force_table_range(gs1):
    table = ex._ForceTable(gs1, 8.0, 10.0, n=12)
    for zlen in (8.0, 9.3, 10.0):
        H = ex.interaction_force_H([zlen], gs1)[0]
        assert table(zlen) == pytest.approx(H, rel=1e-6)
    for zlen in (7.99, 10.01):
        with pytest.raises(QuadratureFailure, match=r"\[8, 10\]") as err:
            table(zlen)
        assert f"{zlen:.6g}" in str(err.value)


def test_bisect_bracket_arithmetic(monkeypatch, small_config, gs1, sc1):
    # stub shooting family: exit side given by sign(zeta - target)
    target = 0.137

    class _StubTable:
        def __init__(self, *a, **k):
            pass

    def stub_shoot(config, zeta, *a, **k):
        phi = 1 if zeta > target else -1
        return ex.RunRecord(config=config, zeta_sharp=zeta,
                            samples=[{"s": config.s_in, "zeta": 0.0, "xi": 2.0}],
                            exit=ex.EXIT_ZETA_HIGH if phi > 0 else ex.EXIT_ZETA_LOW,
                            phi=phi, wall_time=0.0)

    monkeypatch.setattr(ex, "_ForceTable", _StubTable)
    monkeypatch.setattr(ex, "backward_shoot", stub_shoot)
    out = ex.bisect_zeta(small_config, gs1, sc1, max_iter=20)
    mids = [h[0] for h in out["history"][2:]]
    # bracket width halves every step: midpoints approach the target
    for k, mid in enumerate(mids, start=1):
        assert abs(mid - target) <= 2.0 ** (1 - k) + 1e-12
    assert abs(out["zeta_sharp_star"] - target) < 1e-5


def test_no_sign_change(small_config, gs1, sc1):
    cfg = ex.ShootConfig(**{**small_config.to_dict(),
                            "zeta_bracket": (0.95, 1.0)})
    with pytest.raises(NoSignChange) as err:
        ex.bisect_zeta(cfg, gs1, sc1)
    assert len(err.value.records) == 2


def test_record_serialization(small_endpoints, tmp_path):
    rec = small_endpoints[0]
    back = ex.RunRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
    assert back.exit == rec.exit
    assert back.zeta_sharp == rec.zeta_sharp
    assert back.config == rec.config
    assert back.samples == rec.samples

    path = tmp_path / "traj.csv"
    ex.write_trajectory_csv(rec, path)
    header = path.read_text().splitlines()[0].split(",")
    assert header == ["s", "t", "lambda", "z1", "gamma", "v1",
                      "eps_h1", "zeta", "xi", "W"]


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
    registry = tmp_path / "registry.jsonl"
    assert ex.run_sweep([], registry) == []
    assert not registry.exists()

    configs = [ex.ShootConfig(s_in=si, s0=10.0, N=512, L=18.0, dt=2e-3)
               for si in (15.0, 40.0, 90.0)]
    results = ex.run_sweep(configs, registry, gs1, sc1)
    assert [r["status"] for r in results] == ["ran"] * 3
    # a longer backward window takes more samples
    counts = [len(r["record"].samples) for r in results]
    assert counts[0] < counts[1] < counts[2]
    assert len(registry.read_text().splitlines()) == 3

    again = ex.run_sweep(configs[:1], registry, gs1, sc1)
    assert again[0]["status"] == "duplicate"
    assert len(registry.read_text().splitlines()) == 3


def test_registry_io_failure(tmp_path, monkeypatch):
    # an unwritable registry must fail before any shot runs
    def no_shot(*args, **kwargs):
        raise AssertionError("a shot ran before the registry was opened")

    monkeypatch.setattr(ex, "backward_shoot", no_shot)
    bad = tmp_path / "no_dir" / "registry.jsonl"
    cfg = ex.ShootConfig(s_in=12.0, s0=10.0, N=512, L=16.0)
    with pytest.raises(IoFailure):
        ex.run_sweep([cfg], bad)


class _FakeShot:
    """Stands in for backward_shoot: a record that serializes to its hash only."""

    def __init__(self):
        self.calls = 0

    def __call__(self, config, zeta, gs, sc):
        self.calls += 1
        h = ex.config_hash(config, zeta)
        return type("Record", (), {"to_dict": lambda self: {"hash": h}})()


def test_registry_torn_last_line(tmp_path, monkeypatch, gs1, sc1):
    # an append cut short leaves a last line without newline that is not JSON
    shot = _FakeShot()
    monkeypatch.setattr(ex, "backward_shoot", shot)
    registry = tmp_path / "registry.jsonl"
    registry.write_text('{"hash": "aaaa"}\n{"hash": "bbbb", "samp')
    cfg = ex.ShootConfig(s_in=12.0, s0=10.0, N=512, L=16.0)
    assert [r["status"] for r in ex.run_sweep([cfg], registry, gs1, sc1)] == ["ran"]
    lines = registry.read_text().splitlines()
    assert registry.read_text().endswith("\n")
    assert [json.loads(line)["hash"] for line in lines] == \
        ["aaaa", ex.config_hash(cfg, 0.0)]
    assert ex.run_sweep([cfg], registry, gs1, sc1)[0]["status"] == "duplicate"

    # a complete last record without its newline is kept; the next starts a line
    registry.write_text('{"hash": "aaaa"}')
    ex.run_sweep([cfg], registry, gs1, sc1)
    assert [json.loads(line)["hash"] for line in registry.read_text().splitlines()] \
        == ["aaaa", ex.config_hash(cfg, 0.0)]
    assert shot.calls == 2


def test_registry_corrupt_line(tmp_path, monkeypatch):
    # a line that does not parse is an error unless it is a torn last line
    def no_shot(*args, **kwargs):
        raise AssertionError("a shot ran on a corrupt registry")

    monkeypatch.setattr(ex, "backward_shoot", no_shot)
    registry = tmp_path / "registry.jsonl"
    registry.write_text('{"hash": "aaaa"}\n{"hash": "bb\n{"hash": "cccc"}\n')
    cfg = ex.ShootConfig(s_in=12.0, s0=10.0, N=512, L=16.0)
    with pytest.raises(IoFailure, match="line 2"):
        ex.run_sweep([cfg], registry)
    registry.write_text('{"hash": "aaaa"}\n{"hash": "bb\n')
    with pytest.raises(IoFailure, match="line 2"):
        ex.run_sweep([cfg], registry)


def test_config_validation():
    with pytest.raises(ValueError):
        ex.ShootConfig(s_in=10.0, s0=20.0)
    with pytest.raises(ValueError):
        ex.ShootConfig(C_star=0.5)


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
    W = az.refined_corrections(pr, gs18, g)[0].field.values
    corrected = nc.ComplexField(g, bare.values + W)

    dt, n = 1e-3, 2000
    growth = {}
    for name, u0 in (("bare", bare), ("corrected", corrected)):
        f0 = mf.decompose(u0, pr, gs18, mode="snapshot", with_fields=False)
        out = nc.propagate(u0, dt, n, 1.8)
        guess = az.BubbleParams(lam=1.0, z=pr.z + 2.0 * pr.v * dt * n,
                                gamma=dt * n, v=pr.v)
        ft = mf.decompose(out, guess, gs18, mode="snapshot", with_fields=False)
        growth[name] = ft.eps_h1 - f0.eps_h1
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
