import json

import numpy as np
import pytest

from twobubble import cli
from twobubble import experiments as ex
from twobubble.cli import main, parse_config_file
from twobubble.errors import InvalidConfig, IoFailure


def run_cli(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\np = 3\nL = 32.0\nname = ansatz\n"
                   "zeta_bracket = -1.0, 1.0\n\n")
    parsed = parse_config_file(cfg)
    assert parsed == {"p": 3, "L": 32.0, "name": "ansatz",
                      "zeta_bracket": [-1.0, 1.0]}


def test_groundstate_command(capsys, tmp_path):
    csv_path = tmp_path / "profile.csv"
    out = run_cli(capsys, "groundstate", "--p", "3", "--d", "1",
                  "--profile-csv", str(csv_path))
    data = json.loads(out)
    assert data["q0"] == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert data["c"] == pytest.approx(16.0, abs=1e-4)
    header = csv_path.read_text().splitlines()[0]
    assert header == "r,q,dq"


def test_interaction_command(capsys):
    out = run_cli(capsys, "interaction", "--p", "3", "--d", "1",
                  "--z", "10", "15")
    lines = out.strip().splitlines()
    assert lines[0] == "z,H_num,H_asym,rel_err"
    assert len(lines) == 3
    rel = float(lines[2].split(",")[-1])
    assert rel < 1e-3


def test_reduced_toy_command(capsys):
    out = run_cli(capsys, "reduced", "--mode", "toy", "--z0", "0",
                  "--zdot0", "1", "--t-end", "10")
    lines = out.strip().splitlines()
    assert lines[0] == "t,z,zdot,first_integral"
    last = [float(x) for x in lines[-1].split(",")]
    assert last[1] == pytest.approx(np.log(last[0]), abs=1e-8)


def test_reduced_asymptotic_command(capsys):
    out = run_cli(capsys, "reduced", "--mode", "asymptotic", "--s0", "10",
                  "--s-end", "40", "--z0", "7.378", "--v0", "0.1")
    lines = out.strip().splitlines()
    assert lines[0].startswith("s,lambda,z1,gamma,v1")
    assert len(lines) > 100


def test_simulate_and_fit_commands(capsys, tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("d = 1\nN = 1024\nL = 32\np = 3\ndt = 1e-3\nt_end = 0.1\n"
                   "initial = ansatz\nz = 15\nv = 0\nobservables_every = 50\n")
    snap = tmp_path / "field.snap"
    out = run_cli(capsys, "simulate", "--config", str(cfg),
                  "--snapshot-out", str(snap))
    lines = out.strip().splitlines()
    assert lines[0] == "t,mass,energy,momentum1,variance,h1"
    masses = [float(l.split(",")[1]) for l in lines[1:]]
    assert max(masses) - min(masses) < 1e-9

    fit_out = run_cli(capsys, "fit", "--field", str(snap), "--guess",
                      json.dumps({"lam": 1.0, "z": [15.0], "gamma": 0.1,
                                  "v": [0.0]}), "--p", "3")
    fit = json.loads(fit_out)
    assert fit["z"][0] == pytest.approx(15.0, abs=1e-3)
    assert fit["gamma"] == pytest.approx(0.1, abs=1e-3)
    assert fit["eps_h1"] < 1e-5


def test_shoot_verify_sweep_commands(capsys, tmp_path):
    cfg = tmp_path / "shoot.cfg"
    cfg.write_text("p = 3.0\nd = 1\ns_in = 14.0\ns0 = 10.0\nN = 512\nL = 16.0\n"
                   "dt = 2e-3\n")
    record_path = tmp_path / "record.json"
    csv_path = tmp_path / "traj.csv"
    out = run_cli(capsys, "shoot", "--config", str(cfg), "--zeta-sharp", "0.0",
                  "--record-out", str(record_path), "--csv-out", str(csv_path))
    assert json.loads(out)["exit"] == "reached_s0"
    assert csv_path.read_text().splitlines()[0].startswith("s,t,lambda")

    out = run_cli(capsys, "verify", "--record", str(record_path))
    rep = json.loads(out)
    assert "fit" in rep and "tube_ok" in rep

    sweep_dir = tmp_path / "cfgs"
    sweep_dir.mkdir()
    (sweep_dir / "a.cfg").write_text(cfg.read_text())
    registry = tmp_path / "registry.jsonl"
    out = run_cli(capsys, "sweep", "--configs", str(sweep_dir),
                  "--registry", str(registry))
    assert json.loads(out.strip().splitlines()[0])["status"] == "ran"


def _no_shot(*args, **kwargs):
    raise AssertionError("a shot ran")


def test_dimension_rejected_before_compute(capsys, monkeypatch):
    # only d = 1 and 2 have structure constants and a force rule
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_profile ran")

    monkeypatch.setattr(cli, "solve_profile", no_solve)
    for argv in (["groundstate", "--p", "3", "--d", "3"],
                 ["interaction", "--p", "3", "--d", "3", "--z", "8"],
                 ["reduced", "--mode", "full", "--d", "3"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "invalid choice: 3" in capsys.readouterr().err


def test_unknown_config_key(tmp_path, monkeypatch):
    # a typo must not run with the default value
    monkeypatch.setattr(ex, "backward_shoot", _no_shot)
    monkeypatch.setattr(ex, "bisect_zeta", _no_shot)
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("p = 3.0\ns_0 = 30\nN = 512\n")
    for command in ("shoot", "bisect"):
        with pytest.raises(InvalidConfig, match="unknown keys s_0;") as err:
            main([command, "--config", str(cfg)])
        assert "s0" in str(err.value).split("known keys are")[1]


def _stub_record() -> ex.RunRecord:
    config = ex.ShootConfig(s_in=12.0, s0=10.0, N=512, L=16.0)
    return ex.RunRecord(config=config, zeta_sharp=0.0, exit="reached_s0", phi=0,
                        wall_time=0.5, samples=[dict.fromkeys(ex.SAMPLE_KEYS, 10.0)])


def test_record_out_is_atomic(tmp_path, monkeypatch):
    record = _stub_record()
    monkeypatch.setattr(ex, "backward_shoot", lambda config, zeta: record)
    cfg = tmp_path / "shoot.cfg"
    cfg.write_text("s_in = 12.0\ns0 = 10.0\nN = 512\nL = 16.0\n")
    out = tmp_path / "out"
    out.mkdir()
    main(["shoot", "--config", str(cfg), "--zeta-sharp", "0.0",
          "--record-out", str(out / "record.json")])
    assert [f.name for f in out.iterdir()] == ["record.json"]
    assert ex.RunRecord.from_dict(json.loads((out / "record.json").read_text())) == record

    # a missing output directory fails before the shot
    monkeypatch.setattr(ex, "backward_shoot", _no_shot)
    monkeypatch.setattr(ex, "bisect_zeta", _no_shot)
    for command in ("shoot", "bisect"):
        with pytest.raises(IoFailure):
            main([command, "--config", str(cfg),
                  "--record-out", str(tmp_path / "missing" / "record.json")])


def test_verify_read_errors_are_typed(tmp_path):
    # a torn record file and a missing one are IoFailure, before any solve
    torn = tmp_path / "torn.json"
    torn.write_text(json.dumps(_stub_record().to_dict())[:100])
    with pytest.raises(IoFailure, match="cannot read run record"):
        main(["verify", "--record", str(torn)])
    with pytest.raises(IoFailure, match="cannot read run record"):
        main(["verify", "--record", str(tmp_path / "missing.json")])
