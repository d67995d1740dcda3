import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twobubble import cli
from twobubble import experiments as ex
from twobubble.cli import main, parse_config_file
from twobubble.errors import InvalidConfig, IoFailure, QuadratureFailure
from twobubble.nls_core import ComplexField, make_grid, write_snapshot


def run_cli(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


def cli_fails(capsys, argv, error, match) -> str:
    """main(argv) returns 1 and names the typed error on stderr, as
    twobubble <command>: <type>: <message> with match in the message;
    returns the message."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    prefix = f"twobubble {argv[0]}: {error.__name__}: "
    assert err.startswith(prefix) and err.endswith("\n") and err.count("\n") == 1, err
    assert re.search(match, err[len(prefix):]), err
    return err[len(prefix):]


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
    assert 1 <= data["newton_iters"] <= 3 and data["residual"] < 1e-10
    assert "shots" not in data
    assert data["c"] == pytest.approx(16.0, abs=1e-9)
    assert "c_Q_fit_residual" not in data
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


def test_groundstate_command_large_p(capsys):
    # the former Cartesian I_Q rule failed its own 8/12-node check here
    data = json.loads(run_cli(capsys, "groundstate", "--d", "1", "--p", "9"))
    assert data["p"] == 9.0 and data["I_Q"] > 0.0


def test_interaction_command_d2_large_p(capsys):
    # the former Cartesian I_Q rule failed its own 8/12-node check at d=2,
    # p = 5, before the force rule ran
    lines = run_cli(capsys, "interaction", "--d", "2", "--p", "5", "--z", "8").split()
    assert lines[0] == "z,H_num,H_asym,rel_err" and len(lines) == 2
    assert np.isfinite(float(lines[1].split(",")[-1]))


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
    rows = csv_path.read_text().splitlines()
    assert rows[0].split(",") == ["s", "t", "lambda", "z1", "gamma", "v1",
                                  "eps_h1", "zeta", "xi", "W"]
    record = ex.RunRecord.from_dict(ex.read_record_json(record_path))
    assert len(rows) == 1 + len(record.samples)
    smp = record.samples[-1]
    assert [float(x) for x in rows[-1].split(",")] == [
        smp["s"], smp["t"], smp["lam"], *smp["z"], smp["gamma"], *smp["v"],
        smp["eps_h1"], smp["zeta"], smp["xi"], smp["W"]]

    out = run_cli(capsys, "verify", "--record", str(record_path))
    rep = json.loads(out)
    assert "fit" in rep and "tube_ok" in rep

    out = run_cli(capsys, "diff", str(record_path), str(record_path))
    assert json.loads(out)["same"]

    sweep_dir = tmp_path / "cfgs"
    sweep_dir.mkdir()
    (sweep_dir / "a.cfg").write_text(cfg.read_text())
    registry = tmp_path / "runs"
    out = run_cli(capsys, "sweep", "--configs", str(sweep_dir),
                  "--registry", str(registry))
    line = json.loads(out.strip().splitlines()[0])
    assert line["status"] == "ran"
    # the registry holds the record file that verify and diff read; the
    # sweep shoots at the bracket's midpoint, 0, as the shot above did
    saved = registry / f"{line['hash']}.json"
    assert [f.name for f in registry.iterdir()] == [saved.name]
    assert "tube_ok" in json.loads(run_cli(capsys, "verify", "--record", str(saved)))
    assert json.loads(run_cli(capsys, "diff", str(saved), str(record_path)))["same"]


def _no_shot(*args, **kwargs):
    raise AssertionError("a shot ran")


def _no_solve(*args, **kwargs):
    raise AssertionError("solve_profile ran")


def test_dimension_rejected_before_compute(capsys, monkeypatch):
    # only d = 1 and 2 have structure constants and a force rule
    monkeypatch.setattr(cli, "solve_profile", _no_solve)
    for argv in (["groundstate", "--p", "3", "--d", "3"],
                 ["interaction", "--p", "3", "--d", "3", "--z", "8"],
                 ["reduced", "--mode", "full", "--d", "3"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "invalid choice: 3" in capsys.readouterr().err


def test_separation_rejected_before_compute(capsys, monkeypatch):
    # H(z) needs a finite |z| at or above the collision threshold
    monkeypatch.setattr(cli, "solve_profile", _no_solve)
    for z in ("nan", "inf", "3", "-4.9"):
        with pytest.raises(SystemExit) as err:
            main(["interaction", "--p", "3", "--d", "1", "--z", "10", z])
        assert err.value.code == 2
        assert "separation must be finite" in capsys.readouterr().err


def test_reduced_start_rejected_before_compute(capsys, monkeypatch):
    # the full and asymptotic modes need a finite separation outside the
    # collision threshold, finite s bounds and a finite, positive lambda; the
    # full mode reads the force law, so its separation must lie within the
    # law's domain (|z0| = 50 failed after the profile solve and law build);
    # the toy equation takes any z0
    monkeypatch.setattr(cli, "solve_profile", _no_solve)
    for mode in ("full", "asymptotic"):
        for extra, message in ((["--z0", "nan"], "separation must be finite"),
                               (["--z0", "3"], "separation must be finite"),
                               (["--s0", "inf"], "must be finite"),
                               (["--s-end", "nan"], "must be finite"),
                               (["--lam0", "-1"], "lambda must be finite and positive"),
                               (["--lam0", "0"], "lambda must be finite and positive"),
                               (["--lam0", "nan"], "lambda must be finite and positive"),
                               (["--lam0", "inf"], "lambda must be finite and positive")):
            with pytest.raises(SystemExit) as err:
                main(["reduced", "--mode", mode, *extra])
            assert err.value.code == 2
            assert message in capsys.readouterr().err
    for z0 in ("50", "-40.5"):
        with pytest.raises(SystemExit) as err:
            main(["reduced", "--mode", "full", "--z0", z0])
        assert err.value.code == 2
        assert "beyond the force law domain [4, 40]" in capsys.readouterr().err
    out = run_cli(capsys, "reduced", "--mode", "toy", "--z0", "3", "--t-end", "2")
    assert out.splitlines()[0] == "t,z,zdot,first_integral"


def test_tolerance_rejected_before_compute(capsys, monkeypatch):
    # groundstate --tol nan used to exit 0 with a q0 the bisection never
    # checked; reduced --tol nan hung (toy) or failed after the profile solve
    monkeypatch.setattr(cli, "solve_profile", _no_solve)
    monkeypatch.setattr(cli, "toy_double_pole", _no_solve)
    for tol in ("nan", "inf", "-inf", "0", "-1"):
        for argv in (["groundstate", "--p", "3", "--d", "1"],
                     ["reduced", "--mode", "toy"], ["reduced", "--mode", "full"]):
            with pytest.raises(SystemExit) as err:
                main([*argv, f"--tol={tol}"])
            assert err.value.code == 2
            assert "tolerance must be finite and positive" in capsys.readouterr().err


def _simulate_config(tmp_path, **overrides):
    keys = {"d": 1, "N": 1024, "L": 32, "p": 3, "dt": 1e-3, "t_end": 0.1,
            "initial": "ansatz", "z": 15, "v": 0}
    keys.update(overrides)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return str(cfg)


def test_simulate_rejects_zero_observables_every(capsys, tmp_path, monkeypatch):
    # 0 used to loop forever, appending rows without bound
    monkeypatch.setattr(cli, "solve_profile", _no_solve)
    cli_fails(capsys, ["simulate", "--config", _simulate_config(tmp_path, observables_every=0)],
              InvalidConfig, "observables_every = 0")


def test_simulate_rejects_zero_dt(capsys, tmp_path, monkeypatch):
    # dt = 0 used to end in a raw ZeroDivisionError after the profile solve
    monkeypatch.setattr(cli, "solve_profile", _no_solve)
    cli_fails(capsys, ["simulate", "--config", _simulate_config(tmp_path, dt=0.0)],
              InvalidConfig, "dt must be finite, nonzero")


def test_simulate_rejects_dt_against_t_end(capsys, tmp_path, monkeypatch):
    # a negative dt with t_end > 0 used to write one row at t = 0 and stop
    monkeypatch.setattr(cli, "solve_profile", _no_solve)
    cli_fails(capsys, ["simulate", "--config", _simulate_config(tmp_path, dt=-1e-3)],
              InvalidConfig, "of the sign of t_end")


def test_simulate_rejects_missing_key(capsys, tmp_path, monkeypatch):
    # a missing dt used to end in a raw KeyError
    monkeypatch.setattr(cli, "solve_profile", _no_solve)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("d = 1\nN = 1024\nL = 32\np = 3\nt_end = 0.1\n")
    cli_fails(capsys, ["simulate", "--config", str(cfg)], InvalidConfig, "missing keys dt")


def test_fit_rejects_bad_guess_before_compute(capsys, tmp_path, monkeypatch):
    # a JSON guess longer than a file name used to raise OSError from the
    # file test, malformed JSON a JSONDecodeError, and a guess without "z" or
    # "v" a KeyError; a long well-formed guess reaches the fit
    monkeypatch.setattr(cli, "solve_profile", _no_solve)
    snap = tmp_path / "field.snap"
    grid = make_grid(1, 256, 16.0)
    write_snapshot(snap, ComplexField(grid, np.zeros(grid.shape, dtype=complex)), 0.0)
    long_guess = json.dumps({"z": [15.0], "v": [0.0], "note": "x" * 300})
    with pytest.raises(AssertionError, match="solve_profile ran"):
        main(["fit", "--field", str(snap), "--guess", long_guess])
    for guess, why in (('{"z": [15.0], "v": [0.0]', "is not JSON"),
                       (json.dumps({"z": [15.0], "note": "x" * 300}), 'with "z" and "v"'),
                       (json.dumps({"v": [0.0]}), 'with "z" and "v"')):
        cli_fails(capsys, ["fit", "--field", str(snap), "--guess", guess], InvalidConfig, why)


def test_shoot_rejects_zeta_sharp_nan(capsys, tmp_path, monkeypatch):
    # NaN gives no separation; the shot refuses it before it builds a field
    monkeypatch.setattr(ex, "build_two_bubble", _no_shot)
    cfg = tmp_path / "shoot.cfg"
    cfg.write_text("s_in = 300.0\ns0 = 299.0\n")
    cli_fails(capsys, ["shoot", "--config", str(cfg), "--zeta-sharp", "nan"],
              InvalidConfig, "zeta_sharp nan")


def test_unknown_config_key(capsys, tmp_path, monkeypatch):
    # a typo must not run with the default value
    monkeypatch.setattr(ex, "backward_shoot", _no_shot)
    monkeypatch.setattr(ex, "bisect_zeta", _no_shot)
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("p = 3.0\ns_0 = 30\nN = 512\n")
    for command in ("shoot", "bisect"):
        err = cli_fails(capsys, [command, "--config", str(cfg)], InvalidConfig,
                        "unknown keys s_0;")
        assert "s0" in err.split("known keys are")[1]


@pytest.mark.parametrize("command,text,match", [
    ("shoot", "N = 2e3\n", "N must be a finite int, got 2000.0"),
    ("shoot", "p = three\n", "p must be a finite float, got 'three'"),
    ("shoot", "dt\n", "dt must be a finite float, got ''"),
    ("simulate", None, "p = 'abc' is not a number")])
def test_malformed_config_value(capsys, tmp_path, monkeypatch, command, text, match):
    # a value of the wrong type used to end in a TypeError or ValueError
    # traceback, N = 2e3 only after the profile solve; it is an InvalidConfig
    # that names the key, raised before the profile is solved
    monkeypatch.setattr(cli, "solve_profile", _no_solve)
    monkeypatch.setattr(ex, "solve_profile", _no_solve)
    if text is None:
        cfg = _simulate_config(tmp_path, p="abc")
    else:
        cfg = tmp_path / "shoot.cfg"
        cfg.write_text(text)
    cli_fails(capsys, [command, "--config", str(cfg)], InvalidConfig, re.escape(match))


def _stub_record() -> ex.RunRecord:
    config = ex.ShootConfig(s_in=12.0, s0=10.0, N=512, L=16.0)
    return ex.RunRecord(config=config, zeta_sharp=0.0, exit="reached_s0", phi=0,
                        wall_time=0.5, samples=[dict.fromkeys(ex.SAMPLE_KEYS, 10.0)])


def test_record_out_is_atomic(capsys, tmp_path, monkeypatch):
    record = _stub_record()
    monkeypatch.setattr(ex, "backward_shoot", lambda config, zeta: record)
    cfg = tmp_path / "shoot.cfg"
    cfg.write_text("s_in = 12.0\ns0 = 10.0\nN = 512\nL = 16.0\n")
    out = tmp_path / "out"
    out.mkdir()
    main(["shoot", "--config", str(cfg), "--zeta-sharp", "0.0",
          "--record-out", str(out / "record.json")])
    assert [f.name for f in out.iterdir()] == ["record.json"]
    assert ex.RunRecord.from_dict(ex.read_record_json(out / "record.json")) == record

    # a missing output directory fails before the shot
    monkeypatch.setattr(ex, "backward_shoot", _no_shot)
    monkeypatch.setattr(ex, "bisect_zeta", _no_shot)
    for command in ("shoot", "bisect"):
        cli_fails(capsys, [command, "--config", str(cfg),
                           "--record-out", str(tmp_path / "missing" / "record.json")],
                  IoFailure, "no directory")


def test_diff_command(capsys, tmp_path):
    # a changed exit makes the records differ: status 1, wall times aside
    a, b = _stub_record(), _stub_record()
    b.exit, b.wall_time = ex.EXIT_EPS, 9.0
    for rec, name in ((a, "a.json"), (b, "b.json")):
        rec.save(tmp_path / name)
    assert main(["diff", str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0
    capsys.readouterr()
    assert main(["diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["changes"] == {"exit": ["reached_s0", "exited_eps"]}
    cli_fails(capsys, ["diff", str(tmp_path / "a.json"), str(tmp_path / "missing.json")],
              IoFailure, "cannot read run record")


def test_diff_compares_records_of_another_schema(capsys, monkeypatch, tmp_path):
    # the golden main record re-hashed at the previous schema: diff reads
    # both, reports them the same with a note on the old side, and exits
    # 0; verify, and RunRecord.from_dict, still refuse the old record
    golden = Path(__file__).parent / "data" / "acceptance" / "main.json"
    data = json.loads(golden.read_text())
    with monkeypatch.context() as m:
        m.setattr(ex, "RECORD_SCHEMA", ex.RECORD_SCHEMA - 1)
        data["hash"] = ex.config_hash(ex.ShootConfig.from_dict(data["config"]),
                                      data["zeta_sharp"])
    old = tmp_path / "old.json"
    old.write_text(json.dumps(data))
    assert main(["diff", str(golden), str(old)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["same"] and rep["compared"] == len(data["samples"])
    assert rep["schema_note"] == {
        "b": f"stored hash is of schema {ex.RECORD_SCHEMA - 1}, not {ex.RECORD_SCHEMA}"}
    cli_fails(capsys, ["verify", "--record", str(old)], IoFailure,
              f"matches schema {ex.RECORD_SCHEMA - 1}")
    # a changed sample still makes them differ, and an edited hash is named
    data["samples"][7]["z"] = [data["samples"][7]["z"][0] + 1e-9]
    data["hash"] = "0" * 16
    old.write_text(json.dumps(data))
    assert main(["diff", str(old), str(golden)]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["first_diff"] == 7 and list(rep["schema_note"]) == ["a"]
    assert "an edited record" in rep["schema_note"]["a"]
    with pytest.raises(IoFailure, match="matches no schema"):
        ex.RunRecord.from_dict(data)


def test_verify_read_errors_are_typed(capsys, tmp_path, monkeypatch):
    # a torn record file, a missing one and one of JSON that is not an
    # object are IoFailure, before any solve
    monkeypatch.setattr(cli, "solve_profile", _no_solve)
    torn = tmp_path / "torn.json"
    torn.write_text(json.dumps(_stub_record().to_dict())[:100])
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]\n")
    for path, match in ((torn, "cannot read run record"),
                        (tmp_path / "missing.json", "cannot read run record"),
                        (listed, "list.json is not a JSON object")):
        cli_fails(capsys, ["verify", "--record", str(path)], IoFailure, match)


def test_typed_failure_mid_run_exits_1(capsys):
    # the orbit from z0 = 39 leaves the force law's domain mid-run, after
    # the profile solve and the law build; the command used to end there in
    # a QuadratureFailure traceback
    err = cli_fails(capsys, ["reduced", "--mode", "full", "--z0", "39"], QuadratureFailure,
                    r"\|z\| = 40\.04\d* outside the force law domain \[4, 40\]")
    assert "Traceback" not in err


def test_closed_stdout_ends_quietly():
    # a reader that closes the pipe early (as `| head` does) ends the
    # command with status 1 and no traceback
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "twobubble.cli", "reduced", "--mode", "asymptotic",
             "--d", "2", "--s0", "10", "--s-end", "12", "--z0", "8"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""
