"""Command-line front end: one subcommand per experiment surface."""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments as ex
from .ansatz import (COLLISION_SEP, FORCE_LAW_DOMAIN, BubbleParams, build_two_bubble,
                     force_asymptotic, interaction_force_H)
from .errors import InvalidConfig, IoFailure, TwoBubbleError
from .groundstate import solve_profile, structure_constants
from .modulation_fit import decompose, error_h1
from .nls_core import make_grid, observables, propagate, read_snapshot, write_snapshot
from .reduced_dynamics import ReducedState, integrate_reduced, toy_double_pole


def parse_config_file(path) -> dict:
    """key = value lines; values parsed as numbers, lists, or strings."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if "," in val:
            out[key] = [float(x) for x in val.split(",") if x.strip()]
            continue
        for cast in (int, float):
            try:
                out[key] = cast(val)
                break
            except ValueError:
                continue
        else:
            out[key] = val
    return out


def _emit_csv(rows, header, out=None):
    fh = open(out, "w", newline="") if out else sys.stdout
    try:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    finally:
        if out:
            fh.close()


def _separation_error(z: float) -> str | None:
    """Why z cannot be a separation (not finite, or inside the collision threshold)."""
    if math.isfinite(z) and abs(z) >= COLLISION_SEP:
        return None
    return f"separation must be finite with |z| >= {COLLISION_SEP}, got {z}"


def _separation(text: str) -> float:
    """A finite z with |z| at or above the collision threshold, checked at parse time."""
    z = float(text)
    problem = _separation_error(z)
    if problem:
        raise argparse.ArgumentTypeError(problem)
    return z


def _tolerance(text: str) -> float:
    """A finite, positive tolerance, checked at parse time."""
    tol = float(text)
    if not (tol > 0.0 and math.isfinite(tol)):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and positive, got {tol}")
    return tol


def _reduced_start_error(args) -> str | None:
    """Why a full or asymptotic reduced run cannot start; the toy equation takes any z0.
    The full mode reads the force law, so its z0 must also lie within the law's domain."""
    if args.mode == "toy":
        return None
    if not (math.isfinite(args.s0) and math.isfinite(args.s_end)):
        return f"--s0 and --s-end must be finite, got {args.s0} and {args.s_end}"
    if not (args.lam0 > 0.0 and math.isfinite(args.lam0)):
        return f"argument --lam0: lambda must be finite and positive, got {args.lam0}"
    problem = _separation_error(args.z0)
    if problem:
        return f"argument --z0: {problem}"
    if args.mode == "full" and abs(args.z0) > FORCE_LAW_DOMAIN[1]:
        return (f"argument --z0: |z| = {abs(args.z0):g} is beyond the force law domain "
                f"[{FORCE_LAW_DOMAIN[0]:g}, {FORCE_LAW_DOMAIN[1]:g}]")
    return None


def cmd_groundstate(args) -> int:
    gs = solve_profile(args.p, args.d, tol=args.tol)
    sc = structure_constants(gs)
    print(json.dumps({"p": gs.p, "d": gs.d, "q0": gs.q0, "newton_iters": gs.newton_iters,
                      "residual": gs.residual, "r_max": gs.r_max, "c_Q": sc.c_q, "I_Q": sc.i_q,
                      "c1": sc.c1, "c2": sc.c2, "C_p": sc.c_p, "c": sc.c, "l2_norm_sq": sc.l2},
                     indent=2))
    if args.profile_csv:
        _emit_csv(zip(gs.r, gs.q, gs.dq), ["r", "q", "dq"], args.profile_csv)
    return 0


def cmd_interaction(args) -> int:
    gs = solve_profile(args.p, args.d)
    sc = structure_constants(gs)
    rows = []
    for z in args.z:
        h_num = interaction_force_H([z] + [0.0] * (args.d - 1), gs)[0]
        h_asym = force_asymptotic([z] + [0.0] * (args.d - 1), sc.c_p, args.d)[0]
        rows.append([z, h_num, h_asym, abs(h_num / h_asym - 1.0)])
    _emit_csv(rows, ["z", "H_num", "H_asym", "rel_err"], args.out)
    return 0


def cmd_reduced(args) -> int:
    if args.mode == "toy":
        tr = toy_double_pole(args.z0, args.zdot0, args.t_end, tol=args.tol)
        E = tr.first_integral()
        _emit_csv(zip(tr.t, tr.z, tr.zdot, E),
                  ["t", "z", "zdot", "first_integral"], args.out)
        return 0
    gs = solve_profile(args.p, args.d)
    sc = structure_constants(gs)
    mode = "quadrature" if args.mode == "full" else "asymptotic"
    state = ReducedState(s=args.s0, lam=args.lam0, z=[args.z0], gamma=args.gamma0,
                         v=[args.v0])
    tr = integrate_reduced(state, args.s_end, gs, sc, tol=args.tol, mode=mode)
    zlen = np.linalg.norm(tr.z, axis=1)
    _emit_csv(zip(tr.s, tr.lam, *(tr.z.T), tr.gamma, *(tr.v.T), zlen),
              ["s", "lambda"] + [f"z{i+1}" for i in range(tr.z.shape[1])]
              + ["gamma"] + [f"v{i+1}" for i in range(tr.v.shape[1])] + ["|z|"],
              args.out)
    return 0


def cmd_simulate(args) -> int:
    cfg = {"observables_every": 100, "initial": "ansatz", "lam": 1.0, "z": 15.0,
           "gamma": 0.0, "v": 0.0, **parse_config_file(args.config)}
    missing = sorted({"d", "N", "L", "p", "dt", "t_end"} - set(cfg))
    if missing:
        raise InvalidConfig(f"{args.config}: missing keys {', '.join(missing)}")

    def value(key, cast=float):
        try:
            if cast is int and not isinstance(cfg[key], int):    # int() truncates 1024.7
                raise TypeError
            return cast(cfg[key])
        except (TypeError, ValueError, OverflowError):
            raise InvalidConfig(f"{args.config}: {key} = {cfg[key]!r} is not "
                                f"{'an integer' if cast is int else 'a number'}") from None

    # every value is read and checked before the profile solve or snapshot read
    grid = make_grid(value("d", int), value("N", int), value("L"))
    p, dt, t_end, every = value("p"), value("dt"), value("t_end"), value("observables_every", int)
    if not (math.isfinite(dt) and dt != 0.0 and math.isfinite(t_end) and t_end * dt >= 0.0):
        raise InvalidConfig(f"{args.config}: dt = {dt}, t_end = {t_end}; dt must be finite, "
                            "nonzero and of the sign of t_end")
    if every < 1:
        raise InvalidConfig(f"{args.config}: observables_every = {every}, must be at least 1")
    initial = cfg["initial"]
    if initial == "ansatz":
        z, v = (cfg[k] if isinstance(cfg[k], list) else [value(k)] + [0.0] * (grid.d - 1)
                for k in ("z", "v"))
        params = BubbleParams(lam=value("lam"), z=z, gamma=value("gamma"), v=v)
        u = build_two_bubble(params, solve_profile(p, grid.d), grid)
    else:
        u, _ = read_snapshot(initial)
    n_total = int(round(t_end / dt))

    rows = []
    t = 0.0
    done = 0
    while done < n_total:
        chunk = min(every, n_total - done)
        obs = observables(u, p)
        rows.append([t, obs.mass, obs.energy, *obs.momentum, obs.variance, obs.h1])
        u = propagate(u, dt, chunk, p)
        done += chunk
        t += chunk * dt
    obs = observables(u, p)
    rows.append([t, obs.mass, obs.energy, *obs.momentum, obs.variance, obs.h1])
    _emit_csv(rows, ["t", "mass", "energy"]
              + [f"momentum{i+1}" for i in range(grid.d)] + ["variance", "h1"],
              args.out)
    if args.snapshot_out:
        write_snapshot(args.snapshot_out, u, t)
    return 0


def _read_guess(text: str) -> dict:
    """The fit's guess: a JSON object with "z" and "v", in the file named text or text."""
    with contextlib.suppress(OSError):      # no such file, or too long a name for one
        text = Path(text).read_text()
    try:
        guess = json.loads(text)
    except ValueError as exc:
        raise InvalidConfig(f"--guess is not JSON: {exc}") from None
    if not (isinstance(guess, dict) and {"z", "v"} <= guess.keys()):
        raise InvalidConfig(f'--guess must be a JSON object with "z" and "v", got {text!r:.80}')
    return guess


def cmd_fit(args) -> int:
    guess_raw = _read_guess(args.guess)
    u, _ = read_snapshot(args.field)
    guess = BubbleParams(lam=guess_raw.get("lam", 1.0), z=guess_raw["z"],
                         gamma=guess_raw.get("gamma", 0.0), v=guess_raw["v"])
    gs = solve_profile(args.p, u.grid.d)
    res = decompose(u, guess, gs, mode=args.mode)
    print(json.dumps({
        "lam": res.params.lam, "z": list(res.params.z), "gamma": res.params.gamma,
        "v": list(res.params.v), "eps_h1": error_h1(u, res.params, gs),
        "projections": {k: (list(v) if isinstance(v, np.ndarray) else v)
                        for k, v in res.projections.items()},
        "newton_iters": res.newton_iters}, indent=2))
    return 0


def _load_shoot_config(path) -> ex.ShootConfig:
    raw = parse_config_file(path)
    known = set(ex.ShootConfig.__dataclass_fields__)
    unknown = sorted(set(raw) - known)
    if unknown:
        raise InvalidConfig(f"{path}: unknown keys {', '.join(unknown)}; "
                            f"known keys are {', '.join(sorted(known))}")
    return ex.ShootConfig(**raw)


def _check_out_dirs(*paths) -> None:
    """Fail before any shot runs when an output file's directory is missing."""
    for path in paths:
        if path and not Path(path).parent.is_dir():
            raise IoFailure(f"cannot write {path}: no directory {Path(path).parent}")


def cmd_shoot(args) -> int:
    config = _load_shoot_config(args.config)
    _check_out_dirs(args.record_out, args.csv_out)
    zeta = args.zeta_sharp if args.zeta_sharp is not None \
        else 0.5 * (config.zeta_bracket[0] + config.zeta_bracket[1])
    record = ex.backward_shoot(config, zeta)
    print(json.dumps({"exit": record.exit, "phi": record.phi,
                      "deepest_s": record.deepest_s,
                      "wall_time": record.wall_time,
                      "n_samples": len(record.samples)}, indent=2))
    if args.record_out:
        record.save(args.record_out)
    if args.csv_out:
        axes = range(1, config.d + 1)
        _emit_csv(([smp["s"], smp["t"], smp["lam"], *smp["z"], smp["gamma"], *smp["v"],
                    smp["eps_h1"], smp["zeta"], smp["xi"], smp["W"]] for smp in record.samples),
                  ["s", "t", "lambda", *(f"z{i}" for i in axes), "gamma",
                   *(f"v{i}" for i in axes), "eps_h1", "zeta", "xi", "W"], args.csv_out)
    return 0


def cmd_bisect(args) -> int:
    config = _load_shoot_config(args.config)
    _check_out_dirs(args.record_out)
    out = ex.bisect_zeta(config)
    record = out["record"]
    print(json.dumps({"zeta_sharp_star": out["zeta_sharp_star"],
                      "exit": record.exit, "deepest_s": record.deepest_s,
                      "history": out["history"]}, indent=2))
    if args.record_out:
        record.save(args.record_out)
    return 0


def cmd_verify(args) -> int:
    record = ex.RunRecord.from_dict(ex.read_record_json(args.record))
    gs = solve_profile(record.config.p, record.config.d)
    sc = structure_constants(gs)
    print(json.dumps(ex.verify_regime(record, sc), indent=2))
    return 0


def cmd_diff(args) -> int:
    """Print how record B differs from record A; exit status 1 if it does.

    The records are read without the stored-hash check, so that records of
    another ``RECORD_SCHEMA`` compare; ``schema_note`` names each side whose
    hash is not of the current schema."""
    (a, schema_a), (b, schema_b) = (ex.RunRecord.from_any_schema(ex.read_record_json(path))
                                    for path in (args.a, args.b))
    report = ex.compare_records(a, b)
    notes = {side: f"stored hash is of schema {schema}, not {ex.RECORD_SCHEMA}"
             if schema is not None else
             f"stored hash matches no schema up to {ex.RECORD_SCHEMA}: an edited record"
             for side, schema in (("a", schema_a), ("b", schema_b))
             if schema != ex.RECORD_SCHEMA}
    if notes:
        report["schema_note"] = notes
    print(json.dumps(report, indent=2))
    return 0 if report["same"] else 1


def cmd_sweep(args) -> int:
    configs = [_load_shoot_config(p)
               for p in sorted(Path(args.configs).glob("*.cfg"))]
    results = ex.run_sweep(configs, args.registry)
    for res in results:
        line = {"hash": res["hash"], "status": res["status"]}
        if res["record"] is not None:
            line["exit"] = res["record"].exit
            line["wall_time"] = res["record"].wall_time
        print(json.dumps(line))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="twobubble",
                                 description="two-bubble NLS laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("groundstate", help="radial profile and constants")
    g.add_argument("--p", type=float, required=True)
    g.add_argument("--d", type=int, choices=(1, 2), required=True)
    g.add_argument("--tol", type=_tolerance, default=1e-10)
    g.add_argument("--profile-csv")
    g.set_defaults(func=cmd_groundstate)

    i = sub.add_parser("interaction", help="force law vs asymptotic")
    i.add_argument("--p", type=float, required=True)
    i.add_argument("--d", type=int, choices=(1, 2), required=True)
    i.add_argument("--z", type=_separation, nargs="+", required=True)
    i.add_argument("--out")
    i.set_defaults(func=cmd_interaction)

    r = sub.add_parser("reduced", help="modulation system or toy equation")
    r.add_argument("--mode", choices=("full", "asymptotic", "toy"), required=True)
    r.add_argument("--p", type=float, default=3.0)
    r.add_argument("--d", type=int, choices=(1, 2), default=1)
    r.add_argument("--s0", type=float, default=10.0)
    r.add_argument("--s-end", type=float, default=100.0)
    r.add_argument("--z0", type=float, default=10.0)
    r.add_argument("--zdot0", type=float, default=1.0)
    r.add_argument("--v0", type=float, default=0.1)
    r.add_argument("--gamma0", type=float, default=0.0)
    r.add_argument("--lam0", type=float, default=1.0)
    r.add_argument("--t-end", type=float, default=100.0)
    r.add_argument("--tol", type=_tolerance, default=1e-10)
    r.add_argument("--out")
    r.set_defaults(func=cmd_reduced)

    s = sub.add_parser("simulate", help="split-step run from a config file")
    s.add_argument("--config", required=True)
    s.add_argument("--out")
    s.add_argument("--snapshot-out")
    s.set_defaults(func=cmd_simulate)

    f = sub.add_parser("fit", help="modulation fit of a snapshot")
    f.add_argument("--field", required=True)
    f.add_argument("--guess", required=True, help="JSON string or file")
    f.add_argument("--p", type=float, default=3.0)
    f.add_argument("--mode", choices=("snapshot", "tracking"), default="snapshot")
    f.set_defaults(func=cmd_fit)

    sh = sub.add_parser("shoot", help="one backward run")
    sh.add_argument("--config", required=True)
    sh.add_argument("--zeta-sharp", type=float)
    sh.add_argument("--record-out")
    sh.add_argument("--csv-out")
    sh.set_defaults(func=cmd_shoot)

    b = sub.add_parser("bisect", help="topological shooting bisection")
    b.add_argument("--config", required=True)
    b.add_argument("--record-out")
    b.set_defaults(func=cmd_bisect)

    v = sub.add_parser("verify", help="regime checks on a stored record")
    v.add_argument("--record", required=True)
    v.set_defaults(func=cmd_verify)

    df = sub.add_parser("diff", help="compare two run records, wall times aside")
    df.add_argument("a")
    df.add_argument("b")
    df.set_defaults(func=cmd_diff)

    sw = sub.add_parser("sweep", help="run a directory of configs")
    sw.add_argument("--configs", required=True)
    sw.add_argument("--registry", required=True)
    sw.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    """Run one command: 0 on success; 2 on a bad argument (argparse exits);
    1 on a typed failure, named on stderr as twobubble <command>: <type>:
    <message>, and quietly when the reader closes stdout.  diff also returns
    1 when the records differ."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "reduced":
        problem = _reduced_start_error(args)
        if problem:
            parser.error(problem)
    try:
        code = args.func(args)
        sys.stdout.flush()      # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the exit's own flush goes to devnull, not to the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except TwoBubbleError as exc:
        print(f"twobubble {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
