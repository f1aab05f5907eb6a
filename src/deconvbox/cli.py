"""Command-line surface tying the library into reproducible experiments.

Subcommands: simulate, verify-operators, absorb-probe, deconv-table,
energy-check. Exit codes: 0 success, 1 validation error, 2 numerical
failure (blow-up, failed checks, energy-check order < 1.5), 3 IO error.
"""

from __future__ import annotations

import argparse
import math
import sys

from .attractor import ensemble_absorb_probe
from .config import ConfigError, parse_config
from .deconv import SymbolTable
from .solver import BlowUpError, energy_refinement_study, simulate_with_state
from .spectral import make_grid
from .storage import write_snapshot, write_timeseries
from .verify import run_operator_checks

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

ENERGY_ORDER_FLOOR = 1.5  # energy-check's least observed order; the stepper is second order


def _load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    try:
        traj, state = simulate_with_state(config)
    except BlowUpError as err:
        print(f"blow-up: solution lost finiteness after t = {err.t_last}", file=sys.stderr)
        if err.trajectory is not None and args.output:
            write_timeseries(err.trajectory, args.output)
            print(f"partial time series written to {args.output}", file=sys.stderr)
        return EXIT_NUMERICAL
    write_timeseries(traj, args.output)
    print(f"{len(traj)} samples written to {args.output} (t final = {traj.t[-1]})")
    if args.snapshot_out:
        write_snapshot(state, state.model, args.snapshot_out)
        print(f"final state written to {args.snapshot_out}")
    return EXIT_OK


def _cmd_verify_operators(args) -> int:
    ok = run_operator_checks(K=args.K, seed=args.seed)
    return EXIT_OK if ok else EXIT_NUMERICAL


def _cmd_absorb_probe(args) -> int:
    report = ensemble_absorb_probe(
        R=args.radius,
        rho0_prime=args.rho0_prime,
        ensemble_size=args.members,
        template=_load_config(args.config),
        keep_trajectories=False,
    )
    print(
        f"rho0 = {report.rho0:.6g}, rho0' = {report.rho0_prime:.6g}, "
        f"R = {report.R:.6g}, T0 = {report.T0:.6g}, horizon = {report.horizon:.6g}"
    )
    blow_up = False
    for m in report.members:
        if m.blow_up_time is not None:
            blow_up = True
            print(f"member {m.index}: BLOW-UP at t = {m.blow_up_time}")
        else:
            print(
                f"member {m.index}: |w0| = {m.w0_norm:.4g}, entry t = "
                f"{m.entry_time}, stayed = {m.stayed_inside}, "
                f"envelope ok = {m.bound_ok} (max ratio {m.max_bound_ratio:.4f})"
            )
    print(f"probe {'PASS' if report.passed else 'FAIL'}")
    if args.output:
        _write_probe_csv(report, args.output)
        print(f"report written to {args.output}")
    return EXIT_NUMERICAL if blow_up else EXIT_OK


def _write_probe_csv(report, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("member,seed,w0_norm,entry_time,stayed_inside,bound_ok,"
                 "max_bound_ratio,blow_up_time\n")
        for m in report.members:
            entry = "" if m.entry_time is None else repr(float(m.entry_time))
            blow = "" if m.blow_up_time is None else repr(float(m.blow_up_time))
            fh.write(
                f"{m.index},{m.seed},{float(m.w0_norm)!r},{entry},"
                f"{int(m.stayed_inside)},{int(m.bound_ok)},"
                f"{float(m.max_bound_ratio)!r},{blow}\n"
            )


def _cmd_deconv_table(args) -> int:
    if not (math.isfinite(args.k2max) and args.k2max > 0.0):
        raise ConfigError([f"k2max: must be finite and positive, got {args.k2max!r}"])
    K = 3 * math.ceil(math.sqrt(args.k2max)) + 2
    grid = make_grid(K + K % 2)
    try:
        table = SymbolTable.build(grid, args.delta, args.N)
    except RuntimeError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    lines = ["k2,g,hn"]
    for k2, g, hn in table.rows():
        if k2 <= args.k2max + 1e-12:
            lines.append(f"{k2!r},{g!r},{hn!r}")
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_energy_check(args) -> int:
    study = energy_refinement_study(_load_config(args.config), levels=args.levels)
    for dt, res in zip(study.dts, study.residuals):
        print(f"dt = {dt!r}: |energy residual at T| = {res:.6e}")
    for j, order in enumerate(study.orders):
        print(f"order between levels {j} and {j + 1}: {order:.3f}")
    print(f"observed order: {study.mean_order:.3f}")
    if not study.mean_order >= ENERGY_ORDER_FLOOR:
        print(f"observed order {study.mean_order:.3f} is below the floor {ENERGY_ORDER_FLOOR}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deconvbox",
        description="pseudo-spectral deconvolution-model toolbox for the periodic box",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one trajectory and write its time series")
    p.add_argument("--config", required=True, help="path to a key=value config file")
    p.add_argument("--output", default="timeseries.csv", help="CSV output path")
    p.add_argument("--snapshot-out", default=None, help="write the final state here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify-operators", help="run the operator property suites")
    p.add_argument("--K", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_operators)

    p = sub.add_parser("absorb-probe", help="ensemble absorbing-ball probe")
    p.add_argument("--config", required=True)
    p.add_argument("--members", type=int, default=8)
    p.add_argument("--radius", type=float, default=None, help="initial ball radius R")
    p.add_argument("--rho0-prime", dest="rho0_prime", type=float, default=None)
    p.add_argument("--output", default=None, help="per-member CSV report path")
    p.set_defaults(func=_cmd_absorb_probe)

    p = sub.add_parser("deconv-table", help="dump (k2, G, H_N) symbol rows as CSV")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k2max", type=float, default=10.0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_deconv_table)

    p = sub.add_parser("energy-check", help="dt-refinement study of the energy residual")
    p.add_argument("--config", required=True)
    p.add_argument("--levels", type=int, default=3)
    p.set_defaults(func=_cmd_energy_check)

    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; map the latter
        # onto the validation exit code.
        return EXIT_OK if exc.code in (0, None) else EXIT_VALIDATION
    try:
        return args.func(args)
    except ConfigError as err:
        for msg in err.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_VALIDATION
    except BlowUpError as err:
        print(f"blow-up: solution lost finiteness after t = {err.t_last}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return EXIT_IO
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


__all__ = [
    "EXIT_OK",
    "EXIT_VALIDATION",
    "EXIT_NUMERICAL",
    "EXIT_IO",
    "ENERGY_ORDER_FLOOR",
    "cli_main",
    "main",
]


if __name__ == "__main__":
    main()
