"""Command-line entry point.

Subcommands:

* ``run``            execute an experiment and write its artifacts
* ``validate``       print the admissibility report for a configuration
* ``export-matrix``  write the configured CT system matrix as text

Exit codes: 0 success, 2 configuration error, 3 solver failure (the inner
solver missed its gap target, or the run's numbers went non-finite).
"""

import argparse
import sys

from . import harness, tomo

SOLVER_FAILURES = {
    "inner-failure": "inner solver failed to reach its gap target",
    "non-finite": "the run's numbers went non-finite (inf or nan)",
}


def _add_source_args(parser):
    parser.add_argument("--config", metavar="PATH", help="flat key = value config file")
    parser.add_argument(
        "--preset", metavar="NAME",
        help="named preset (%s)" % ", ".join(sorted(harness.PRESETS)),
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lkreg",
        description="Landweber-Kaczmarz iterative regularization harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment")
    _add_source_args(p_run)
    p_run.add_argument("--out", metavar="DIR", help="output directory")
    p_run.add_argument("--seed", type=int, metavar="N", help="noise seed override")

    p_val = sub.add_parser("validate", help="report step-size admissibility")
    _add_source_args(p_val)

    p_exp = sub.add_parser("export-matrix", help="export the CT system matrix")
    _add_source_args(p_exp)
    p_exp.add_argument("--out", metavar="FILE", default="matrix.txt",
                       help="output file (default matrix.txt)")
    return parser


def _load_config(args, **overrides):
    if args.config is None and args.preset is None:
        raise harness.ConfigError("provide --config and/or --preset")
    return harness.make_config(preset=args.preset, config_path=args.config, **overrides)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _load_config(args, seed=args.seed, out_dir=args.out)
            _, trace, summary = harness.run_experiment(cfg)
            print(
                f"terminated_by={summary['terminated_by']} n_final={summary['n_final']} "
                f"residual={summary['residual_final']:.6g}"
            )
            if trace.terminated_by in SOLVER_FAILURES:
                print(SOLVER_FAILURES[trace.terminated_by], file=sys.stderr)
                return 3
            return 0
        if args.command == "validate":
            cfg = _load_config(args)
            for line in harness.validation_lines(cfg):
                print(line)
            return 0
        if args.command == "export-matrix":
            cfg = _load_config(args)
            if cfg.problem != "ct":
                raise harness.ConfigError("export-matrix requires a CT configuration")
            geom = harness.ct_geometry(cfg)
            matrix = tomo.build_parallel_tomo(geom)
            tomo.save_matrix_coo(args.out, matrix)
            print(f"wrote {matrix.shape[0]}x{matrix.shape[1]} matrix "
                  f"({matrix.nnz} entries) to {args.out}")
            return 0
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
