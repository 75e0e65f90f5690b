"""Command-line driver for convergence studies.

Exit codes: 0 success, 2 configuration error, 3 assembly/solver error.
Diagnostics go to stderr; the study summary and any rate fit go to stdout.
"""

import argparse
import os
import sys

from .problems import BUILTIN_NAMES, ConfigError, builtin, parse_problem_config
from .study import (InsufficientDataError, StudyError, compare_methods,
                    convergence_study, emit_csv, rate_fit)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slsolve",
        description="Compute eigenvalues of singular Sturm-Liouville problems "
                    "by sinc collocation with single- or double-exponential "
                    "variable transformations.",
    )
    parser.add_argument("--problem", required=True,
                        help="bessel | laguerre | singular | path to a problem config file")
    parser.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                        help="builtin problem parameter (bessel: n, laguerre: alpha, "
                             "singular: kappa); repeatable")
    parser.add_argument("--method", choices=("se", "de"),
                        help="transformation to use (give this or --compare)")
    parser.add_argument("--balanced", action="store_true",
                        help="unequal-tail DE truncation instead of M = N (--method de only)")
    parser.add_argument("--kappa", type=float,
                        help="scale of the whole-line DE map (singular problem); "
                             "the same as --param kappa=KAPPA given last")
    parser.add_argument("--n-min", type=int, required=True)
    parser.add_argument("--n-max", type=int, required=True)
    parser.add_argument("--eig-index", type=int, default=1,
                        help="1-based index into the ascending spectrum (default 1)")
    parser.add_argument("--compare", action="store_true",
                        help="run every applicable method variant (instead of --method)")
    parser.add_argument("--rate-fit", action="store_true",
                        help="fit log(error) against n/log(n) and report the slope")
    parser.add_argument("--output", required=True,
                        help="destination CSV path, checked before the study runs and "
                             "written after it succeeds")
    return parser


def _parse_params(pairs):
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--param expects NAME=VALUE, got {pair!r}")
        name, value = pair.split("=", 1)
        try:
            params[name.strip()] = float(value)
        except ValueError:
            raise ConfigError(f"--param {name.strip()!r} must be numeric, got {value!r}") from None
    return params


def _load_problem(args):
    if args.problem in BUILTIN_NAMES:
        params = _parse_params(args.param)
        if args.kappa is not None:
            params["kappa"] = args.kappa
        return builtin(args.problem, **params)
    if args.param or args.kappa is not None:
        raise ConfigError("--param and --kappa only apply to builtin problems")
    try:
        with open(args.problem) as handle:
            text = handle.read()
    except FileNotFoundError:
        raise ConfigError(f"no such builtin problem or config file: {args.problem!r}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {args.problem!r}: {exc.strerror}") from None
    return parse_problem_config(text)


def _report_fit(label, records):
    try:
        kappa_hat, r_squared = rate_fit(records)
    except InsufficientDataError as exc:
        print(f"rate-fit {label}: {exc}", file=sys.stderr)
        return
    print(f"rate-fit {label}: kappa_hat={kappa_hat:.6g} r_squared={r_squared:.4f}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    created = False  # the probe made args.output, so a failed run removes it
    try:
        if args.n_min < 1 or args.n_max < args.n_min:
            raise ConfigError(f"invalid refinement range [{args.n_min}, {args.n_max}]")
        if args.compare == (args.method is not None):
            raise ConfigError("exactly one of --method and --compare is required")
        if args.balanced and args.method != "de":
            raise ConfigError("--balanced applies only to --method de")
        # The study cuts a range that runs past the size budget, however far.
        ns = range(args.n_min, args.n_max + 1)
        problem = _load_problem(args)

        # Probed before the study, so an unwritable destination costs no
        # solve; an existing file is opened in append mode, so a run that
        # fails leaves it as it was.  It is written once the records exist.
        try:
            open(args.output, "x").close()
            created = True
        except FileExistsError:
            open(args.output, "a").close()
        if args.compare:
            if args.problem == "singular" and problem.de_profile.kappa != 1.0:
                # Compare the plain whole-line map against the requested one.
                series = compare_methods(builtin("singular", kappa=1.0), ns,
                                         eig_index=args.eig_index, adapted=problem)
            else:
                series = compare_methods(problem, ns, eig_index=args.eig_index)
            records = [r for recs in series.values() for r in recs]
            if args.rate_fit:
                for label, recs in series.items():
                    _report_fit(label, recs)
        else:
            records = convergence_study(problem, args.method, ns,
                                        (args.eig_index,), balanced=args.balanced)
            if args.rate_fit:
                _report_fit(args.method, records)
        with open(args.output, "w", newline="") as handle:
            emit_csv(records, handle)
        created = False
        print(f"wrote {len(records)} records to {args.output}")
        return 0
    except (ValueError, OSError) as exc:
        # OSError: the CSV destination cannot be written.
        print(f"slsolve: configuration error: {exc}", file=sys.stderr)
        return 2
    except StudyError as exc:
        print(f"slsolve: solver error: {exc}", file=sys.stderr)
        return 3
    finally:
        if created:
            os.remove(args.output)


if __name__ == "__main__":
    sys.exit(main())
