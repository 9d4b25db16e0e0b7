"""Command-line front end.

Subcommands: ``catalog`` (list systems and rules), ``run`` (execute a config
file), ``report`` (summarize persisted results), ``selftest`` (fast
closed-form checks).  Exit code 0 only when everything succeeded.
"""

import argparse
import sys

from . import selftest as selftest_module
from .config import load_config
from .errors import ErgolabError
from .runner import catalog_listing, load_result, report, run


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description="hitting-time and recurrence statistics on exactly "
                    "iterable model systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list catalog systems, observables, maps")

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config", help="path to a key = value config file")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: available parallelism)")
    run_p.add_argument("--precision-bits", type=int, default=None,
                       help="override fixed-point precision")
    run_p.add_argument("--output", default=None, help="override the output path")

    rep_p = sub.add_parser("report", help="summarize result files")
    rep_p.add_argument("results", nargs="+", help="result JSON paths")
    rep_p.add_argument("--out", default=None, help="write the report here")

    sub.add_parser("selftest", help="run the fast closed-form example checks")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "catalog":
            sys.stdout.write(catalog_listing())
            return 0
        if args.command == "run":
            overrides = {
                "seed": args.seed,
                "workers": args.workers,
                "precision_bits": args.precision_bits,
                "output": args.output,
            }
            config = load_config(args.config, overrides)
            result = run(config)
            wall = result["meta"]["wall_time_s"]
            sys.stdout.write(f"wrote {config.output} ({wall:.2f}s)\n")
            return 0
        if args.command == "report":
            results = [load_result(path) for path in args.results]
            text = report(results, args.out)
            sys.stdout.write(text)
            return 0
        if args.command == "selftest":
            return selftest_module.run_selftest(sys.stdout)
    except ErgolabError as exc:
        sys.stderr.write(f"error[{type(exc).__name__}]: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error[io]: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
