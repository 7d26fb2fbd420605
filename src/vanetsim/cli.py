"""Command line front end.

Subcommands: `run` executes one scenario and writes its artifacts,
`compare` runs both protocols on one scenario and prints the verdict
table, `trace-parse` validates a mobility trace file with the reader in
``tracewriter``. Exit codes: 0 success, 1 validation problem (a
malformed flag among them), 2 I/O problem, each error one ``error: ``
line on stderr.
"""

import argparse
import dataclasses
import os
import sys

from .scenario import (
    BUILTIN_SCENARIOS,
    ConfigError,
    FieldError,
    all_or_none,
    builtin_scenario,
    check_window,
    compare,
    format_comparison,
    format_report,
    load_config,
    manifest,
    run,
)
from .simulation import PROTOCOLS
from .tracewriter import parse_mobility_trace, write_text

PROTOCOL_CHOICES = [name.lower() for name in PROTOCOLS]


def _add_common_flags(parser):
    parser.add_argument("--scenario", required=True,
                        help="builtin name (%s) or path to a scenario file"
                        % ", ".join(BUILTIN_SCENARIOS))
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed (a non-negative int)")
    parser.add_argument("--duration", type=float, default=None,
                        help="override the simulated duration in seconds")
    parser.add_argument("--out", default="out",
                        help="output directory (default: out)")
    parser.add_argument("--range", type=float, default=None, dest="radio_range",
                        help="override the radio range in meters")
    parser.add_argument("--window", type=float, default=1.0,
                        help="metric averaging window in seconds (default: 1)")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are validation errors."""

    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(
        prog="vanetsim",
        description="Deterministic ad-hoc network simulator comparing "
                    "on-demand and table-driven routing.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and write artifacts")
    _add_common_flags(run_p)
    run_p.add_argument("--protocol", choices=PROTOCOL_CHOICES, default=None,
                       help="routing protocol (required for builtin scenarios)")

    cmp_p = sub.add_parser("compare",
                           help="run both protocols on one scenario")
    _add_common_flags(cmp_p)

    tp = sub.add_parser("trace-parse", help="validate a mobility trace file")
    tp.add_argument("trace_file", help="path to a trace file")
    return parser


def _override(config, name, value, flag):
    """config with field name replaced by value, a value that breaks the
    field's own rule reported under flag."""
    try:
        return dataclasses.replace(config, **{name: value})
    except FieldError as e:
        raise FieldError(flag, e.reason) if e.path == name else e


def _resolve_config(args, protocol):
    if args.scenario in BUILTIN_SCENARIOS:
        if protocol is None:
            raise ConfigError("builtin scenarios need --protocol "
                              + " or ".join(PROTOCOL_CHOICES))
        config = builtin_scenario(args.scenario, protocol)
    else:
        if not os.path.exists(args.scenario):
            raise ConfigError(
                f"scenario {args.scenario!r} is neither a builtin "
                f"({', '.join(BUILTIN_SCENARIOS)}) nor a file")
        with open(args.scenario) as fh:
            config = load_config(fh.read())
        if protocol is not None:
            config = dataclasses.replace(config, protocol=protocol)
    if args.seed is not None:
        config = _override(config, "seed", args.seed, "--seed")
    if args.duration is not None:
        config = _override(config, "duration", args.duration, "--duration")
    if args.radio_range is not None:
        config = dataclasses.replace(config, radio=_override(
            config.radio, "radio_range", args.radio_range, "--range"))
    check_window(args.window, config.duration, "--window")
    return config


def _cmd_run(args) -> int:
    protocol = args.protocol.upper() if args.protocol else None
    config = _resolve_config(args, protocol)
    report = run(config, out_dir=args.out, window=args.window)
    sys.stdout.write(format_report(report))
    return 0


def _cmd_compare(args) -> int:
    # one resolved scenario; the two runs differ only in protocol
    config = _resolve_config(args, next(iter(PROTOCOLS)))
    out_dirs = {p: os.path.join(args.out, p.lower()) for p in PROTOCOLS}
    path = os.path.join(args.out, "comparison.txt")
    files = [path] + [os.path.join(out_dir, rel)
                      for out_dir in out_dirs.values() for rel in manifest(config)]
    with all_or_none(files):  # a failed command leaves none of its files
        reports = [run(dataclasses.replace(config, protocol=p), out_dir=out_dir,
                       window=args.window) for p, out_dir in out_dirs.items()]
        text = format_comparison(compare(*reports))
        write_text(path, text)
    sys.stdout.write(text)
    return 0


def _cmd_trace_parse(args) -> int:
    with open(args.trace_file) as fh:
        records, skipped = parse_mobility_trace(fh.read())
    sys.stdout.write(
        f"{args.trace_file}: {len(records)} motion records, "
        f"{skipped} other lines\n")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return {
            "run": _cmd_run,
            "compare": _cmd_compare,
            "trace-parse": _cmd_trace_parse,
        }[args.command](args)
    except ValueError as e:  # ConfigError, TraceFormatError among them
        sys.stderr.write(f"error: {e}\n")
        return 1
    except OSError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
