"""Command-line entry point.

Subcommands: construct, verify, simulate, export.  Exit codes: 0 success,
1 negative finding, 2 usage error, 3 inconclusive (budget exhausted).
Reports are single-line JSON envelopes echoing their inputs for
reproducibility.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys

from . import __version__
from .catalog import construct_by_name
from .errors import UpoblabError
from .matrix import DEFAULT_TOL, Tolerance
from .product import OperatorSet
from .unextend import (
    DEFAULT_BUDGET,
    DEFAULT_ITERS,
    DEFAULT_RESTARTS,
    DEFAULT_SEED,
    UNKNOWN,
    classify,
)
from .locc import genuine_nonlocality_evidence, run_three_ebit_protocol

log = logging.getLogger("upoblab")


def _envelope(command: str, inputs: dict, tol: Tolerance, result) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "tolerance": {"eps": tol.eps},
        "result": result,
        "version": __version__,
    }


def _emit(payload: dict, out: str | None):
    text = json.dumps(payload)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_construct(args) -> int:
    op_set = construct_by_name(args.name, args.base)
    payload = _envelope(
        "construct",
        {"name": args.name, "base": args.base},
        DEFAULT_TOL,
        op_set.to_json(),
    )
    _emit(payload, args.out)
    log.info("constructed %s with %d members", args.name, len(op_set))
    return 0


def cmd_export(args) -> int:
    op_set = construct_by_name(args.set, args.base)
    _emit(op_set.to_json(), args.out)
    return 0


def cmd_verify(args) -> int:
    with open(args.set, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if isinstance(obj, dict) and "result" in obj and "members" not in obj:
        obj = obj["result"]  # accept construct envelopes as well
    op_set = OperatorSet.from_json(obj)
    tol = Tolerance(args.tol)
    cls = classify(
        op_set,
        tol,
        budget=args.budget,
        restarts=args.restarts,
        iters=args.iters,
        seed=args.seed,
    )
    payload = _envelope(
        "verify",
        {"set": args.set, "budget": args.budget, "seed": args.seed},
        tol,
        cls.to_json(),
    )
    _emit(payload, args.json)
    if cls.verdict_labels:
        return 0
    if cls.upob.status == UNKNOWN:
        return 3
    return 1


def cmd_simulate(args) -> int:
    tol = Tolerance(args.tol)
    if args.protocol == "three-ebit":
        trace = run_three_ebit_protocol(tol=tol)
        ok = trace.ebits_consumed == 3 and all(
            d != "unresolved" for d in trace.terminal_disposition.values()
        )
        result = trace.to_json()
    elif args.protocol == "nonlocality-evidence":
        report = genuine_nonlocality_evidence(tol=tol)
        ok = report["all_passed"]
        result = report
    else:
        print(f"unknown protocol {args.protocol!r}", file=sys.stderr)
        return 2
    payload = _envelope("simulate", {"protocol": args.protocol}, tol, result)
    _emit(payload, args.json)
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing fills a new
    namespace on every call and leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="upoblab",
        description="Construct, certify and simulate unextendible product operator bases",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a catalog operator set as JSON")
    p.add_argument("--name", required=True)
    p.add_argument("--base", default=None, help="base set for lift:q")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("export", help="emit an OperatorSet JSON without envelope")
    p.add_argument("--set", required=True, help="catalog name")
    p.add_argument("--base", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("verify", help="classify an operator set file")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL.eps, help="absolute tolerance")
    p.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    p.add_argument("--set", required=True, help="OperatorSet JSON file")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    p.add_argument("--iters", type=int, default=DEFAULT_ITERS)
    p.add_argument("--json", default=None, help="write the report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="run a protocol replay")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL.eps, help="absolute tolerance")
    p.add_argument("--protocol", required=True)
    p.add_argument("--json", default=None, help="write the trace here")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("UPOBLAB_LOG", "error").upper()
    logging.basicConfig(level=getattr(logging, level, logging.ERROR))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else int(exc.code or 0)
    try:
        return args.func(args)
    except (
        UpoblabError,
        OSError,
        UnicodeDecodeError,
        json.JSONDecodeError,
        KeyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
