"""Command-line interface: JSON in, JSON report envelopes out.

Subcommands
-----------
classify     classify a channel JSON file
super        check a superchannel JSON file
generate     emit a random schema-valid instance
repro-paper  re-run the bundled reference examples and report pass/fail

stdout carries data, stderr carries diagnostics.  Exit codes: 0 success,
1 I/O or schema error, 2 invalid (non-CP channel / inadmissible
superchannel).  Identical inputs and flags produce byte-identical
envelopes.
"""

import argparse
import json
import sys

from . import __version__
from . import channels as ch
from . import jsonio
from . import states as st
from . import superchannels as sch
from .errors import (
    GaussSteerError,
    InvalidChannelError,
    InvalidSuperchannelError,
)
from .repro import run_reference_suite
from .symplectic import TOL, ModePartition

GENERATE_KINDS = ("state", "unsteerable-state", "channel", "superchannel")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gauss-steer",
        description=(
            "Classify Gaussian channels and superchannels against the "
            "steering-related channel classes, with certificates."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=float, default=TOL, help="relative PSD tolerance")

    def add_seed(p):
        p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")

    p = sub.add_parser("classify", help="classify a channel JSON file")
    p.add_argument("channel_file", help="path to a channel JSON object")
    add_common(p)

    p = sub.add_parser("super", help="check a superchannel JSON file")
    p.add_argument("superchannel_file", help="path to a superchannel JSON object")
    add_common(p)

    p = sub.add_parser("generate", help="emit a random schema-valid instance")
    p.add_argument("kind", choices=GENERATE_KINDS)
    p.add_argument(
        "--modes",
        nargs=2,
        type=int,
        default=(1, 1),
        metavar=("M", "N"),
        help="mode partition (default 1 1)",
    )
    add_seed(p)

    p = sub.add_parser(
        "repro-paper",
        help="re-run the bundled reference examples and print a pass/fail table",
    )
    add_common(p)
    add_seed(p)
    p.add_argument("--json", action="store_true", help="machine-readable envelope")
    return parser


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return jsonio.loads_strict(text)


def _envelope(command: str, tol: float, **body):
    out = {
        "tool": "gauss-steer",
        "version": __version__,
        "command": command,
        "tol": tol,
    }
    out.update(body)
    return out


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def cmd_classify(args) -> int:
    obj = _read_json(args.channel_file)
    channel = jsonio.channel_from_dict(obj)
    report = ch.classify(channel, args.tol)
    _emit(
        _envelope(
            "classify", args.tol, input=obj, report=jsonio.report_to_dict(report)
        )
    )
    return 0


def cmd_super(args) -> int:
    obj = _read_json(args.superchannel_file)
    sc = jsonio.superchannel_from_dict(obj)
    # certifies admissibility, or raises; the US legs then presume it
    mus = jsonio.verdict_to_dict(sch.mus_sufficient(sc, args.tol))
    us_psd, residual, us_ok = sch._us_evidence(sc, args.tol)
    verdicts = {
        "valid": True,
        "us_sufficient": us_ok,
        "us_evidence": {
            "psd": jsonio.psd_check_to_dict(us_psd),
            "orthogonality_residual": residual,
        },
        "mus_sufficient": mus,
        # the 0.2 envelope's name for the same verdict
        "chain_mus": mus,
    }
    _emit(_envelope("super", args.tol, input=obj, verdicts=verdicts))
    return 0


def cmd_generate(args) -> int:
    m, n = args.modes
    part = ModePartition(m, n)
    if args.kind == "state":
        obj = jsonio.state_to_dict(st.random_state(part, args.seed))
    elif args.kind == "unsteerable-state":
        obj = jsonio.state_to_dict(st.random_unsteerable_state(part, args.seed))
    elif args.kind == "channel":
        obj = jsonio.channel_to_dict(ch.random_channel(part, args.seed))
    else:
        obj = jsonio.superchannel_to_dict(sch.random_superchannel(part, args.seed))
    _emit(obj)
    return 0


def cmd_repro_paper(args) -> int:
    rows = run_reference_suite(args.tol, args.seed)
    all_pass = all(row.passed for row in rows)
    if args.json:
        _emit(
            _envelope(
                "repro-paper",
                args.tol,
                seed=args.seed,
                rows=[
                    {
                        "name": row.name,
                        "passed": row.passed,
                        "detail": row.detail,
                        "evidence": row.evidence,
                    }
                    for row in rows
                ],
                all_pass=all_pass,
            )
        )
    else:
        width = max(len(row.name) for row in rows)
        print(f"reference suite (tol={args.tol:g}, seed={args.seed})")
        for row in rows:
            mark = "PASS" if row.passed else "FAIL"
            print(f"  [{mark}] {row.name:<{width}}  {row.detail}")
        print(f"{sum(r.passed for r in rows)}/{len(rows)} rows passed")
    return 0 if all_pass else 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "classify": cmd_classify,
        "super": cmd_super,
        "generate": cmd_generate,
        "repro-paper": cmd_repro_paper,
    }
    try:
        return handlers[args.command](args)
    except (InvalidChannelError, InvalidSuperchannelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}",
            file=sys.stderr,
        )
        return 1
    except (jsonio.SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GaussSteerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
