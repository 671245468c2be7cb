"""Command-line front end: build codes, reproduce published tables, scan, classify.

Exit codes: 0 success, 1 reproduction failure, 2 bad input or out of memory,
3 unsupported field.  Output is deterministic json-lines by default; --format
csv mirrors the same columns.  The enumeration budget honours CASTLEQEC_BUDGET.
"""

import argparse
import csv
import functools
import json
import sys

from .agcodes import CodeSequence, OnePointCode, report_fields, trace_code
from .curves import evaluation_set_from_text
from .fields import GF, UnsupportedFieldError, prime_power
from .quantum import gv_status, gv_terms, scan_sequence
from . import repro

GV_SHORT = {"below": "below", "meets": "meets", "exceeds": "exceeds", "not-applicable": "na"}


# -- output plumbing ----------------------------------------------------------


def _csv_value(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def _flatten(row):
    flat = {}
    for key, value in row.items():
        if isinstance(value, dict):
            for sub, inner in value.items():
                flat[f"{key}_{sub}"] = _csv_value(inner)
        else:
            flat[key] = _csv_value(value)
    return flat


def emit_rows(rows, fmt):
    rows = list(rows)
    if fmt == "json":
        for row in rows:
            print(json.dumps(row))
        return
    flats = [_flatten(row) for row in rows]
    columns = []
    for flat in flats:
        for column in flat:
            if column not in columns:
                columns.append(column)
    writer = csv.DictWriter(sys.stdout, fieldnames=columns, restval="")
    writer.writeheader()
    writer.writerows(flats)


def quantum_row(params):
    """The serialized form of one QuantumParams row."""
    if params.d is None:
        gv = "na"
    else:
        status, _ = gv_status(params.n, params.k, params.d, params.q)
        gv = GV_SHORT[status]
    return {
        "n": params.n,
        "k": params.k,
        "d": params.d,
        "q": params.q,
        "d_provenance": params.d_provenance,
        "construction": params.construction,
        "gv": gv,
    }


# -- subcommands --------------------------------------------------------------


def _load_eval_set(path):
    with open(path) as handle:
        text = handle.read()
    return evaluation_set_from_text(text, path)


def cmd_build(args):
    ev = _load_eval_set(args.curve_file)
    if args.m < 0:
        raise ValueError("--m must be nonnegative")
    if args.trace_to is None:
        row = OnePointCode(ev, args.m).report_row()
    else:
        small = GF(args.trace_to)
        code = trace_code(ev, args.m, small)
        row = {
            "curve": ev.curve.tag,
            "n": code.n,
            "m": args.m,
            "trace_field": small.order,
            "k": code.dimension,
            **report_fields(code),
        }
    emit_rows([row], args.format)
    return 0


def cmd_reproduce(args):
    identifiers = repro.target_ids() if args.all else [args.target]
    rows, ok = [], True
    for identifier in identifiers:
        report = repro.run_target(identifier)
        ok = ok and report.passed
        npass = sum(r.passed for r in report.results)
        print(f"{identifier}: {npass}/{len(report.results)} rows pass", file=sys.stderr)
        for result in report.results:
            rows.append(
                {
                    "target": identifier,
                    "label": result.row.label,
                    "check": result.row.check,
                    "expected": result.row.triple(),
                    "tag": result.row.tag or "",
                    "computed": "" if result.params is None else str(result.params),
                    "d_provenance": "" if result.params is None else result.params.d_provenance,
                    "gv": GV_SHORT[result.gv],
                    "status": "PASS" if result.passed else "FAIL",
                    "detail": "; ".join(result.failures + result.notes),
                }
            )
    emit_rows(rows, args.format)
    return 0 if ok else 1


def cmd_scan(args):
    ev = _load_eval_set(args.curve_file)
    seq = CodeSequence(ev)
    scanned = scan_sequence(seq, args.construction, max_i=args.max_i)
    rows = [
        {"i": i, "m": seq.pole_of_level(i) if i else None, **quantum_row(params)}
        for i, params in scanned
    ]
    emit_rows(rows, args.format)
    return 0


def cmd_gv(args):
    prime_power(args.q)  # raises UnsupportedFieldError (exit 3) unless GF(q) exists here
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    if not 0 <= args.k <= args.n:
        raise ValueError(f"--k must lie in [0, n] = [0, {args.n}], got {args.k}")
    if not 1 <= args.d <= args.n + 1:
        raise ValueError(f"--d must lie in [1, n + 1] = [1, {args.n + 1}], got {args.d}")
    status, _ = gv_status(args.n, args.k, args.d, args.q)
    lhs, rhs = gv_terms(args.n, args.k, args.d, args.q)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the integers are printed exactly at any length
    try:
        text = f"[[{args.n},{args.k},{args.d}]]_{args.q}: {status}\nlhs = {lhs}\nrhs = {rhs}"
    finally:
        sys.set_int_max_str_digits(limit)
    print(text)
    return 0


# -- parser -------------------------------------------------------------------


@functools.cache
def build_parser():
    """The argument parser, built once per process: every main call shares it."""
    parser = argparse.ArgumentParser(
        prog="castleqec",
        description="one-point AG codes on Castle curves and the quantum codes they induce",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build one code from a curve file and report it")
    p.add_argument("--curve-file", required=True, help="JSON curve descriptor")
    p.add_argument("--m", type=int, required=True, help="pole order bound of the divisor mQ")
    p.add_argument("--trace-to", type=int, metavar="Q", help="report the trace code down to GF(Q)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("reproduce", help="check built-in expected parameter tables")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--target", choices=repro.target_ids(), help="one target id")
    group.add_argument("--all", action="store_true", help="run every target")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("scan", help="emit one quantum row per admissible sequence level")
    p.add_argument("--curve-file", required=True, help="JSON curve descriptor")
    p.add_argument("--construction", choices=("A", "B", "C", "hermitian"), required=True)
    p.add_argument("--max-i", type=int, help="stop after this many levels")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("gv", help="classify [[n,k,d]]_q against the GV threshold")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_gv)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedFieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the array's shape and bytes
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
