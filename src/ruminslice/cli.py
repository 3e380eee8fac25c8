"""Command-line interface.

Subcommands:

    verify-complex --n {1,2} [--seed S] [--count C]
    verify-lemmas  --n {1,2} [--seed S] [--count C]
    slice  --chain F --f EXPR --t V [--minus] [--out PATH]
    coarea --chain F --f EXPR --a A --b B --grid M [--out CSV] [--tol T]
    report --chain F --f EXPR [--levels N] [--properties LIST]

Exit status: 0 when every requested check passes, 1 on a failed check,
2 on scope or usage errors (middle-dimension requests, degenerate
levels, malformed files, bad flags).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .errors import (
    ChainFormatError,
    DegenerateLevelError,
    MiddleDimensionError,
    ParameterError,
)
from .formio import (
    MAX_LITERAL_DIGITS,
    chain_to_dict,
    coarea_csv_lines,
    load_chain,
    parse_affine,
)
from .slicing import coarea_sweep, property_report, slice_minus, slice_plus
from .verify import complex_battery, lemma_battery, run_batteries


def _fraction(text: str) -> Fraction:
    """A level literal ("1/3", "0.25", "1e-4") as an exact Fraction.

    Each side of the slash, its digits plus its decimal exponent, may not
    exceed ``MAX_LITERAL_DIGITS``; this is checked on the text before
    ``Fraction()`` runs, so a huge exponent is never expanded.
    """
    for part in text.split("/"):
        size = sum(c.isdigit() for c in part)
        exponent = re.search(r"[eE]([-+]?\d+)", part)
        if size <= MAX_LITERAL_DIGITS and exponent:
            size += abs(int(exponent.group(1)))
        if size > MAX_LITERAL_DIGITS:
            raise argparse.ArgumentTypeError(
                f"literal of {size} digits, exponent included; "
                f"the limit is {MAX_LITERAL_DIGITS}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruminslice",
        description="Exact exterior calculus on the Heisenberg group and slicing of simplicial currents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("verify-complex", help="exactness and quotient checks for the complex")
    pc.add_argument("--n", type=int, choices=(1, 2), required=True)
    pc.add_argument("--seed", type=int, default=7)
    pc.add_argument("--count", type=int, default=100)

    pl = sub.add_parser("verify-lemmas", help="commutation identity batteries")
    pl.add_argument("--n", type=int, choices=(1, 2), required=True)
    pl.add_argument("--seed", type=int, default=7)
    pl.add_argument("--count", type=int, default=50)

    ps = sub.add_parser("slice", help="slice a chain at one level")
    ps.add_argument("--chain", required=True)
    ps.add_argument("--f", required=True, dest="func")
    ps.add_argument("--t", required=True, type=_fraction)
    ps.add_argument("--minus", action="store_true")
    ps.add_argument("--out")

    pa = sub.add_parser("coarea", help="slice-mass sweep with the coarea ratio")
    pa.add_argument("--chain", required=True)
    pa.add_argument("--f", required=True, dest="func")
    pa.add_argument("--a", required=True, type=_fraction)
    pa.add_argument("--b", required=True, type=_fraction)
    pa.add_argument("--grid", required=True, type=int)
    pa.add_argument("--out")
    pa.add_argument("--tol", type=float, default=1e-2)

    pr = sub.add_parser("report", help="the seven slicing properties on a chain")
    pr.add_argument("--chain", required=True)
    pr.add_argument("--f", required=True, dest="func")
    pr.add_argument("--levels", type=int, default=8)
    pr.add_argument("--properties",
                    help="comma-separated subset of 0..6; default all applicable")
    return parser


def _load(args):
    chain = load_chain(args.chain)
    f = parse_affine(args.func, chain.params)
    return chain, f


def _cmd_verify_complex(args) -> int:
    lines, ok = run_batteries([complex_battery(args.n, args.seed, args.count)])
    print("\n".join(lines))
    return 0 if ok else 1


def _cmd_verify_lemmas(args) -> int:
    lines, ok = run_batteries([lemma_battery(args.n, args.seed, args.count)])
    print("\n".join(lines))
    return 0 if ok else 1


def _cmd_slice(args) -> int:
    chain, f = _load(args)
    result = slice_minus(chain, f, args.t) if args.minus else slice_plus(chain, f, args.t)
    side = "-" if args.minus else "+"
    # built first: a chain that cannot be written fails before any output
    payload = json.dumps(chain_to_dict(result.chain), indent=1)
    print(f"slice side {side} at t = {args.t}")
    print(f"simplices {len(result.chain.simplices)}")
    print(f"mass {float(result.mass):.12g}")
    print(f"residual {result.residual:.3e}")
    if result.middle_dimension:
        print("note: k = n slice; excluded from mass-bound reports (open middle-dimension case)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"chain written to {args.out}")
    else:
        print(payload)
    return 0


def _cmd_coarea(args) -> int:
    chain, f = _load(args)
    result = coarea_sweep(chain, f, args.a, args.b, args.grid)
    lines = coarea_csv_lines(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"csv written to {args.out}")
    else:
        print("\n".join(lines))
    ok = result.ratio <= 1 + args.tol
    print(f"integral {float(result.integral):.12g}")
    print(f"ratio {result.ratio:.12g} bound {1 + args.tol:.12g} [{'PASS' if ok else 'FAIL'}]")
    return 0 if ok else 1


def _cmd_report(args) -> int:
    chain, f = _load(args)
    values = sorted({f(v) for v in chain.vertices()})
    lo, hi = values[0], values[-1]
    if not lo < hi:
        raise ParameterError("the function is constant on the chain; nothing to slice")
    count = max(1, args.levels)
    samples = [lo + (hi - lo) * Fraction(2 * i + 1, 2 * count) for i in range(count)]
    wanted = None
    if args.properties:
        try:
            wanted = {int(p) for p in args.properties.split(",")}
        except ValueError as exc:
            raise ParameterError(f"--properties needs integers 0..6: {exc}") from exc
        if not wanted <= set(range(7)):
            raise ParameterError(f"--properties entries must be 0..6, got {sorted(wanted)}")
    report = property_report(chain, f, samples, properties=wanted)
    print("\n".join(report.lines()))
    ok = report.passed()
    print("RESULT PASS" if ok else "RESULT FAIL")
    return 0 if ok else 1


_COMMANDS = {
    "verify-complex": _cmd_verify_complex,
    "verify-lemmas": _cmd_verify_lemmas,
    "slice": _cmd_slice,
    "coarea": _cmd_coarea,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (MiddleDimensionError, DegenerateLevelError) as exc:
        print(f"scope error: {exc}", file=sys.stderr)
        return 2
    except (ChainFormatError, ParameterError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
