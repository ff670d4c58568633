"""Command-line front end.

Subcommands: cyclo, reduce, matrix, scaled-inv, expansion, sweep, verify.
Each is declared once (_command): its integer positionals, its --format
choices (the first the default) and its handler, which main calls with
the parsed arguments and the modulus of M, built once. cyclo and reduce
share one coeffs | pretty | json printer. Coefficient I/O is
degree-ascending everywhere.

Exit codes, by the type of what stopped the command: 0 success; 2 a usage
error (argparse: a negative --seed, --trials below 1) or any
errors.Refused (an input outside a stated precondition, or M, an R_M, a
sweep or a generic inverse above its ceiling, each refused before any
work), printed as `error: <Name>: <message>`; 3 UnsupportedModulus; 1 a
failed check, any other CycloringError (`error: <message>`) or a failed
internal self-check, an AssertionError (`error: self-check failed:
<message>`), each on stderr without a traceback.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections.abc import Iterator

from . import expansion as expansion_mod
from . import scaled_inverse as sinv
from . import verify as verify_mod
from .cyclotomic import make_modulus, monomial_diff, reduce, reduction_matrix
from .errors import CycloringError, Refused, UnsupportedModulus
from .poly import IntPoly


def _parse_coeffs(text: str) -> IntPoly:
    try:
        return IntPoly(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"--poly wants comma-separated integers: {exc}") from None


def _int_at_least(option: str, low: int):
    """argparse type of an integer option that must be >= low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{option} wants an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"{option} must be >= {low}, got {value}")
        return value
    return parse


# Entries of a long list of integers that the CLI renders and writes as
# one string
_PRINT_BLOCK = 4096

# Between two entries of a top-level list in a document of indent 2
_ITEM_SEP = ",\n    "


def _blocks(values, sep: str):
    """The integers of values as strings of up to _PRINT_BLOCK entries,
    each joined by sep: join them by sep again for the whole list."""
    for lo in range(0, len(values), _PRINT_BLOCK):
        yield sep.join(map(str, values[lo:lo + _PRINT_BLOCK]))


def _write_joined(parts, sep: str) -> None:
    """Write the strings of parts to stdout one at a time, sep between
    each two, so a long list is never held as one string."""
    out = sys.stdout
    for k, part in enumerate(parts):
        if k:
            out.write(sep)
        out.write(part)


def _print_json(obj: dict):
    """Print json.dumps(obj, indent=2). A top-level value of obj that is an
    iterator is a nonempty list written as it is read: it yields strings of
    one or more entries, each rendered at the list's depth but for the
    indent of its first line, and joined by _ITEM_SEP."""
    lists = [v for v in obj.values() if isinstance(v, Iterator)]
    # each list's place in the document, marked by a string that no value
    # of the CLI's documents holds
    doc = json.dumps({k: "\0" if isinstance(v, Iterator) else v
                      for k, v in obj.items()}, indent=2)
    pieces = doc.split(json.dumps("\0"))
    out = sys.stdout
    out.write(pieces[0])
    for parts, piece in zip(lists, pieces[1:]):
        out.write("[\n    ")
        _write_joined(parts, _ITEM_SEP)
        out.write("\n  ]" + piece)
    out.write("\n")


def _print_poly(fmt, m, poly):
    """Print one polynomial (IntPoly or RingElement) of m as coeffs, pretty
    or json."""
    if fmt == "coeffs":
        print(",".join(map(str, poly.coeffs)))
    elif fmt == "pretty":
        print(poly)
    else:
        _print_json({"M": m.M, "phi": m.phi, "coeffs": list(poly.coeffs)})


def _cmd_cyclo(args, m) -> int:
    _print_poly(args.format, m, m.poly)
    return 0


def _cmd_reduce(args, m) -> int:
    _print_poly(args.format, m, reduce(args.poly, m))
    return 0


def _cmd_matrix(args, m) -> int:
    R = reduction_matrix(m)
    # every format renders and writes R_M a row at a time, from the int8
    # entries, so the whole document is never held
    if args.format == "json":
        obj = dataclasses.replace(R, entries=R.entries[:0]).to_json_obj()
        obj["entries"] = (
            json.dumps(row.tolist(), indent=2).replace("\n", "\n    ")
            for row in R.entries)
        _print_json(obj)
        return 0
    # csv and pretty: one format string for every row
    if args.format == "csv":
        line = ",".join(["{}"] * m.M)
    else:
        cuts = set()
        if args.blocks and R.blocks is not None:
            cuts = {R.blocks.b1[0], R.blocks.b2[0], R.blocks.b3[0]}
        width = max(len(str(v)) for v in (R.entries.min(), R.entries.max()))
        # "| " before each cut column
        line = " ".join(("| " if c in cuts else "") + f"{{:>{width}}}"
                        for c in range(m.M))
    for row in R.entries:
        print(line.format(*row.tolist()))
    return 0


def _inverse_obj(m, si) -> dict:
    return {"M": m.M, "phi": m.phi, "coeffs": list(si.u.coeffs),
            "scale": si.scale, "norm": si.norm, "bound": si.bound,
            "case": si.case.value}


def _print_inverse(m, si, as_json):
    if as_json:
        _print_json(_inverse_obj(m, si))
    else:
        print(f"u = {si.u}")
        print(f"coeffs: {','.join(str(c) for c in si.u.coeffs)}")
        print(f"scale: {si.scale}  max-norm: {si.norm}  case: {si.case.value}")


def _cmd_scaled_inv(args, m) -> int:
    as_json = args.format == "json"
    con = gen = None
    if args.method != "bezout":
        con = sinv.construct_scaled_inverse(args.i, args.j, m)
    if args.method != "construct":
        gen = sinv.generic_scaled_inverse(monomial_diff(args.i, args.j, m))
    if args.method != "both":
        _print_inverse(m, con or gen, as_json)
        return 0
    # con is the minimal inverse gen scaled by an integer
    agree = (con.scale % gen.scale == 0
             and con.u == con.scale // gen.scale * gen.u)
    if as_json:
        _print_json({"M": m.M, "i": args.i, "j": args.j,
                     "construct": _inverse_obj(m, con),
                     "bezout": _inverse_obj(m, gen),
                     "agree": agree})
    else:
        _print_inverse(m, con, False)
        print(f"bezout scale: {gen.scale}  max-norm: {gen.norm}")
        print(f"agree: {'true' if agree else 'false'}")
    return 0 if agree else 1


def _cmd_expansion(args, m) -> int:
    if args.k is not None:
        factor, witness = expansion_mod.monomial_expansion_factor(args.k, m)
        if args.format == "json":
            _print_json({"M": m.M, "k": args.k % m.M, "factor": factor,
                         "witness_g": _blocks(witness.coeffs, _ITEM_SEP)})
        else:
            print(f"k = {args.k % m.M}: factor {factor}, witness g = {witness}")
        return 0
    report = expansion_mod.max_expansion_factor(m)
    if args.format == "json":
        _print_json({"M": m.M, "per_k": _blocks(report.per_k, _ITEM_SEP),
                     "max_factor": report.max_factor,
                     "witness_k": report.witness_k,
                     "witness_g": _blocks(report.witness_g.coeffs,
                                          _ITEM_SEP)})
    else:
        print(f"max factor: {report.max_factor} at k = {report.witness_k}")
        print(f"witness g = {report.witness_g}")
        sys.stdout.write("per-k: ")
        _write_joined(_blocks(report.per_k, ","), ",")
        print()
    return 0


def _sweep_text(profile, head, tail, sep):
    """The rows of profile as text, one string per i in `for i: for j < i`
    order: the rows head(i) + str(j) + tail(scale, norm, case) of the pairs
    (i, j), joined by sep. Each case, which fixes its scale, renders its
    tails once, one per norm value up to its maximum in profile.case_max,
    and each gap's norms are read in place, through a memoryview."""
    M = profile.modulus.M
    scales = {case: scale for scale, case, _ in profile.gaps}
    tails = {case: [tail(scales[case], v, case) for v in range(top + 1)]
             for case, (top, _, _) in profile.case_max.items()}
    gaps = [None] + [(tails[case], memoryview(norms))
                     for _, case, norms in profile.gaps]
    js = [str(j) for j in range(M)]
    for i in range(1, M):
        pre = head(i)
        yield sep.join([pre + js[j] + ends[norms[j]]
                        for j, (ends, norms) in enumerate(gaps[i:0:-1])])


def _cmd_sweep(args, m) -> int:
    profile = sinv.norm_profile(m)
    case_max = {case.value: {"norm": norm, "i": i, "j": j}
                for case, (norm, i, j) in profile.case_max.items()}
    if args.format == "json":
        # every constructed scale is minimal, so nothing is ever flagged;
        # the rows are written a row of i at a time
        _print_json({"M": m.M, "rows": _sweep_text(
            profile, lambda i: f"[\n      {i},\n      ",
            lambda scale, norm, case: (f",\n      {scale},\n      {norm},\n"
                                       f"      {json.dumps(case.value)}\n    ]"),
            _ITEM_SEP), "case_max": case_max, "flagged": []})
    else:
        print("i,j,scale,norm,case")
        _write_joined(_sweep_text(
            profile, lambda i: f"{i},",
            lambda scale, norm, case: f",{scale},{norm},{case.value}\n",
            ""), "")
        for case, info in sorted(case_max.items()):
            print(f"# max {case}: norm {info['norm']} at "
                  f"(i,j)=({info['i']},{info['j']})", file=sys.stderr)
    return 0


def _cmd_verify(args, m) -> int:
    report = verify_mod.run_verify(m.M, suite=args.suite,
                                   trials=args.trials, seed=args.seed)
    if args.format == "json":
        _print_json(report.to_json_obj())
    else:
        for suite in report.suites:
            for check in suite.checks:
                status = "pass" if check.passed else "FAIL"
                line = f"[{suite.name}] {check.name}: {status}"
                if check.witness:
                    line += f"  ({check.witness})"
                print(line)
            print(f"[{suite.name}] completed in {suite.seconds:.2f}s",
                  file=sys.stderr)
        print(f"total: {report.passed} passed, {report.failed} failed")
    return 0 if report.all_passed else 1


def _command(sub, name, fn, formats, help, positionals=("M",)):
    """Add subcommand name: integer positionals, --format (choices formats,
    the first the default) and its handler fn(args, modulus of args.M).
    Returns the subparser, for the command's own options."""
    p = sub.add_parser(name, help=help)
    for arg in positionals:
        p.add_argument(arg, type=int)
    p.add_argument("--format", choices=formats, default=formats[0])
    p.set_defaults(fn=fn)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycloring",
        description="Exact computations in Z[x]/Phi_M(x) for M = p^s or "
                    "p^s q^t: cyclotomic polynomials, reduction matrices, "
                    "scaled inverses of x^i - x^j, expansion factors, and a "
                    "verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)
    poly_formats = ("coeffs", "pretty", "json")
    text_formats = ("text", "json")

    _command(sub, "cyclo", _cmd_cyclo, poly_formats, "print Phi_M")
    p = _command(sub, "reduce", _cmd_reduce, poly_formats,
                 "reduce a polynomial mod Phi_M")
    p.add_argument("--poly", type=_parse_coeffs, required=True,
                   metavar="c0,c1,...")
    p = _command(sub, "matrix", _cmd_matrix, ("pretty", "csv", "json"),
                 "print the reduction matrix R_M")
    p.add_argument("--blocks", action="store_true",
                   help="annotate the I|B1|B2|B3 column blocks when defined")
    p = _command(sub, "scaled-inv", _cmd_scaled_inv, text_formats,
                 "scaled inverse of x^i - x^j mod Phi_M", ("M", "i", "j"))
    p.add_argument("--method", choices=("construct", "bezout", "both"),
                   default="construct")
    p = _command(sub, "expansion", _cmd_expansion, text_formats,
                 "expansion factors of x^k")
    p.add_argument("--k", type=int, default=None)
    _command(sub, "sweep", _cmd_sweep, ("csv", "json"),
             "norm profile of all scaled inverses (i, j)")
    p = _command(sub, "verify", _cmd_verify, text_formats,
                 "run the verification suites")
    p.add_argument("--suite",
                   choices=("all",) + verify_mod.SUITE_NAMES, default="all")
    p.add_argument("--trials", type=_int_at_least("--trials", 1),
                   default=verify_mod.DEFAULT_TRIALS)
    p.add_argument("--seed", type=_int_at_least("--seed", 0),
                   default=verify_mod.DEFAULT_SEED)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # `--poly V` as `--poly=V`, or argparse reads a V like -1,0,2 as an option
    while "--poly" in argv[:-1]:
        k = argv.index("--poly")
        argv[k:k + 2] = [f"--poly={argv[k + 1]}"]
    args = parser.parse_args(argv)
    try:
        return args.fn(args, make_modulus(args.M))
    except UnsupportedModulus as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Refused as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except CycloringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        # an internal exact self-check (e.g. a*u = scale) failed
        print(f"error: self-check failed: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
