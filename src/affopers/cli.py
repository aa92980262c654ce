"""Command-line front end: check Bethe roots, build contours, integrate
twisted periods, and run the self-check suites."""

import argparse
import json
import math
import sys

from .coeffs import Scalar
from .contour import Contour, ContourError, pochhammer
from .integrate import twisted_integral
from .miura import (MiuraData, RouteDisagreement, bethe_residuals,
                    build_miura, regularity_check)
from .oper_core import quasi_canonicalize
from .verify import SUITES, run_suite, summary_lines


# the largest models bethe-check and integrate reduce: with three points
# and one root, checking rank 8 at cutoff 40 takes about 15 s of CPU, and
# the cost grows as about cutoff^4
MAX_RANK = 8
MAX_CUTOFF = 40


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _load_model(path):
    """The MiuraData of a model file, refused above the size bounds."""
    d = MiuraData.from_json(_load(path))
    for name, value, bound in (("rank", d.model.rank, MAX_RANK),
                               ("cutoff", d.model.cutoff, MAX_CUTOFF)):
        if value > bound:
            raise ValueError(f"{name} {value} exceeds the bound {bound} "
                             f"of bethe-check and integrate")
    return d


def _fmt(scalar, where):
    """The scalar as text; ``where`` names it in the error raised when an
    integer in it has more digits than CPython converts to a string."""
    try:
        if not scalar.i:
            return str(scalar.re)
        return f"{scalar.re} + {scalar.im} i"
    except ValueError:
        raise ValueError(f"{where} has an integer of more than "
                         f"{sys.get_int_max_str_digits()} digits, too many "
                         f"to print") from None


def cmd_bethe_check(args):
    d = _load_model(args.model)
    if not d.roots:
        print("no roots to check; the data is trivially on shell")
        return 0
    # every root and residual is formatted before the reduction runs, so
    # that a value too large to print costs no reduction and leaves no
    # partial report
    shown = [(_fmt(w, f"root {i}: w"), _fmt(res, f"root {i}: the residual"))
             for i, ((w, _c), res)
             in enumerate(zip(d.roots, bethe_residuals(d)), start=1)]
    rows = regularity_check(d)
    lines = []
    for i, (row, (w, res)) in enumerate(zip(rows, shown), start=1):
        verdict = ("regular (pole-free representative)" if row["regular"]
                   else f"obstructed (pole order {row['max_pole_order']})")
        lines.append(f"root {i}: w = {w} (color {row['color']})  "
                     f"residual = {res}  ->  {verdict}")
    print("\n".join(lines))
    bad = sum(1 for r in rows if not r["regular"])
    if bad == 0:
        print(f"verdict: ON SHELL ({len(rows)} Bethe equation(s) satisfied)")
    else:
        print(f"verdict: OFF SHELL ({bad} of {len(rows)} roots obstructed)")
    if args.json:
        report = {
            "on_shell": bad == 0,
            "roots": [{
                "w": r["root"].to_json(),
                "color": r["color"],
                "residual": r["bethe_residual"].to_json(),
                "max_pole_order": r["max_pole_order"],
                "regular": r["regular"],
            } for r in rows],
        }
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
    return 0 if bad == 0 else 1


def _parse_position(text, option):
    """The Scalar of a position option: one exact/decimal real, or 're,im';
    ``option`` names it in the error raised when it does not parse."""
    if not text.strip():
        raise ValueError(f"{option}: empty value")
    parts = [t.strip() for t in text.split(",", 1)]
    try:
        return Scalar.parse(parts if len(parts) == 2 else parts[0])
    except ValueError as exc:
        raise ValueError(f"{option}: {exc}") from None
    except ZeroDivisionError:
        raise ValueError(f"{option}: zero denominator in {text!r}") from None


def cmd_make_contour(args):
    d = MiuraData.from_json(_load(args.model))
    try:
        i, j = (int(t) for t in args.pochhammer.split(","))
        if i < 0 or j < 0:
            raise IndexError
        p_i, p_j = d.points[i][0], d.points[j][0]
    except (ValueError, IndexError):
        raise ValueError(
            f"--pochhammer wants two point indices out of "
            f"0..{len(d.points) - 1}, got {args.pochhammer!r}") from None
    radius = (_parse_position(args.radius, "--radius")
              if args.radius is not None else None)
    basepoint = (_parse_position(args.basepoint, "--basepoint")
                 if args.basepoint is not None else None)
    contour = pochhammer((p_i, p_j), radius=radius, basepoint=basepoint)
    text = json.dumps(contour.to_json(), indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_integrate(args):
    # a NaN tolerance would bisect every panel to the depth cap
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be a finite number >= 0, "
                         f"got {args.tol!r}")
    d = _load_model(args.model)
    contour = Contour.from_json(_load(args.contour))
    q = quasi_canonicalize(build_miura(d))
    result = twisted_integral(d, q, args.exponent, contour,
                              abs_tol=args.tol)
    text = json.dumps(result.to_json(), indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_verify(args):
    report = run_suite(args.suite, args.seed)
    for line in summary_lines(report):
        print(line)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
    return 0 if report["passed"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="affopers",
        description="Quasi-canonical forms, Bethe equations and twisted "
                    "periods of affine opers on the projective line.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "bethe-check",
        help="check each declared root of a model against its Bethe "
             "equation and the pole-free criterion (exit 1 when off shell)")
    p.add_argument("model", help="path to a MiuraData JSON file")
    p.add_argument("--json", metavar="PATH",
                   help="also write the verdicts as JSON")
    p.set_defaults(func=cmd_bethe_check)

    p = sub.add_parser(
        "make-contour",
        help="build a contour around marked points of a model")
    p.add_argument("--model", required=True,
                   help="path to a MiuraData JSON file")
    p.add_argument("--pochhammer", required=True, metavar="I,J",
                   help="indices of the two marked points to entangle")
    p.add_argument("--radius", metavar="R",
                   help="circle radius (exact or decimal; default: a "
                        "quarter of the point distance)")
    p.add_argument("--basepoint", metavar="B",
                   help="basepoint on the segment between the circles "
                        "(one real, or 're,im')")
    p.add_argument("--out", metavar="PATH",
                   help="write the contour JSON here instead of stdout")
    p.set_defaults(func=cmd_make_contour)

    p = sub.add_parser(
        "integrate",
        help="integrate the twisted period of one canonical coefficient")
    p.add_argument("--model", required=True,
                   help="path to a MiuraData JSON file")
    p.add_argument("--contour", required=True,
                   help="path to a contour JSON file")
    p.add_argument("--exponent", required=True, type=int, metavar="R",
                   help="which coefficient v_R to integrate")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="absolute quadrature tolerance, finite and >= 0 "
                        "(default 1e-10)")
    p.add_argument("--out", metavar="PATH",
                   help="write the result JSON here instead of stdout")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser(
        "verify",
        help="run the deterministic self-check suites (exit 1 on failure)")
    p.add_argument("--suite", default="all", choices=("all",) + SUITES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", metavar="PATH",
                   help="also write the full report as JSON")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # a RouteDisagreement is a bug, not bad input; the model file replays
    # it.  OSError covers every unreadable input and unwritable output path.
    except (OSError, ContourError, ValueError, NotImplementedError,
            RouteDisagreement) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())