"""Command-line interface.

Subcommands:

  verify     run identity checks (glob-filtered), emit a report; exit 1
             if a check failed or every selected check was skipped
  powsum     one multiple twisted power sum, exactly
  partial    a truncated zeta value, exactly
  bg         a finite zeta sum at a negative integer, with its degree and
             closed-form cross-checks
  bg-survey  the per-irreducible congruence table for one degree
  zeta       a zeta value as a truncated series in 1/theta
  skew       a twisted power sum in the skew ring

Matrix data is written as comma-separated columns `semichar:weight`, with
semi-characters like `1`, `t1`, `t1*t2`, `nu1`, or `c(2)`.
"""

import argparse
import json
import sys

from . import checks
from .errors import CarlitzError
from .ffield import FieldContext
from .mzv import bernoulli_goss, bg_congruence_survey, bg_degree_formula, \
    bg_formula_rhs, multi_power_sum, partial_zeta
from .powersums import SeqCache
from .skew import frak_S
from .tate import zeta_series
from .textio import format_skew, format_tpoly, parse_matrix_data


def _add_common(p, csv=False):
    p.add_argument("--q", type=int, default=3, help="field size q = p^e > 2")
    p.add_argument("--budget", type=int, default=checks.DEFAULT_PARAMS["budget"],
                   help="largest allowed monic enumeration")
    # csv only for the commands whose output is a table
    formats = ("text", "json", "csv") if csv else ("text", "json")
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--out", help="write output to this path instead of stdout")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="carlitz",
        description="Exact function-field zeta arithmetic and its verification suite.")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the identity verification suite")
    _add_common(v, csv=True)  # its fields use the built-in moduli
    v.set_defaults(q=None)  # bare `verify` sweeps the profile's q list
    v.add_argument("--suite", default="all", help="check id or glob (default: all)")
    v.add_argument("--d-max", type=int, default=None)
    v.add_argument("--prec", type=int, default=None)
    v.add_argument("--profile", choices=("default", "deep"), default="default")
    v.add_argument("--qs", default=None,
                   help="comma-separated list of q values (overrides --q)")

    for name, extra in (
            ("powsum", (("--d", int, True), ("--data", str, True))),
            ("partial", (("--d", int, True), ("--data", str, True))),
            ("zeta", (("--data", str, True), ("--prec", int, True))),
            ("bg", (("--n", int, False), ("--d", int, False))),
            ("bg-survey", (("--d", int, True),)),
            ("skew", (("--d", int, True), ("--n", int, True)))):
        p = sub.add_parser(name)
        _add_common(p, csv=name == "bg-survey")
        p.add_argument("--modulus", help="comma-separated F_p coefficients of "
                       "a custom modulus for extension fields, ascending")
        for flag, typ, required in extra:
            p.add_argument(flag, type=typ, required=required)
        if name in ("powsum", "partial", "zeta"):
            p.add_argument("--vars", type=int, default=None,
                           help="arity of the t-variables (default: inferred)")
            p.add_argument("--star", action="store_true",
                           help="weakly decreasing inner chains")
    return ap


def _emit(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _context(args):
    modulus = None
    if args.modulus:
        modulus = tuple(int(c) for c in args.modulus.split(","))
    ctx = FieldContext(args.q, modulus)
    return ctx, SeqCache(ctx, budget=args.budget)


def _wrap_value(args, payload):
    if args.format == "json":
        return json.dumps(payload, sort_keys=True, indent=2)
    return "\n".join(f"{k}: {v}" for k, v in payload.items())


def cmd_verify(args):
    params = {"profile": args.profile, "budget": args.budget}
    if args.qs:
        params["qs"] = tuple(int(x) for x in args.qs.split(","))
    elif args.q is not None:
        params["qs"] = (args.q,)
    if args.d_max is not None:
        params["d_max"] = args.d_max
    if args.prec is not None:
        params["prec"] = args.prec
    reports = checks.run_suite(args.suite, **params)
    if args.format == "json":
        _emit(args, checks.reports_to_json(reports))
    elif args.format == "csv":
        _emit(args, checks.reports_to_csv(reports))
    else:
        _emit(args, checks.reports_to_text(reports))
    return checks.exit_code(reports)


def cmd_powsum(args):
    ctx, cache = _context(args)
    data = parse_matrix_data(ctx, args.data, s=args.vars)
    value = multi_power_sum(cache, args.d, data,
                            mode="star" if args.star else "strict")
    return _wrap_value(args, {"q": ctx.q, "d": args.d, "data": repr(data),
                              "mode": "star" if args.star else "strict",
                              "value": format_tpoly(value)})


def cmd_partial(args):
    ctx, cache = _context(args)
    data = parse_matrix_data(ctx, args.data, s=args.vars)
    value = partial_zeta(cache, args.d, data,
                         mode="star" if args.star else "strict")
    return _wrap_value(args, {"q": ctx.q, "d": args.d, "data": repr(data),
                              "value": format_tpoly(value)})


def cmd_zeta(args):
    ctx, cache = _context(args)
    data = parse_matrix_data(ctx, args.data, s=args.vars)
    value = zeta_series(cache, data, args.prec,
                        mode="star" if args.star else "strict")
    return _wrap_value(args, {"q": ctx.q, "prec": args.prec, "data": repr(data),
                              "value": repr(value)})


def cmd_bg(args):
    ctx, cache = _context(args)
    if args.n is None and args.d is None:
        raise CarlitzError("bg needs --n or --d")
    payload = {"q": ctx.q}
    if args.d is not None:
        n = ctx.q ** args.d - 2
        bg = bernoulli_goss(cache, n)
        pred = bg_degree_formula(ctx.q, args.d)
        rhs = bg_formula_rhs(cache, args.d)
        payload.update({
            "n": n, "value": repr(bg.value), "degree": bg.value.degree,
            "degree_formula": pred.degree,
            "degree_matches": bg.value.degree == pred.degree,
            "double_sum_matches": bg.value == rhs,
        })
    else:
        bg = bernoulli_goss(cache, args.n)
        payload.update({"n": args.n, "value": repr(bg.value),
                        "degree": bg.value.degree, "summed_degrees": bg.k_stop + 1})
    return _wrap_value(args, payload)


def cmd_bg_survey(args):
    ctx, cache = _context(args)
    sv = bg_congruence_survey(cache, args.d)
    rows = [{"modulus": repr(r.modulus), "bg_residue": repr(r.bg_residue),
             "zeta_residue": repr(r.partial_zeta_residue),
             "congruent": r.congruent, "bg_vanishes": r.bg_vanishes}
            for r in sv.rows]
    summary = {"q": ctx.q, "d": sv.d, "n": sv.n, "zero_count": sv.zero_count,
               "zero_bound": sv.zero_bound,
               "irreducible_count": sv.irreducible_count,
               "necklace_value": sv.necklace_value,
               "all_congruent": sv.all_congruent,
               "bound_holds": sv.bound_holds}
    if args.format == "json":
        return json.dumps({"summary": summary, "rows": rows},
                          sort_keys=True, indent=2)
    if args.format == "csv":
        import csv
        import io
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["modulus", "bg_residue", "zeta_residue", "congruent",
                    "bg_vanishes"])
        for r in rows:
            w.writerow([r["modulus"], r["bg_residue"], r["zeta_residue"],
                        r["congruent"], r["bg_vanishes"]])
        return buf.getvalue().rstrip("\n")
    lines = [f"{k}: {v}" for k, v in summary.items()]
    lines += [f"  P = {r['modulus']}: bg = {r['bg_residue']}, "
              f"zeta = {r['zeta_residue']}, congruent = {r['congruent']}"
              for r in rows]
    return "\n".join(lines)


def cmd_skew(args):
    ctx, cache = _context(args)
    value = frak_S(cache, args.d, args.n)
    return _wrap_value(args, {"q": ctx.q, "d": args.d, "n": args.n,
                              "value": format_skew(value)})


_COMMANDS = {
    "verify": cmd_verify,
    "powsum": cmd_powsum,
    "partial": cmd_partial,
    "zeta": cmd_zeta,
    "bg": cmd_bg,
    "bg-survey": cmd_bg_survey,
    "skew": cmd_skew,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        result = _COMMANDS[args.command](args)
    except CarlitzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(result, int):
        return result
    _emit(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
