"""Command line front end: construct, verify, enumerate, and search.

Exit codes: 0 pass, 1 a verified failure (a report with a witness),
2 bad input, 3 a resource cap was hit.  All scalars in output are exact
strings; nothing is ever printed in decimal.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .constructions import (FamilyParams, family_aut_search, family_with_hypotheses,
                            group_algebra, sweedler_h4)
from .hopf_core import LinearMap, check_hopf
from .rb_group import (DEFAULT_CAP, CapExceeded, _enumerate, _group_rb_report, _orbit_verdicts,
                       automorphisms, group_from_json, operator_from_json, operator_to_json)
from .rb_hopf import check_rrbo, rrb_from_json
from .rb_lie import check_lie, check_rb_lie_weight, lie_from_json
from .report import VerificationReport, first_failure, labelled, merge_reports
from .scalars import _load_json, parse_field, parse_scalar

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _tsv_cell(v) -> str:
    if isinstance(v, (dict, list)):
        return json.dumps(v, sort_keys=True)
    return str(v)


def _to_tsv(obj) -> str:
    if isinstance(obj, dict) and isinstance(obj.get("operators"), list):
        ops = obj["operators"]
        keys = sorted({k for row in ops for k in row}, key=lambda k: (k != "map", k))
        lines = ["\t".join(keys)]
        for row in ops:
            lines.append("\t".join(_tsv_cell(row.get(k, "")) for k in keys))
        return "\n".join(lines) + "\n"
    if isinstance(obj, dict):
        return "".join(f"{k}\t{_tsv_cell(v)}\n" for k, v in obj.items())
    return _tsv_cell(obj) + "\n"


def _emit(args, payload: dict) -> None:
    if args.format == "tsv":
        text = _to_tsv(payload)
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_exit(args, report: VerificationReport, extra: dict | None = None) -> int:
    payload = report.to_json()
    if extra:
        payload.update(extra)
    _emit(args, payload)
    return EXIT_PASS if report.ok else EXIT_FAIL


def _parse_coeffs(text: str, ctx) -> list:
    return [parse_scalar(part.strip(), ctx) for part in text.split(",")]


def _antipode_order_report(H) -> VerificationReport:
    """S^4 = id and S^2 != id; a failure is witnessed by the claim that fails."""
    ident = LinearMap.identity(H.ctx, H.dim)
    s2 = H.antipode.compose(H.antipode)
    cases = [((), "S^4 = id" if s2.compose(s2) == ident else "S^4 != id", "S^4 = id"),
             ((), "S^2 = id" if s2 == ident else "S^2 != id", "S^2 != id")]
    return first_failure("antipode_order_4", cases, labelled([]))


# the construction flags that each construction reads; any other is bad input
FLAGS_READ = {"group-algebra": {"group"}, "h4": set(), "taft": {"m"},
              "family": {"m", "zeta", "l", "f"}}


def _reject_unread_flags(args) -> None:
    for flag in ("m", "zeta", "l", "f", "group"):
        if getattr(args, flag, None) is not None and flag not in FLAGS_READ[args.construction]:
            raise ValueError(f"--{flag} is not read by --construction {args.construction}")


def _family_params(args, ctx) -> FamilyParams:
    """The parameters of --construction h4, taft or family."""
    if args.construction == "h4":
        return FamilyParams(2, ctx.from_int(-1), 2, None)
    if args.construction == "taft":
        if args.m is None:
            raise ValueError("--m is required for taft")
        return FamilyParams(args.m, ctx.root_of_unity(args.m), args.m, None)
    if args.construction == "family":
        if args.m is None or args.zeta is None or args.l is None:
            raise ValueError("--m, --zeta and --l are required for family")
        zeta = parse_scalar(args.zeta, ctx)
        coeffs = _parse_coeffs(args.f, ctx) if args.f is not None else None
        return FamilyParams(args.m, zeta, args.l, coeffs)
    raise ValueError(f"unknown construction {args.construction!r}")


def cmd_verify(args) -> int:
    _reject_unread_flags(args)
    ctx = parse_field(args.field)
    if args.construction == "group-algebra":
        if not args.group:
            raise ValueError("--group FILE is required for group-algebra")
        G = group_from_json(_load_json(args.group))
        H = group_algebra(G, ctx)
        return _report_exit(args, check_hopf(H), {"construction": "group-algebra",
                                                  "dim": H.dim})
    if args.construction == "h4":
        H = sweedler_h4(ctx)
        rep = merge_reports({"hopf": check_hopf(H),
                             "antipode_order_4": _antipode_order_report(H)})
        return _report_exit(args, rep, {"construction": "h4", "dim": H.dim})
    if args.construction in ("taft", "family"):
        H, hyp = family_with_hypotheses(_family_params(args, ctx))
        if H is None:
            return _report_exit(args, hyp, {"construction": args.construction})
        rep = merge_reports({"hypotheses": hyp, "hopf": check_hopf(H)})
        return _report_exit(args, rep, {"construction": args.construction, "dim": H.dim})
    raise ValueError(f"unknown construction {args.construction!r}")


def cmd_enum_rb(args) -> int:
    G = group_from_json(_load_json(args.group))
    auts = automorphisms(G)  # one Aut(G) for the search and the orbit verdicts
    ops, assignments = _enumerate(G, args.weight, args.cap, auts)
    rows = [operator_to_json(G, op, args.weight) for op in ops]
    verdicts = _orbit_verdicts(G, ops, args.weight, auts)
    for entry, statuses in zip(rows, verdicts):
        entry.update(statuses)
    _emit(args, {"group": G.name, "order": G.n, "weight": args.weight,
                 "assignments": assignments, "count": len(rows), "operators": rows})
    return EXIT_PASS


def cmd_check_rrb(args) -> int:
    obj = _load_json(args.input)
    data = rrb_from_json(obj, base_dir=os.path.dirname(args.input) or ".")
    rep = check_rrbo(data, full=args.full)
    return _report_exit(args, rep, {"H_dim": data.H.dim, "G_dim": data.G.dim})


def cmd_aut(args) -> int:
    _reject_unread_flags(args)
    ctx = parse_field(args.field)
    grid = _parse_coeffs(args.grid, ctx)
    params = _family_params(args, ctx)
    hits = family_aut_search(params, grid)
    rows = [{"k": k, "c": [str(x) for x in c]} for k, c in hits]
    _emit(args, {"construction": args.construction, "grid": [str(x) for x in grid],
                 "count": len(rows), "hits": rows})
    return EXIT_PASS


def cmd_check_lie(args) -> int:
    if args.b is None and args.weight is not None:
        raise ValueError("--weight needs an operator: give it with --b")
    L = lie_from_json(_load_json(args.input))
    parts = {"lie": check_lie(L)}
    if args.b is not None:
        B = LinearMap.from_json(_load_json(args.b), L.ctx)
        lam = parse_scalar("0" if args.weight is None else args.weight, L.ctx)
        parts["rb_weight"] = check_rb_lie_weight(L, B, lam)
    rep = merge_reports(parts)
    return _report_exit(args, rep, {"dim": L.dim, "field": L.ctx.name()})


def cmd_check_group_rb(args) -> int:
    if args.map is not None and args.operator is not None:
        raise ValueError("give one of --map or --operator, not both")
    G = group_from_json(_load_json(args.group))
    if args.map is not None:
        name, file_weight, B = "", None, tuple(int(x.strip()) for x in args.map.split(","))
    elif args.operator is not None:
        name, file_weight, B = operator_from_json(_load_json(args.operator))
    else:
        raise ValueError("one of --map or --operator is required")
    if name and G.name and name != G.name:
        raise ValueError(f"the operator file is for group {name!r}, the group file is {G.name!r}")
    weight = next(w for w in (args.weight, file_weight, 1) if w is not None)
    return _report_exit(args, _group_rb_report(G, B, weight),
                        {"group": G.name, "order": G.n, "weight": weight})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it as
    it was, since every value goes to the namespace it returns."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write output to this path")
    common.add_argument("--format", choices=("json", "tsv"), default="json")
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--field", default="Q", help="scalar field: Q, Q(zN), or Fp")
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--m", type=int)
    family.add_argument("--zeta", help="root of unity, exact scalar string")
    family.add_argument("--l", type=int)
    family.add_argument("--f", help="comma-separated coefficients of f, constant first")

    p = argparse.ArgumentParser(prog="hopfrb", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", parents=[common, field, family],
                       help="build a construction and check it")
    v.add_argument("--construction", required=True,
                   choices=("group-algebra", "h4", "taft", "family"))
    v.add_argument("--group", help="group table file (group-algebra)")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("enum-rb", parents=[common],
                       help="enumerate Rota-Baxter operators on a finite group")
    e.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="assignment budget for the enumeration")
    e.add_argument("--group", required=True, help="group table file")
    e.add_argument("--weight", type=int, default=1)
    e.set_defaults(func=cmd_enum_rb)

    c = sub.add_parser("check-rrb", parents=[common],
                       help="check a relative Rota-Baxter operator file")
    c.add_argument("--input", required=True)
    c.add_argument("--full", action="store_true",
                   help="evaluate every condition instead of stopping at the first failure")
    c.set_defaults(func=cmd_check_rrb)

    a = sub.add_parser("aut", parents=[common, field, family],
                       help="search Hopf algebra automorphisms over a coefficient grid")
    a.add_argument("--construction", required=True, choices=("h4", "taft", "family"))
    a.add_argument("--grid", required=True, help="comma-separated exact scalars")
    a.set_defaults(func=cmd_aut)

    l = sub.add_parser("check-lie", parents=[common],
                       help="check a Lie algebra file, optionally with an operator")
    l.add_argument("--input", required=True)
    l.add_argument("--b", help="operator matrix file")
    l.add_argument("--weight", help="weight lambda of --b, exact scalar string (default 0)")
    l.set_defaults(func=cmd_check_lie)

    g = sub.add_parser("check-group-rb", parents=[common],
                       help="check one operator map on a finite group")
    g.add_argument("--group", required=True)
    g.add_argument("--map", help="comma-separated images, e.g. 0,2,1")
    g.add_argument("--operator", help="operator file as written by enum-rb")
    g.add_argument("--weight", type=int, default=None)
    g.set_defaults(func=cmd_check_group_rb)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as e:
        sys.stderr.write(f"cap exceeded: {e}\n")
        return EXIT_CAP
    except (ValueError, KeyError, IndexError, OSError, json.JSONDecodeError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
