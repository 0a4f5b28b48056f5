"""Command-line interface.

Subcommands: present, homcount, groupoid, classify, achiral.  Output is
deterministic text (optionally one JSON object per result line with
--json); exit codes are 0 success, 1 user error, 2 budget exhausted,
3 internal integrity error.

The argument parser is built once per process and reused by every
``main`` call, so each subcommand's handler is bound when the parser is
first built.  The handlers look up the library functions they call at
call time, so a test or a tracer replaces behaviour by patching module
attributes, not the ``_cmd_*`` handlers: ``count_classes_enumerate``,
``count_classes_burnside`` or ``count_classes_both`` (one per
``--method``), ``homcount._enumerate`` and ``homcount._burnside`` (the two
methods inside ``count_classes_both``), ``presentation``,
``groupoid.realized_closure`` and the like.
"""

import argparse
import functools
import json
import sys

from . import diagrams, groupoid, sequences
from .errors import BudgetExceededError, IntegrityError
from .homcount import (
    DEFAULT_BUDGET,
    MAX_DEGREE,
    count_classes_both,
    count_classes_burnside,
    count_classes_enumerate,
)
from .presentations import (
    abelianization,
    format_presentation,
    presentation,
    tietze_simplify,
)

__all__ = ["main"]


def _diagram_from_args(args):
    """Build the diagram from --expr (builtin word) or --file (JSON)."""
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as fh:
            return diagrams.from_json(fh.read())
    blocks = [diagrams.builtin(tok) for tok in args.expr.split()]
    if not blocks:
        raise ValueError("empty block expression")
    return diagrams.concat(*blocks)


def _cmd_present(args, out):
    d = _diagram_from_args(args)
    p = presentation(d, include_outer_vertex=args.outer_vertex)
    # Tietze moves keep the group, so H1 is read off the unsimplified
    # words, which are far shorter than the simplified ones can grow.
    inv = abelianization(p) if args.abelianization else None
    if args.simplify:
        p = tietze_simplify(p)
    if args.json:
        obj = {
            "generators": list(p.generators),
            "relators": [[[g, e] for g, e in rel] for rel in p.relators],
        }
        if args.abelianization:
            obj["abelianization"] = {"rank": inv.rank, "torsion": list(inv.torsion)}
        out.write(json.dumps(obj) + "\n")
    else:
        out.write(format_presentation(p) + "\n")
        if args.abelianization:
            out.write(f"abelianization: rank {inv.rank}, torsion {list(inv.torsion)}\n")
    return 0


def _cmd_homcount(args, out):
    d = _diagram_from_args(args)
    p = presentation(d)
    if args.method == "both":
        results = count_classes_both(p, args.sym, args.budget)
    elif args.method == "enumerate":
        results = [count_classes_enumerate(p, args.sym, args.budget)]
    else:
        results = [count_classes_burnside(p, args.sym, args.budget)]
    for r in results:
        if args.json:
            out.write(json.dumps(
                {"n": r.n, "total": r.total_homs, "classes": r.class_count,
                 "method": r.method, "nodes": r.nodes}
            ) + "\n")
        else:
            label = args.expr if args.expr else args.file
            out.write(
                f"{label}  Sym({r.n})  classes: {r.class_count}  "
                f"total: {r.total_homs}  method: {r.method}\n"
            )
    return 0


def _cmd_groupoid(args, out):
    realized = groupoid.realized_closure()
    excluded = groupoid.excluded_closure(realized)
    if len(realized) != 96 or len(excluded) != 288:
        raise IntegrityError(
            f"closure sizes {len(realized)}/{len(excluded)}, expected 96/288"
        )
    if args.emit == "table2":
        if args.json:
            grid = groupoid.cell_grid(realized)
            obj = {
                f"{c.name},{b:+d},{d.name},{e:+d}": groupoid.CELL_NAMES[perms]
                for (c, b, d, e), perms in sorted(
                    grid.items(),
                    key=lambda kv: (kv[0][0], -kv[0][1], kv[0][2], -kv[0][3]),
                )
            }
            out.write(json.dumps({"realized": 96, "excluded": 288, "cells": obj})
                      + "\n")
        else:
            out.write(groupoid.format_table(realized) + "\n")
    else:
        for t in sorted(
            realized,
            key=lambda t: (t.domain, t.codomain, -t.orientation, -t.boundary, t.perm),
        ):
            if args.json:
                out.write(json.dumps(
                    {"domain": t.domain.name, "codomain": t.codomain.name,
                     "orientation": t.orientation, "boundary": t.boundary,
                     "perm": list(t.perm)}
                ) + "\n")
            else:
                out.write(repr(t) + "\n")
    return 0


def _match_obj(m):
    return {"holds": m.holds, "shift": m.shift, "start": m.start}


def _match_text(m):
    if not m.holds:
        return "no"
    return f"yes (shift n={m.shift}, from index N={m.start})"


def _cmd_classify(args, out):
    s = sequences.parse_sequence(args.s1)
    t = sequences.parse_sequence(args.s2)
    rep = sequences.equivalence(s, t)
    if args.json:
        out.write(json.dumps({
            "cond1": _match_obj(rep.cond1), "cond2": _match_obj(rep.cond2),
            "cond3": _match_obj(rep.cond3), "cond4": _match_obj(rep.cond4),
            "op_equivalent": rep.op_equivalent,
            "or_equivalent": rep.or_equivalent,
            "equivalent": rep.equivalent,
        }) + "\n")
    else:
        out.write(f"sequence 1: {sequences.format_sequence(s)}\n")
        out.write(f"sequence 2: {sequences.format_sequence(t)}\n")
        out.write(f"cond1 identical tails:            {_match_text(rep.cond1)}\n")
        out.write(f"cond2 tails equal after bar-star: {_match_text(rep.cond2)}\n")
        out.write(f"cond3 tails equal after bar:      {_match_text(rep.cond3)}\n")
        out.write(f"cond4 tails equal after star:     {_match_text(rep.cond4)}\n")
        out.write(f"orientation-preserving equivalent: {str(rep.op_equivalent).lower()}\n")
        out.write(f"orientation-reversing equivalent:  {str(rep.or_equivalent).lower()}\n")
        out.write(f"equivalent: {str(rep.equivalent).lower()}\n")
    return 0


def _cmd_achiral(args, out):
    s = sequences.parse_sequence(args.s)
    verdict, cond, match = sequences.achiral(s)
    if args.json:
        out.write(json.dumps({
            "achiral": verdict,
            "condition": cond,
            "witness": _match_obj(match) if match else None,
        }) + "\n")
    else:
        out.write(f"sequence: {sequences.format_sequence(s)}\n")
        out.write(f"achiral: {str(verdict).lower()}\n")
        if verdict:
            out.write(f"matches own {cond} transform: {_match_text(match)}\n")
    return 0


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="borrays",
        description="Tangle blocks, their complement groups, and Borromean-ray "
                    "sequence classification.",
    )
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON result lines")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET, metavar="NODES",
                        help="cap on the search nodes of the whole command")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("present", help="print a tangle-complement presentation")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--expr", help="block word, e.g. 'A Abs' (leftmost innermost)")
    source.add_argument("--file", help="diagram JSON file")
    p.add_argument("--simplify", action="store_true",
                   help="apply Tietze simplification")
    p.add_argument("--outer-vertex", action="store_true",
                   help="include the redundant outer vertex relation")
    p.add_argument("--abelianization", action="store_true",
                   help="also print the abelianization invariants of the presented "
                        "group (unchanged by --simplify)")
    p.set_defaults(func=_cmd_present)

    p = sub.add_parser("homcount",
                       help="count homomorphism classes into Sym(n)")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--expr", help="block word, e.g. 'A Abs'")
    source.add_argument("--file", help="diagram JSON file")
    p.add_argument("--sym", type=int, required=True, metavar="N",
                   help=f"symmetric group degree, 0..{MAX_DEGREE}")
    p.add_argument("--method", choices=("enumerate", "burnside", "both"),
                   default="burnside")
    p.set_defaults(func=_cmd_homcount)

    p = sub.add_parser("groupoid",
                       help="realizable diffeomorphism types of the four blocks")
    p.add_argument("--emit", choices=("table2", "list"), default="table2")
    p.set_defaults(func=_cmd_groupoid)

    p = sub.add_parser("classify",
                       help="equivalence of two eventually periodic sequences")
    p.add_argument("--s1", required=True, metavar="SEQ",
                   help="'pre: <labels> ; per: <labels>' (pre optional)")
    p.add_argument("--s2", required=True, metavar="SEQ")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("achiral",
                       help="chirality of an eventually periodic sequence")
    p.add_argument("--s", required=True, metavar="SEQ")
    p.set_defaults(func=_cmd_achiral)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; report those as user errors.
        return 1 if exc.code else 0
    try:
        if args.budget < 0:
            raise ValueError("--budget must be a non-negative integer")
        return args.func(args, sys.stdout)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"internal integrity error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
