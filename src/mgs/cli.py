"""Command-line interface.

Each command returns its payload, a dict (or, for the closure map with
--dot, its DOT text), and `main` prints it.  Verdicts print as JSON on
stdout and exit 0 even when the verdict is negative; operational
failures (bad syntax, caps, preconditions) print an error object on
stderr and exit nonzero (2 for syntax, 1 otherwise).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import classify as classify_mod
from . import dsl, logic, tables, topology
from .abelian import AbelianGroup, cyclic_residual_quotient
from .closure_map import _closure_map
from .dihedral import GenDihedralGroup, materialize_table
from .words import DEFAULT_BALL_CAP, active_ball_cap


def _structure(arg: str):
    """(name, group) of a table file, else of a DSL group, else of a shipped
    fixture; the name is the argument, but the printed group for the DSL."""
    if os.path.exists(arg):
        return arg, tables.load_table(arg)
    try:
        group = dsl.parse_group(arg)
    except dsl.ParseError:
        if arg.isalnum():  # fixture names are plain names, never paths
            try:
                return arg, tables.load_fixture(arg)
            except FileNotFoundError:
                pass
        raise
    return str(group), group


def _table(group) -> tables.FiniteGroupTable:
    return group if isinstance(group, tables.FiniteGroupTable) else materialize_table(group)


def _range(text: str) -> range:
    """a..b, both ends included; like every count in the text, bounded by the word cap."""
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if m is None:
        raise ValueError(f"a range is a..b with integer ends, got {text!r}")
    a, b = int(m.group(1)), int(m.group(2))
    cap = active_ball_cap()
    if b - a + 1 > cap:
        raise ValueError(f"a range a..b holds at most {cap} integers (the word cap), got {text!r}")
    return range(a, b + 1)


def cmd_ball(args) -> dict:
    marked = dsl.parse_marked(args.marked)
    ball = topology.relation_ball(marked, args.radius)
    payload = ball.to_json()
    payload["marking"] = str(marked)
    return payload


def cmd_dist(args) -> dict:
    a = dsl.parse_marked(args.a)
    b = dsl.parse_marked(args.b)
    radius, witness = topology._compare(a, b, args.rmax, args.method)
    return {
        "a": str(a),
        "b": str(b),
        "r_max": args.rmax,
        "agreement_radius": radius,
        "exact": witness is not None,
        # past radius 1073 the float rounds to 0.0, so the exact value is text
        "distance": 0.0 if witness is None else 2.0 ** -(radius + 1) or f"2^-{radius + 1}",
        "separating_word": None if witness is None else str(witness),
    }


def cmd_converge(args) -> dict:
    indices = _range(args.range)
    limit = dsl.parse_marked(args.limit)

    def family(n: int) -> topology.MarkedGroup:
        return dsl.parse_marked(args.family.replace("N", str(n)))

    report = topology.check_convergence(
        family, limit, indices, r_max=args.rmax
    )
    payload = report.to_json()
    payload["family"] = args.family
    payload["limit"] = str(limit)
    return payload


def cmd_limit_check(args) -> dict:
    group = dsl.parse_group(args.group)
    payload = {"group": str(group)}
    if isinstance(group, AbelianGroup):
        payload["limit_of_cyclic"] = topology.is_limit_of_cyclic(group)
    decision = topology.is_limit_of_dihedral(group)
    payload["limit_of_dihedral"] = {"value": decision.value, "reason": decision.reason}
    if isinstance(group, GenDihedralGroup):
        payload["rank"] = (
            topology.rank_of_limit(group) if decision.value else None
        )
    return payload


def cmd_residual(args) -> dict:
    group = dsl.parse_group(args.group)
    elements = dsl.parse_elements(args.kill, group)
    payload = {"group": str(group)}
    if isinstance(group, GenDihedralGroup):
        witness = topology.dihedral_residual_witness(group, elements)
        quotient, image = witness.quotient, lambda x: str(witness.apply(x))
        payload.update(target=str(witness.target), half_order=witness.half_order)
    else:
        quotient = cyclic_residual_quotient(group, elements)
        image = quotient.apply
        payload["target"] = str(quotient.target_group())
    payload.update(
        modulus=quotient.modulus,
        free_multipliers=list(quotient.free_multipliers),
        torsion_multipliers=list(quotient.torsion_multipliers),
        images={str(x): image(x) for x in elements},
    )
    return payload


def cmd_check(args) -> dict:
    sentence = dsl.parse_sentence(args.sentence)
    table = _table(_structure(args.structure)[1])
    result = logic.holds_in(table, sentence, budget=args.budget)
    return {
        "sentence": dsl.print_sentence(sentence),
        "structure": args.structure,
        "order": table.order,
        "holds": result.holds,
        "counterexample": None
        if result.counterexample is None
        else [table.labels[i] for i in result.counterexample],
    }


def cmd_classify(args) -> dict:
    structure, group = _structure(args.target)
    arity = args.arity
    # Dih(Z^r) with r >= 1 has canonical classes; a finite base takes the table route
    if isinstance(group, GenDihedralGroup) and group.base.rank == group.base.free_rank > 0:
        length = group.base.free_rank + 1
        if arity not in (None, length):
            raise ValueError(f"markings of {group} have length {length}, not {arity}")
        arity, classes = length, classify_mod.canonical_classes(length)
    else:
        arity = 2 if arity is None else arity
        classes = classify_mod.enumerate_markings(_table(group), arity)
    return {
        "structure": structure,
        "arity": arity,
        "count": len(classes),
        "classes": [c.to_json() for c in classes],
    }


def cmd_cb_rank(args) -> dict:
    group = dsl.parse_group(args.group)
    family = {
        "dihedral": "dihedral-closure",
        "cyclic": "cyclic-closure",
        "abelian": "all-marked",
    }[args.family]
    rank = topology.cb_rank(group, family)
    return {"group": str(group), "family": args.family, "rank": rank}


def cmd_closure_map(args) -> dict | str:
    payload, dot_text = _closure_map(_range(args.range), args.rmax)
    return dot_text if args.dot else payload


def cmd_recognize(args) -> dict:
    table = _table(_structure(args.target)[1])
    outcome = tables.recognize_generalized_dihedral(table)
    return {
        "structure": args.target,
        "kind": outcome.kind,
        "base": None if outcome.base is None else str(outcome.base),
        "rotation_part": outcome.rotation_part,
        "flip_coset": outcome.flip_coset,
        "reason": outcome.reason,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgs",
        description="exact computation with marked groups "
        f"(default word-ball cap: {DEFAULT_BALL_CAP}, override with MGS_BALL_CAP)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ball", help="relation ball of a marked group")
    p.add_argument("marked")
    p.add_argument("--radius", "-R", type=int, required=True)
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("dist", help="agreement radius and distance of two markings")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--rmax", type=int, default=8)
    p.add_argument("--method", choices=("auto", "enumerate"), default="auto")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("converge", help="certify a family against a limit")
    p.add_argument("--family", required=True, help="marked-group template; N is the index")
    p.add_argument("--limit", required=True)
    p.add_argument("--range", required=True, help="a..b inclusive")
    p.add_argument("--rmax", type=int, default=None)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("limit-check", help="membership in the cyclic/dihedral closures")
    p.add_argument("group")
    p.set_defaults(func=cmd_limit_check)

    p = sub.add_parser("residual", help="finite quotient keeping elements alive")
    p.add_argument("group")
    p.add_argument("--kill", required=True, help="comma-separated elements to keep nontrivial")
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("check", help="check a universal sentence on a finite group")
    p.add_argument("sentence", help="a sentence or @P1..@P4")
    p.add_argument("--in", dest="structure", required=True, help="group or table file")
    p.add_argument("--budget", type=int, default=logic.DEFAULT_EVAL_BUDGET)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="marking classes up to automorphism")
    p.add_argument("target", help="table file or group")
    p.add_argument("--arity", "-m", type=int, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cb-rank", help="Cantor-Bendixson rank in a family")
    p.add_argument("group")
    p.add_argument("--family", choices=("dihedral", "cyclic", "abelian"), required=True)
    p.set_defaults(func=cmd_cb_rank)

    p = sub.add_parser("closure-map", help="the two-generator dihedral closure map")
    p.add_argument("--range", default="3..8")
    p.add_argument("--rmax", type=int, default=8)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_closure_map)

    p = sub.add_parser("recognize", help="recognize generalized dihedral structure")
    p.add_argument("target", help="table file or group")
    p.set_defaults(func=cmd_recognize)

    return parser


_parser = None  # built by the first call of main, then kept for the process


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        active_ball_cap()  # a malformed MGS_BALL_CAP fails every command alike
        out = args.func(args)
        sys.stdout.write(out if isinstance(out, str) else json.dumps(out, indent=2) + "\n")
        return 0
    except (ValueError, TypeError, OSError) as exc:  # ParseError is a ValueError
        json.dump({"error": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2 if isinstance(exc, dsl.ParseError) else 1


if __name__ == "__main__":
    sys.exit(main())
