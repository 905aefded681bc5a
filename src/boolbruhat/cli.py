"""Command-line interface.

Exit codes: 0 success, 1 counterexample or disagreement found, 2 usage or
cap errors.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .bgg_homology import (
    DEFAULT_DEGREE_CAP,
    DegreeCapExceededError,
    build_sign_assignment,
    grade,
    grade_report_json,
    grade_table,
    grade_table_csv,
)
from .boolean_intersect import intersection_maximal_closed_form, maximal_selfish
from .bruhat import (
    DEFAULT_IDEAL_CAP,
    IdealCapExceededError,
    ideal_to_dot,
    ideal_to_json,
    intersect_ideals,
    maximal_elements,
)
from .permcore import (
    WordCapExceededError,
    canonical_reduced_word,
    descents,
    format_permutation,
    format_reduced_word,
    is_boolean,
    parse_permutation,
    parse_reduced_word,
    support,
)
from .rs_afunction import a_function, rs_shape
from .runs_matching import (
    build_matching,
    matching_to_dot,
    matching_to_json,
    optimal_partner,
    optimal_rank,
    run_decompose,
)
from .verify import (
    DEGREE_CAPPED_CHECKS,
    K_PARAM_CHECKS,
    SAMPLING_CHECKS,
    THEOREM_CHECKS,
)


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    return int(raw) if raw else default


def _read_element(args, text: str):
    """The degree cap only guards sign-assignment construction; parsing
    itself accepts any degree so purely combinatorial commands can run on
    large examples."""
    if getattr(args, "rw", False):
        return parse_reduced_word(text.replace(",", " "), args.rw_degree).permutation()
    return parse_permutation(text)


def cmd_boolean(args) -> int:
    w = _read_element(args, args.w)
    payload = {
        "w": format_permutation(w),
        "boolean": is_boolean(w),
        "support": sorted(support(w)),
        "left_descents": sorted(descents(w, "left")),
        "right_descents": sorted(descents(w, "right")),
        "canonical_word": format_reduced_word(canonical_reduced_word(w)),
    }
    if args.fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def cmd_intersect(args) -> int:
    v = _read_element(args, args.v)
    w = _read_element(args, args.w)
    mode = args.mode
    closed = enumerated = None
    if mode in ("closed-form", "both"):
        closed = intersection_maximal_closed_form(v, w)
    if mode in ("enumerate", "both"):
        enumerated = maximal_elements(intersect_ideals(v, w, args.ideal_cap))
    chosen = closed if closed is not None else enumerated
    if args.fmt == "json":
        print(json.dumps({"maximal": [format_permutation(x) for x in chosen]}, indent=2))
    elif args.fmt == "dot":
        print(ideal_to_dot(intersect_ideals(v, w, args.ideal_cap)))
    else:
        for x in chosen:
            print(f"{format_permutation(x)}  [{format_reduced_word(canonical_reduced_word(x))}]")
    if mode == "both" and closed != enumerated:
        print("ERROR: closed form and enumeration disagree", file=sys.stderr)
        return 1
    return 0


def cmd_grade(args) -> int:
    if args.all is not None:
        n = args.all
        rows = grade_table(n, build_sign_assignment(n, args.degree_cap))
        if args.fmt == "json":
            print(json.dumps(rows, indent=2))
        else:
            print(grade_table_csv(rows), end="")
        return 0
    w = _read_element(args, args.w)
    report = grade(w, build_sign_assignment(w.n, args.degree_cap))
    if args.fmt == "json":
        print(grade_report_json(report))
    else:
        print(f"grade({format_permutation(w)}) = {report.grade}")
        print(f"witness u: {format_permutation(report.witness_u)}")
        print(f"a-function: {a_function(w)}")
    return 0


def cmd_ork(args) -> int:
    v = _read_element(args, args.v)
    dec = run_decompose(v)
    print(f"runs: {dec.count}")
    print(f"run word: {format_reduced_word(dec.word)}")
    print(f"optimal rank: {optimal_rank(v)}")
    return 0


def cmd_partner(args) -> int:
    v = _read_element(args, args.v)
    print(format_permutation(optimal_partner(v)))
    return 0


def cmd_rs(args) -> int:
    w = _read_element(args, args.w)
    print(str(rs_shape(w)))
    return 0


def cmd_afun(args) -> int:
    w = _read_element(args, args.w)
    print(a_function(w))
    return 0


def cmd_selfish(args) -> int:
    if args.universe:
        universe = [int(tok) for tok in args.universe.split(",")]
    else:
        universe = range(1, args.k + 1)
    family = maximal_selfish(universe)
    members = sorted(sorted(m) for m in family.members)
    if args.fmt == "json":
        print(json.dumps({"universe": sorted(family.universe), "maximal": members}, indent=2))
    else:
        for m in members:
            print(",".join(str(x) for x in m) or "(empty)")
    return 0


def cmd_verify(args) -> int:
    check = THEOREM_CHECKS[args.theorem]
    kwargs = {}
    if args.theorem in K_PARAM_CHECKS:
        first = args.k if args.k is not None else 15
    else:
        if args.n is None:
            raise SystemExit("--n is required for this check")
        first = args.n
    if args.theorem in SAMPLING_CHECKS and args.sample is not None:
        kwargs["sample"] = args.sample
        kwargs["seed"] = args.seed
    if args.theorem in DEGREE_CAPPED_CHECKS:
        kwargs["cap"] = args.degree_cap
    bad = check(first, **kwargs)
    if bad:
        print(f"FAIL {args.theorem}: {len(bad)} counterexample(s)")
        for line in bad:
            print(f"  {line}")
        return 1
    print(f"PASS {args.theorem}")
    return 0


def cmd_export(args) -> int:
    v = _read_element(args, args.v)
    w = _read_element(args, args.w)
    if args.matched:
        cert = build_matching(v, w, args.ideal_cap)
        if args.fmt == "json":
            print(matching_to_json(cert))
        else:
            print(matching_to_dot(cert))
        return 0
    ideal = intersect_ideals(v, w, args.ideal_cap)
    if args.fmt == "json":
        print(ideal_to_json(ideal))
    else:
        print(ideal_to_dot(ideal))
    return 0


def _add_rw_flags(sub):
    sub.add_argument("--rw", action="store_true", help="inputs are reduced words")
    sub.add_argument(
        "--rw-degree", type=int, default=0, help="degree for reduced-word input"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolbruhat",
        description="Boolean permutations, Bruhat ideal intersections, matchings and grades.",
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=["text", "json", "dot", "csv"],
        default="text",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--degree-cap",
        type=int,
        default=_env_int("BOOLBRUHAT_DEGREE_CAP", DEFAULT_DEGREE_CAP),
    )
    parser.add_argument(
        "--ideal-cap",
        type=int,
        default=_env_int("BOOLBRUHAT_IDEAL_CAP", DEFAULT_IDEAL_CAP),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("boolean", help="booleanness report for one permutation")
    p.add_argument("w")
    _add_rw_flags(p)
    p.set_defaults(func=cmd_boolean)

    p = sub.add_parser("intersect", help="maximal elements of B(v) /\\ B(w)")
    p.add_argument("v")
    p.add_argument("w")
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--closed-form", dest="mode", action="store_const", const="closed-form"
    )
    group.add_argument(
        "--enumerate", dest="mode", action="store_const", const="enumerate"
    )
    group.add_argument("--both", dest="mode", action="store_const", const="both")
    p.set_defaults(mode="both")
    _add_rw_flags(p)
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("grade", help="grade of one simple module, or a full table")
    p.add_argument("w", nargs="?")
    p.add_argument("--all", type=int, default=None, metavar="N")
    _add_rw_flags(p)
    p.set_defaults(func=cmd_grade)

    p = sub.add_parser("ork", help="minimal runs and optimal rank")
    p.add_argument("v")
    _add_rw_flags(p)
    p.set_defaults(func=cmd_ork)

    p = sub.add_parser("partner", help="optimal partner of a boolean permutation")
    p.add_argument("v")
    _add_rw_flags(p)
    p.set_defaults(func=cmd_partner)

    p = sub.add_parser("rs", help="insertion tableau shape")
    p.add_argument("w")
    _add_rw_flags(p)
    p.set_defaults(func=cmd_rs)

    p = sub.add_parser("afun", help="Lusztig a-function value")
    p.add_argument("w")
    _add_rw_flags(p)
    p.set_defaults(func=cmd_afun)

    p = sub.add_parser("selfish", help="maximal selfish subsets")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--universe", default=None)
    p.set_defaults(func=cmd_selfish)

    p = sub.add_parser("verify", help="run one named verification sweep")
    p.add_argument("theorem", choices=sorted(THEOREM_CHECKS))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--sample", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="DOT or JSON of an intersection ideal")
    p.add_argument("v")
    p.add_argument("w")
    p.add_argument("--matched", action="store_true")
    _add_rw_flags(p)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "selfish" and args.k is None and args.universe is None:
        parser.error("selfish requires --k or --universe")
    if args.command == "grade" and args.w is None and args.all is None:
        parser.error("grade requires a permutation or --all N")
    try:
        return args.func(args)
    except (
        DegreeCapExceededError,
        IdealCapExceededError,
        WordCapExceededError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
