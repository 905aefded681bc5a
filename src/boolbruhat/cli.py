"""Command-line interface.

Exit codes: 0 success, 1 counterexample or disagreement found, 2 usage or
cap errors, or a verify sweep that checked no case.
"""
from __future__ import annotations

import argparse
import inspect
import json
import sys

from .bgg_homology import (
    build_sign_assignment,
    grade,
    grade_report_json,
    grade_table,
    grade_table_csv,
)
from .boolean_intersect import intersection_maximal_closed_form, maximal_selfish
from .bruhat import (
    ideal_to_dot,
    ideal_to_json,
    intersect_ideals,
    maximal_elements,
)
from .permcore import (
    ENUMERATION_CAP,
    CapExceededError,
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
from .verify import THEOREM_CHECKS


# the formats other than text that each command prints; "grade --all" is the
# table form of grade
FORMATS = {
    "boolean": {"json"},
    "intersect": {"json", "dot"},
    "grade": {"json"},
    "grade --all": {"json", "csv"},
    "selfish": {"json"},
    "export": {"json", "dot"},
}

# the verify flag, and its metavar, of each check parameter that has one;
# a parameter with no default gives a required flag, and seed is the
# global --seed
CHECK_FLAGS = {"n": ("--n", "N"), "k_max": ("--k", "K"), "sample": ("--sample", "K")}


def size(text: str) -> int:
    """A count or degree flag's value, which must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _read_element(args, text: str):
    """Parsing accepts any degree, so purely combinatorial commands run on
    large examples; only the enumerations are capped. Reduced words are the
    exception: their degree costs a list of that many entries, so it is
    refused above the cap before anything is built."""
    if getattr(args, "rw", False):
        # one S_n for every word of the command, so v and w share it
        words = " ".join(getattr(args, name, None) or "" for name in ("v", "w"))
        largest = max((int(tok) for tok in words.replace(",", " ").split()), default=0)
        degree = largest + 1 if args.rw_degree is None else args.rw_degree
        if degree <= largest:
            raise ValueError(
                f"--rw-degree {degree}: letter {largest} is out of range for "
                f"S_{degree}; the words need --rw-degree {largest + 1} or more"
            )
        if degree > ENUMERATION_CAP:
            raise CapExceededError(
                f"reduced-word degree {degree} (--rw-degree, by default the largest "
                f"letter + 1), more than the cap {ENUMERATION_CAP}"
            )
        return parse_reduced_word(text.replace(",", " "), degree).permutation()
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
    closed = enumerated = ideal = None
    if mode != "closed-form":
        ideal = intersect_ideals(v, w)
        enumerated = maximal_elements(ideal)
    if mode != "enumerate":
        closed = intersection_maximal_closed_form(v, w)
    chosen = closed if closed is not None else enumerated
    if args.fmt == "json":
        print(json.dumps({"maximal": [format_permutation(x) for x in chosen]}, indent=2))
    elif args.fmt == "dot":
        print(ideal_to_dot(ideal))
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
        rows = grade_table(n, build_sign_assignment(n))
        if args.fmt == "json":
            print(json.dumps(rows, indent=2))
        else:
            print(grade_table_csv(rows), end="")
        return 0
    w = _read_element(args, args.w)
    report = grade(w, build_sign_assignment(w.n))
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
    if args.universe is not None:
        universe = [int(tok) for tok in args.universe.split(",")]
    else:
        universe = range(1, args.k + 1)
    members = sorted(sorted(m) for m in maximal_selfish(universe))
    if args.fmt == "json":
        print(json.dumps({"universe": sorted(set(universe)), "maximal": members}, indent=2))
    else:
        for m in members:
            print(",".join(str(x) for x in m) or "(empty)")
    return 0


def cmd_verify(args) -> int:
    check = THEOREM_CHECKS[args.theorem]
    params = inspect.signature(check).parameters
    kwargs = {name: getattr(args, name) for name in params if getattr(args, name) is not None}
    result = check(**kwargs)
    first = next(iter(params))
    sized = f"{args.theorem} {CHECK_FLAGS[first][0]} {kwargs[first]}"
    if not result.checked:
        print(f"error: {sized} checks no case", file=sys.stderr)
        return 2
    print(f"{sized}: checked {result.checked} case(s)", file=sys.stderr)
    if result:
        print(f"FAIL {args.theorem}: {len(result)} counterexample(s)")
        for line in result:
            print(f"  {line}")
        return 1
    print(f"PASS {args.theorem}")
    return 0


def cmd_export(args) -> int:
    v = _read_element(args, args.v)
    w = _read_element(args, args.w)
    if args.matched:
        cert = build_matching(v, w)
        if args.fmt == "json":
            print(matching_to_json(cert))
        else:
            print(matching_to_dot(cert))
        return 0
    ideal = intersect_ideals(v, w)
    if args.fmt == "json":
        print(ideal_to_json(ideal))
    else:
        print(ideal_to_dot(ideal))
    return 0


def _add_rw_flags(sub):
    sub.add_argument("--rw", action="store_true", help="inputs are reduced words")
    sub.add_argument(
        "--rw-degree",
        type=size,
        metavar="N",
        default=None,
        help="degree for reduced-word input (default: largest letter + 1)",
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
    parser.add_argument("--seed", type=int, help="seed for verify --sample (default 0)")
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
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("w", nargs="?")
    group.add_argument("--all", type=size, metavar="N")
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
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=size, metavar="K")
    group.add_argument("--universe")
    p.set_defaults(func=cmd_selfish)

    p = sub.add_parser("verify", help="run one named verification sweep")
    p.set_defaults(func=cmd_verify)
    checks = p.add_subparsers(dest="theorem", required=True)
    for name, check in sorted(THEOREM_CHECKS.items()):
        c = checks.add_parser(name, help=check.__doc__.split(".")[0])
        for param in inspect.signature(check).parameters.values():
            if param.name in CHECK_FLAGS:
                flag, metavar = CHECK_FLAGS[param.name]
                required = param.default is param.empty
                c.add_argument(
                    flag, dest=param.name, type=size, metavar=metavar, required=required,
                    default=None if required else param.default,
                )

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
    command = args.command
    if command == "grade" and args.all is not None:
        command = "grade --all"
        if args.rw or args.rw_degree is not None:
            parser.error("grade --all N takes no --rw or --rw-degree")
    if getattr(args, "rw_degree", None) is not None and not args.rw:
        parser.error("--rw-degree applies only with --rw")
    if args.fmt != "text" and args.fmt not in FORMATS.get(command, ()):
        parser.error(f"{command} does not print --format {args.fmt}")
    if command == "intersect" and args.fmt == "dot" and args.mode == "closed-form":
        parser.error("intersect --format dot draws the enumerated ideal, not --closed-form")
    if args.seed is not None and getattr(args, "sample", None) is None:
        parser.error("--seed applies only to verify with --sample")
    try:
        return args.func(args)
    except (CapExceededError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
