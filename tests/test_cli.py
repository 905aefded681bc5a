import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import boolbruhat
from boolbruhat import verify
from boolbruhat.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli(*argv, python_flags=()):
    """The CLI in a subprocess, so a request that hangs fails its test at
    the timeout instead of stalling the suite."""
    env = dict(os.environ, PYTHONPATH=str(Path(boolbruhat.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "boolbruhat.cli", *argv],
        env=env, capture_output=True, text=True, timeout=30,
    )


def test_boolean_report_true(capsys):
    code, out, _ = run(capsys, "--format", "json", "boolean", "3,1,2,6,4,7,8,9,5")
    assert code == 0
    payload = json.loads(out)
    assert payload["boolean"] is True
    assert payload["support"] == [1, 2, 4, 5, 6, 7, 8]


def test_boolean_report_false(capsys):
    code, out, _ = run(capsys, "boolean", "4,1,3,2")
    assert code == 0
    assert "boolean: False" in out


def test_boolean_from_reduced_word(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "boolean", "--rw", "--rw-degree", "4", "2 3 1"
    )
    assert code == 0
    assert json.loads(out)["boolean"] is True


def test_reduced_word_degree_defaults_to_largest_letter_plus_one(capsys):
    code, out, _ = run(capsys, "ork", "--rw", "2 1 3")
    assert code == 0
    assert "runs: 2" in out
    code, _, err = run(capsys, "ork", "--rw", "--rw-degree", "3", "2 1 3")
    assert code == 2
    assert "out of range for S_3" in err
    code, out, _ = run(capsys, "intersect", "--rw", "1", "3 2")
    assert code == 0
    assert out.startswith("1,2,3,4  []")


def test_intersect_both_modes_agree(capsys):
    code, out, _ = run(capsys, "intersect", "2,3,4,5,1", "3,1,5,2,4")
    assert code == 0
    assert out.strip()


def test_intersect_json_lists_maxima(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "intersect",
        "--closed-form",
        "3,1,2,6,4,7,8,9,5",
        "3,2,5,1,8,4,7,6,9",
    )
    assert code == 0
    maxima = json.loads(out)["maximal"]
    assert sorted(maxima) == ["3,1,2,4,6,5,8,7,9", "3,1,2,5,4,7,8,6,9"]


def test_grade_single_element(capsys):
    code, out, _ = run(capsys, "--format", "json", "grade", "2,1,4,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["grade"] == 2
    assert payload["perfect"] is True


def test_grade_table_csv(capsys):
    code, out, _ = run(capsys, "grade", "--all", "3")
    assert code == 0
    import csv
    import io

    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == ["w", "length", "a", "grade", "perfect", "witness_u"]
    assert [r["grade"] for r in rows] == ["0", "1", "1", "1", "1", "3"]
    assert run(capsys, "--format", "csv", "grade", "--all", "3") == (0, out, "")
    code, out, _ = run(capsys, "--format", "json", "grade", "--all", "3")
    assert code == 0
    assert [r["grade"] for r in json.loads(out)] == [0, 1, 1, 1, 1, 3]


def test_ork_and_partner(capsys):
    code, out, _ = run(capsys, "ork", "5,1,2,3,4")
    assert code == 0
    assert "runs: 1" in out
    assert "optimal rank: 3" in out
    code, out, _ = run(capsys, "partner", "5,1,2,3,4")
    assert code == 0
    assert out.strip() == "4,5,1,2,3"


def test_rs_and_afun(capsys):
    code, out, _ = run(capsys, "rs", "2,1,4,3")
    assert code == 0
    assert out.strip() == "2,2"
    code, out, _ = run(capsys, "afun", "4,3,2,1")
    assert code == 0
    assert out.strip() == "6"


def test_selfish_by_k(capsys):
    code, out, _ = run(capsys, "selfish", "--k", "4")
    assert code == 0
    assert out.strip().splitlines() == ["1,3", "1,4", "2,4"]


def test_selfish_by_universe(capsys):
    code, out, _ = run(capsys, "--format", "json", "selfish", "--universe", "1,2,5")
    assert code == 0
    payload = json.loads(out)
    assert payload["maximal"] == [[1, 5], [2, 5]]


def test_selfish_with_an_empty_universe_is_an_input_error(capsys):
    for universe in ("", "1,,3"):
        code, out, err = run(capsys, "selfish", "--universe", universe)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "thm2.4", "--n", "3")
    assert code == 0
    assert out.strip() == "PASS thm2.4"


ZERO_CASE_SIZES = {"lem4.3": [1], "lem5.6": [1], "thm3.10": [1, 2], "thm5.10": [1]}


@pytest.mark.parametrize(
    "theorem, n", [(t, n) for t, sizes in ZERO_CASE_SIZES.items() for n in sizes]
)
def test_verify_sweep_that_checks_no_case_exits_two(capsys, theorem, n):
    code, out, err = run(capsys, "verify", theorem, "--n", str(n))
    assert (code, out) == (2, "")
    assert err == f"error: {theorem} --n {n} checks no case\n"


def checked_count(err, sized):
    match = re.fullmatch(rf"{re.escape(sized)}: checked (\d+) case\(s\)\n", err)
    assert match, err
    return int(match[1])


@pytest.mark.parametrize("theorem", sorted(set(verify.THEOREM_CHECKS) - {"prop3.3"}))
def test_verify_at_its_smallest_size_checks_a_case(capsys, theorem):
    n = max(ZERO_CASE_SIZES.get(theorem, [0])) + 1
    code, out, err = run(capsys, "verify", theorem, "--n", str(n))
    assert (code, out) == (0, f"PASS {theorem}\n")
    assert checked_count(err, f"{theorem} --n {n}") >= 1


@pytest.mark.parametrize(
    "argv, sized, count",
    [
        (["verify", "thm6.8", "--n", "6"], "thm6.8 --n 6", 89),
        (["verify", "thm7.3", "--n", "5"], "thm7.3 --n 5", 120),
        (["verify", "thm7.2", "--n", "6"], "thm7.2 --n 6", 11),
        (["verify", "prop3.3", "--k", "1"], "prop3.3 --k 1", 2),
        (["verify", "prop3.3", "--k", "3"], "prop3.3 --k 3", 6),
    ],
)
def test_verify_reports_how_many_cases_it_checked(capsys, argv, sized, count):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (0, f"PASS {sized.split()[0]}\n")
    assert checked_count(err, sized) == count


def test_verify_selfish_uses_k(capsys):
    code, out, _ = run(capsys, "verify", "prop3.3", "--k", "8")
    assert code == 0
    assert "PASS" in out


def test_verify_sampling_check(capsys):
    code, out, err = run(
        capsys, "--seed", "7", "verify", "cor3.6", "--n", "4", "--sample", "50"
    )
    assert code == 0
    assert "PASS" in out
    assert checked_count(err, "cor3.6 --n 4") == 50


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export", "2,1,4,3", "4,3,2,1")
    assert code == 0
    assert out.startswith("digraph")
    code, out, _ = run(capsys, "export", "--matched", "2,1,4,3", "4,3,2,1")
    assert code == 0
    assert "penwidth=3" in out


def test_closed_form_of_mixed_degrees_exits_two(capsys):
    code, out, err = run(capsys, "intersect", "--closed-form", "2,1,3", "1,3,2,4")
    assert code == 2
    assert not out
    assert "degrees 3 and 4 differ" in err


def test_invalid_permutation_exits_two(capsys):
    code, _, err = run(capsys, "boolean", "1,1,2")
    assert code == 2
    assert "error:" in err


def assert_refused_at_the_cap(*argv):
    done = run_cli(*argv)
    assert (done.returncode, done.stdout) == (2, ""), (argv, done.stderr)
    assert "more than the cap" in done.stderr
    assert "integer string conversion" not in done.stderr


def test_degree_cap_exits_two():
    for argv in (["grade", "2,1,3,4,5,6,7,8,9"], ["grade", "--all", "9"]):
        assert_refused_at_the_cap(*argv)


def test_verify_honours_the_degree_cap():
    assert_refused_at_the_cap("verify", "thm6.8", "--n", "9")


@pytest.mark.parametrize(
    "argv, need",
    [
        (["rs", "--rw", "1", "--rw-degree", "1"], 2),
        (["ork", "--rw", "--rw-degree", "4", "2 4 1"], 5),
        (["intersect", "--rw", "--rw-degree", "4", "1", "3 5"], 6),
    ],
)
def test_rw_degree_below_the_words_names_the_smallest_degree(capsys, argv, need):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"error: --rw-degree {argv[argv.index('--rw-degree') + 1]}:" in err
    assert f"need --rw-degree {need} or more" in err


@pytest.mark.parametrize(
    "argv, degree",
    [
        (["boolean", "--rw", "1", "--rw-degree", "1000001"], 1000001),
        (["boolean", "--rw", "1", "--rw-degree", "100000000"], 100000000),
        (["rs", "--rw", "1000000"], 1000001),
    ],
)
def test_rw_degree_above_the_cap_is_refused_first(argv, degree):
    done = run_cli(*argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith(
        f"error: reduced-word degree {degree} (--rw-degree, by default the "
        "largest letter + 1), more than the cap"
    )


def test_rw_degree_at_the_cap_is_served():
    """A word of S_{10^6} is evaluated in time linear in the degree: the
    request under the cap finishes within run_cli's timeout."""
    done = run_cli("boolean", "--rw", "1", "--rw-degree", "1000000")
    assert done.returncode == 0, done.stderr
    assert "\nsupport: [1]\n" in done.stdout


def test_exit_codes_do_not_depend_on_assert():
    for argv, code in (
        (["verify", "thm7.2", "--n", "4"], 0),
        (["grade", "2,1,3,4,5,6,7,8,9"], 2),
    ):
        done = run_cli(*argv, python_flags=["-O"])
        assert done.returncode == code, (argv, done.stderr)


def test_oversized_boolean_sweep_exits_two():
    assert_refused_at_the_cap("verify", "thm6.4", "--n", "30")


def test_oversized_sweep_over_all_of_s_n_exits_two():
    assert_refused_at_the_cap("verify", "prop5.8", "--n", "12")


@pytest.mark.parametrize(
    "command",
    [
        "grade --all 20000",
        "verify thm6.8 --n 20000",
        "selfish --k 1000000",
        "verify thm6.4 --n 1000000",
        "grade --all 2000",
        "verify thm6.4 --n 30000",
        "verify cor3.6 --n 20000 --sample 1",
        "selfish --k 100000",
        "verify prop3.3 --k 50",
        # prop5.8 checks each certificate against the sign assignment's ideal
        "verify prop5.8 --n 9",
    ],
)
def test_oversized_requests_fail_fast_at_any_size(command):
    # each count is read only up to the cap, and never printed
    assert_refused_at_the_cap(*command.split())


@pytest.mark.parametrize(
    "argv",
    [
        ["selfish", "--k", "80"],
        [
            "intersect", "--closed-form", "--rw",
            " ".join(map(str, range(1, 90))), " ".join(map(str, range(89, 0, -1))),
        ],
        [
            "intersect", "--closed-form",
            ",".join(map(str, [*range(2, 31), 1])),
            ",".join(map(str, [3, 4, 1, 2, *range(30, 4, -1)])),
        ],
    ],
)
def test_oversized_selfish_enumerations_exit_two(argv):
    assert_refused_at_the_cap(*argv)


def test_grade_without_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["grade"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "thm6.4"],
        ["verify", "prop3.3", "--n", "99"],
        ["verify", "thm2.4", "--n", "3", "--sample", "5"],
        ["verify", "thm2.4", "--n", "3", "--k", "4"],
        ["selfish", "--k", "3", "--universe", "1,2"],
        ["grade", "2,1,3", "--all", "3"],
        ["grade", "--all", "3", "--rw"],
        ["grade", "--all", "3", "--rw-degree", "5"],
        ["ork", "--rw-degree", "5", "5,1,2,3,4"],
        ["--seed", "5", "verify", "thm2.4", "--n", "3"],
        ["--format", "json", "ork", "5,1,2,3,4"],
        ["--format", "csv", "grade", "2,1"],
        ["--format", "dot", "grade", "2,1"],
        ["--format", "dot", "intersect", "--closed-form", "2,1,3", "1,3,2"],
        ["--degree-cap", "8", "rs", "2,1"],
        ["--ideal-cap", "5", "rs", "2,1"],
        ["verify", "prop3.3", "--k", "0"],
        ["verify", "thm6.8", "--n", "5", "--sample", "-3"],
        ["verify", "cor3.6", "--n", "4", "--sample", "0"],
    ],
)
def test_flags_that_would_be_ignored_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["selfish", "--k", "-3"], "--k"),
        (["selfish", "--k", "0"], "--k"),
        (["verify", "thm2.4", "--n", "0"], "--n"),
        (["verify", "thm2.4", "--n", "-1"], "--n"),
        (["grade", "--all", "-2"], "--all"),
        (["grade", "--all", "0"], "--all"),
        (["boolean", "--rw", "1", "--rw-degree", "0"], "--rw-degree"),
        (["rs", "--rw", "1", "--rw-degree", "-4"], "--rw-degree"),
    ],
)
def test_sizes_below_one_are_usage_errors_naming_the_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{flag} " in err and "at least 1" in err


def check_parameters(theorem):
    return inspect.signature(verify.THEOREM_CHECKS[theorem]).parameters


def size_flag(theorem):
    return ["--k", "1"] if "k_max" in check_parameters(theorem) else ["--n", "3"]


def test_check_flags_are_pinned():
    """The signatures give --sample to cor3.6 and thm6.8 and --k to prop3.3."""
    checks = sorted(verify.THEOREM_CHECKS)
    assert [t for t in checks if "sample" in check_parameters(t)] == ["cor3.6", "thm6.8"]
    assert [t for t in checks if "k_max" in check_parameters(t)] == ["prop3.3"]


def parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return False
    return True


@pytest.mark.parametrize("theorem", sorted(verify.THEOREM_CHECKS))
def test_verify_flags_follow_the_check_signature(capsys, theorem):
    params = check_parameters(theorem)
    assert parses(["verify", theorem, *size_flag(theorem)])
    assert parses(["verify", theorem, *size_flag(theorem), "--sample", "1"]) == (
        "sample" in params
    )
    assert parses(["verify", theorem, "--k", "1"]) == ("k_max" in params)
    if "n" in params:
        assert not parses(["verify", theorem])
        assert "the following arguments are required: --n" in capsys.readouterr().err
    else:
        assert parses(["verify", theorem])


def test_verify_help_lists_every_check(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    listed = [t for t in verify.THEOREM_CHECKS if re.search(rf"^    {re.escape(t)} ", out, re.M)]
    assert len(listed) == len(verify.THEOREM_CHECKS) == 15
