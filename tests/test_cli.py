import hashlib
import json
import os
import shlex
import subprocess
import sys

import pytest

from mgs import cli, tables
from mgs.cli import main
from mgs.tables import dumps_text, load_fixture


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_ball(capsys):
    code, out, _ = run(capsys, "ball", "D6:a,b", "--radius", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["relations"] == ["1", "g1^2", "g1^-2"]
    assert payload["marking"] == "Dih(Z/3):ref(0),rot(1)"


def test_dist(capsys):
    code, out, _ = run(capsys, "dist", "D6:a,b", "Dinf:a,b", "--rmax", "8")
    payload = json.loads(out)
    assert code == 0
    assert payload["agreement_radius"] == 2
    assert payload["separating_word"] == "g2^3"
    assert payload["distance"] == 0.125


@pytest.mark.parametrize(
    "order, distance",
    [(1074, 5e-324), (1075, "2^-1075"), (2000, "2^-2000")],
)
def test_dist_prints_a_distance_too_small_for_a_float_exactly(capsys, order, distance):
    # Z/n against Z agrees up to radius n - 1; 2.0 ** -1075 rounds to 0.0
    code, out, _ = run(capsys, "dist", f"Z/{order}:(1)", "Z:(1)", "--rmax", "3000")
    payload = json.loads(out)
    assert code == 0
    assert (payload["agreement_radius"], payload["exact"]) == (order - 1, True)
    assert payload["distance"] == distance
    assert payload["separating_word"] == f"g1^{order}"
    if order == 1074:
        assert '"distance": 5e-324,' in out


def test_dist_methods(capsys):
    for method in ("enumerate", "auto"):
        code, out, _ = run(
            capsys, "dist", "Z/5:(1)", "Z:(1)", "--rmax", "8", "--method", method
        )
        assert code == 0
        assert json.loads(out)["agreement_radius"] == 4
    with pytest.raises(SystemExit) as exc:
        main(["dist", "Z/5:(1)", "Z:(1)", "--method", "profile"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "a, b, r_max",
    [
        ("D6:a,b", "D6:a,b", "30"),
        ("Dih(Z/4 x Z/4):a,b,c", "Dih(Z/4 x Z/4):a,c,b", "9"),
        ("D6:a,b", "D6:a,b", "1000000000"),
        ("Dih(Z/4 x Z/4):a,b,c", "Dih(Z/4 x Z/4):a,c,b", "1000000000"),
    ],
)
def test_dist_enumerate_answers_once_the_pair_walk_is_exhausted(capsys, a, b, r_max):
    code, out, err = run(capsys, "dist", a, b, "--rmax", r_max, "--method", "enumerate")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["agreement_radius"] == int(r_max)
    assert payload["separating_word"] is None
    assert run(capsys, "dist", a, b, "--rmax", r_max) == (code, out, err)


def test_converge(capsys):
    code, out, _ = run(
        capsys,
        "converge",
        "--family",
        "Dih(Z/N):a,b",
        "--limit",
        "Dinf:a,b",
        "--range",
        "3..8",
        "--rmax",
        "8",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"] == "consistent-with-convergence"
    assert payload["radii"] == [2, 3, 4, 5, 6, 7]


def test_limit_check(capsys):
    code, out, _ = run(capsys, "limit-check", "Dih(Z x Z/6)")
    payload = json.loads(out)
    assert code == 0
    assert payload["limit_of_dihedral"]["value"] is True
    assert payload["rank"] == 3
    code, out, _ = run(capsys, "limit-check", "Dih(Z/2 x Z/4)")
    payload = json.loads(out)
    assert code == 0  # a computed negative verdict still exits 0
    assert payload["limit_of_dihedral"]["value"] is False
    code, out, _ = run(capsys, "limit-check", "Z x Z/6")
    payload = json.loads(out)
    assert payload["limit_of_cyclic"] is True


def test_residual_dihedral(capsys):
    code, out, _ = run(capsys, "residual", "Dinf", "--kill", "rot(1),rot(2),ref(-1)")
    assert code == 0
    assert out == (
        '{\n  "group": "Dih(Z)",\n  "target": "Dih(Z/3)",\n  "half_order": 3,\n'
        '  "modulus": 3,\n  "free_multipliers": [\n    1\n  ],\n'
        '  "torsion_multipliers": [],\n  "images": {\n    "rot(1)": "rot(1)",\n'
        '    "rot(2)": "rot(2)",\n    "ref(-1)": "ref(2)"\n  }\n}\n'
    )


def test_residual_abelian(capsys):
    code, out, _ = run(capsys, "residual", "Z^2", "--kill", "(1,0),(0,2),(3,3)")
    assert code == 0
    assert out == (
        '{\n  "group": "Z^2",\n  "target": "Z/35",\n  "modulus": 35,\n'
        '  "free_multipliers": [\n    7,\n    5\n  ],\n  "torsion_multipliers": [],\n'
        '  "images": {\n    "(1,0)": 7,\n    "(0,2)": 10,\n    "(3,3)": 1\n  }\n}\n'
    )


def test_check_builtin(capsys):
    code, out, _ = run(capsys, "check", "@P1", "--in", "D12")
    payload = json.loads(out)
    assert code == 0 and payload["holds"] is True
    code, out, _ = run(capsys, "check", "@P4", "--in", "Dih(Z/4 x Z/4)", "--budget", "100000000")
    payload = json.loads(out)
    assert code == 0 and payload["holds"] is False
    assert payload["counterexample"] is not None


def test_check_table_file(tmp_path, capsys):
    a4 = load_fixture("A4")
    path = tmp_path / "a4.txt"
    path.write_text(dumps_text(a4))
    code, out, _ = run(capsys, "check", "@P1", "--in", str(path))
    payload = json.loads(out)
    assert code == 0 and payload["holds"] is False


def test_classify_table(capsys):
    code, out, _ = run(capsys, "classify", "D12", "--arity", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["structure"] == "Dih(Z/6)"  # the DSL comes before the D12 fixture
    assert payload["count"] == 3
    assert sorted(tuple(c["I"]) for c in payload["classes"]) == [(1,), (1, 2), (2,)]


def test_classify_free_by_flip(capsys):
    code, out, _ = run(capsys, "classify", "Dih(Z^2)")
    payload = json.loads(out)
    assert code == 0
    assert payload["count"] == 7
    assert len(payload["classes"]) == 7


@pytest.mark.parametrize("arity", ["0", "-1"])
def test_classify_rejects_arity_below_one(capsys, arity):
    code, out, err = run(capsys, "classify", "D12", "--arity", arity)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == f"arity must be at least 1, got {arity}"


def test_classify_free_by_flip_checks_an_explicit_arity(capsys):
    code, out, err = run(capsys, "classify", "Dih(Z^2)", "--arity", "0")
    assert code == 1
    assert out == ""
    assert "not 0" in json.loads(err)["error"]


D2_PAIRS = [["rot(0)", "ref(0)"], ["ref(0)", "rot(0)"], ["ref(0)", "ref(0)"]]


@pytest.mark.parametrize(
    "argv, arity, representatives",
    [
        (["D2"], 2, D2_PAIRS),
        (["D2", "--arity", "1"], 1, [["ref(0)"]]),
        (["D2", "--arity", "2"], 2, D2_PAIRS),
        (["Dinf"], 2, [["ref(0)", "rot(1)"], ["rot(1)", "ref(0)"], ["ref(0)", "ref(1)"]]),
    ],
)
def test_classify_takes_the_table_route_for_a_finite_dihedral_base(
    capsys, argv, arity, representatives
):
    # D2 is Dih(Z/1): free rank 0, so it has no canonical free-by-flip classes
    code, out, err = run(capsys, "classify", *argv)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["arity"], payload["count"]) == (arity, len(representatives))
    assert [c["representative"] for c in payload["classes"]] == representatives


@pytest.mark.parametrize(
    "target, arity, patterns, orbit",
    [
        ("Z/101", "1", [[]], 100),
        ("Dih(Z/60)", "2", [[2], [1], [1, 2]], 960),  # |Hol(Z/60)| = 60 * 16
        ("Dih(Z/8 x Z/8)", "2", [], None),  # no generating pair
    ],
)
def test_classify_tables_above_order_100(capsys, target, arity, patterns, orbit):
    code, out, err = run(capsys, "classify", target, "--arity", arity)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["count"] == len(patterns)
    assert [c["I"] for c in payload["classes"]] == patterns
    assert all(c["orbit_size"] == orbit for c in payload["classes"])


def test_converge_rejects_an_empty_range(capsys):
    code, out, err = run(
        capsys,
        "converge",
        "--family",
        "Dih(Z/N):a,b",
        "--limit",
        "Dinf:a,b",
        "--range",
        "3..2",
    )
    assert code == 1
    assert out == ""
    assert "empty family" in json.loads(err)["error"]


def test_cb_rank(capsys):
    code, out, _ = run(capsys, "cb-rank", "Dih(Z^2)", "--family", "dihedral")
    assert code == 0
    assert json.loads(out)["rank"] == 2
    code, out, _ = run(capsys, "cb-rank", "Z/2", "--family", "dihedral")
    assert code == 0
    assert json.loads(out) == {"group": "Z/2", "family": "dihedral", "rank": 0}
    code, out, err = run(capsys, "cb-rank", "Dih(Z/2 x Z/4)", "--family", "dihedral")
    assert code == 1
    assert "error" in err


def test_closure_map_golden(capsys):
    code, out, _ = run(capsys, "closure-map", "--range", "3..8")
    assert code == 0
    golden = open("tests/data/closure_map_3_8.json").read()
    assert out == golden
    code, out, _ = run(capsys, "closure-map", "--range", "3..8", "--dot")
    golden_dot = open("tests/data/closure_map_3_8.dot").read()
    assert out == golden_dot


def test_recognize(capsys):
    code, out, _ = run(capsys, "recognize", "D12")
    payload = json.loads(out)
    assert code == 0
    assert payload["kind"] == "generalized-dihedral"
    assert payload["base"] == "Z/6"


def test_recognize_fixture_file(tmp_path, capsys):
    q8 = load_fixture("Q8")
    path = tmp_path / "q8.txt"
    path.write_text(dumps_text(q8))
    code, out, _ = run(capsys, "recognize", str(path))
    payload = json.loads(out)
    assert code == 0 and payload["kind"] == "no"


def test_shipped_fixtures_are_reachable_by_name(capsys):
    _, by_name, _ = run(capsys, "classify", "DihZ4xZ4", "--arity", "3")
    _, by_group, _ = run(capsys, "classify", "Dih(Z/4 x Z/4)", "--arity", "3")
    assert json.loads(by_name)["count"] == 7
    assert json.loads(by_name)["classes"] == json.loads(by_group)["classes"]
    q8_path = os.path.join(os.path.dirname(tables.__file__), "fixtures", "Q8.txt")
    for structure in ("Q8", q8_path):
        code, out, _ = run(capsys, "check", "@P1", "--in", structure)
        assert code == 0 and json.loads(out)["counterexample"] == ["g2", "g4"]
    code, out, _ = run(capsys, "recognize", "A4")
    assert code == 0 and json.loads(out)["kind"] == "no"


NOT_A_TABLE = 'a JSON table is an object with a list of rows under "table"'


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"order": 2}', NOT_A_TABLE),
        ("[1, 2]", NOT_A_TABLE),
        ('{"table": null}', NOT_A_TABLE),
        ('{"table": [1, 2]}', NOT_A_TABLE),
        ('{"table": [[0, 1.5], [1, 0]]}', "entry at (0,1) is 1.5, not an integer"),
        ('{"table": [[0, 1], [1, true]]}', "entry at (1,1) is True, not an integer"),
        ('{"table": [["0", "1"], ["1", "0"]]}', "entry at (0,0) is '0', not an integer"),
    ],
    ids=["no-table", "list", "null-table", "flat-rows", "float", "bool", "strings"],
)
def test_malformed_json_tables_are_one_json_error(tmp_path, capsys, text, message):
    path = tmp_path / "table.json"
    path.write_text(text)
    for argv in (["recognize", str(path)], ["check", "forall x : x^2 = 1", "--in", str(path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and json.loads(err) == {"error": message}


@pytest.mark.parametrize(
    "text, message",
    [
        ("2\n0 1\n1 0\n1 0\n", "expected 2 rows, found 3"),
        ("x\n0 1\n1 0\n", "the first line is the order, one integer, not 'x'"),
        ("2\n0 1\n1 a\n", "entry at (1,1) is 'a', not an integer"),
    ],
    ids=["extra-row", "order-not-an-integer", "entry-not-an-integer"],
)
def test_malformed_text_tables_are_one_json_error(tmp_path, capsys, text, message):
    path = tmp_path / "table.txt"
    path.write_text(text)
    code, out, err = run(capsys, "recognize", str(path))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and json.loads(err) == {"error": message}


BAD_LABELS = '"labels" of a JSON table must be a list of strings'


@pytest.mark.parametrize(
    "labels",
    ['"ab"', '{"x": 1, "y": 2}', "[1, null]", "5"],
    ids=["string", "object", "non-strings", "number"],
)
def test_json_table_labels_must_be_a_list_of_strings(tmp_path, capsys, labels):
    path = tmp_path / "table.json"
    path.write_text('{"table": [[0, 1], [1, 0]], "labels": %s}' % labels)
    for argv in (["recognize", str(path)], ["classify", str(path), "--arity", "1"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and json.loads(err) == {"error": BAD_LABELS}


def test_json_table_labels_name_the_representatives(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text('{"table": [[0, 1], [1, 0]], "labels": ["e", "s"]}')
    code, out, err = run(capsys, "classify", str(path), "--arity", "1")
    assert (code, err) == (0, "")
    assert [c["representative"] for c in json.loads(out)["classes"]] == [["s"]]


def test_unknown_names_keep_the_parse_error(capsys):
    code, out, err = run(capsys, "classify", "Nope")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "unknown group name 'Nope' (line 1, column 1)"}
    # a fixture is looked up by name only, never by a path relative to the fixtures
    code, out, err = run(capsys, "recognize", "../__init__.py")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "unexpected character '.' (line 1, column 1)"}


def readme_commands():
    """The `mgs ...` lines of the README's CLI block, with `[--dot]` both ways."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        readme = f.read()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if argv[-1] == "[--dot]":
            yield argv[1:-1]
            argv[-1] = "--dot"
        yield argv[1:]


def test_readme_commands_answer(capsys):
    commands = list(readme_commands())
    assert len(commands) == 12
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert out


PINNED_COMMANDS = [
    ["recognize", "D12"],
    ["recognize", "A4"],
    ["residual", "Dih(Z x Z/6)", "--kill", "rot(1;0),ref(0;1)"],
    ["dist", "Z/1075:(1)", "Z:(1)", "--rmax", "2000"],
    ["classify", "Dinf"],
    ["ball", "D13:a,b", "--radius", "2"],
    ["ball", "D6:a,b", "--radius", "-1"],
    ["converge", "--family", "Dih(Z/N):a,b", "--limit", "Dinf:a,b", "--range", "3..2"],
]


def test_cli_bytes_are_pinned(capsys):
    # exit code, stdout and stderr of the README's commands and of a few
    # verdicts and errors more: any change to these bytes must be deliberate
    records = [(argv, *run(capsys, *argv)) for argv in list(readme_commands()) + PINNED_COMMANDS]
    assert [code for _, code, _, _ in records[-3:]] == [2, 1, 1]
    assert hashlib.sha256(repr(records).encode()).hexdigest()[:16] == "22de863e514cb230"


@pytest.mark.parametrize(
    "group, digest",
    [
        ("Z/4 x Z/4 x Z/8", "e200bc02192bb979ff980bc574b0d712085bc42f5bec1db7eca2250dec3db6cc"),
        ("Dih(Z/8 x Z/8)", "61818df3d4c1c1672c687c6010bd80d97102285d79944b332ca8b39b5810627a"),
    ],
)
def test_classify_of_the_largest_tables_is_pinned(capsys, group, digest):
    # 7 classes each, of orbit 98,304: every automorphism is listed
    code, out, err = run(capsys, "classify", group, "--arity", "3")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def run_module(*argv):
    """(exit code, stdout, stderr) of `python -m mgs.cli` in a fresh process."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + sys.path))
    out = subprocess.run(
        [sys.executable, "-m", "mgs.cli", *argv], capture_output=True, text=True, env=env
    )
    return out.returncode, out.stdout, out.stderr


def test_the_module_entry_point_prints_and_exits_as_main(capsys):
    assert run_module("limit-check", "Dinf") == run(capsys, "limit-check", "Dinf")
    for argv, exit_code in ((PINNED_COMMANDS[-3], 2), (PINNED_COMMANDS[-2], 1)):
        code, out, err = run_module(*argv)
        assert (code, out) == (exit_code, "")
        assert "error" in json.loads(err)


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "ball", "D13:a,b", "--radius", "2")
    assert code == 2
    assert "error" in err


def test_operational_error_exit_code(capsys):
    code, _, err = run(capsys, "ball", "D6:a,b", "--radius", "-1")
    assert code == 1


def test_closure_map_has_no_arity_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["closure-map", "--arity", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("value", ["abc", "-1", "0"])
def test_bad_ball_cap_is_a_json_error(monkeypatch, capsys, value):
    monkeypatch.setenv("MGS_BALL_CAP", value)
    code, out, err = run(capsys, "dist", "D6:a,b", "Dinf:a,b")
    assert code == 1
    assert out == ""
    assert "MGS_BALL_CAP" in json.loads(err)["error"]


def test_converge_and_closure_map_take_an_a_dot_dot_b_range(capsys):
    code, out, _ = run(
        capsys, "converge", "--family", "Dih(Z/N):a,b", "--limit", "Dinf:a,b", "--range", "3..4"
    )
    assert code == 0
    assert json.loads(out)["radii"] == [2, 3]
    code, out, _ = run(capsys, "closure-map", "--range", "3..4", "--rmax", "4")
    assert code == 0
    assert json.loads(out)


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["converge", "--family", "Dih(Z/N):a,b", "--limit", "Dinf:a,b", "--range", "3"], 1),
        (["closure-map", "--range", "3-8"], 1),
        (["check", "forall x : x^1000000000000 = 1", "--in", "D6"], 2),
        (["check", "forall x : ((x^2)^-1000000000000) = 1", "--in", "D6"], 2),
        (["limit-check", "Z^1000000000000"], 2),
        (["ball", "D13:a,b", "--radius", "2"], 2),
        (["dist", "D6:a,b", "Dih(Z^2):a,b,c"], 1),
        (["check", "forall x : " + "(" * 400 + "x" + ")" * 400 + " = 1", "--in", "D6"], 2),
        (["check", "@P1", "--in", "Dih(Z/1000000000000)"], 1),
        (
            ["check", "forall " + " ".join(f"x{i}" for i in range(1, 1201)) + " : x1 = x1200"]
            + ["--in", "Z/1"],
            1,
        ),
        (["recognize", "Dih(Z/1000000000000)"], 1),
        (["classify", "Dih(Z/1000000000000)"], 1),
        (["classify", "D12", "--arity", "1000000000"], 1),
        (["ball", "D6:a,b", "--radius", "1000000000"], 1),
        (
            ["converge", "--family", "Dih(Z/N):a,b", "--limit", "Dinf:a,b"]
            + ["--range", "3..1000000000000"],
            1,
        ),
        (["closure-map", "--range", "3..1000000000000"], 1),
    ],
    ids=[
        "range-3",
        "range-3-8",
        "word-exponent",
        "nested-term-exponent",
        "free-rank",
        "D13",
        "arities",
        "deep-nesting",
        "huge-table-check",
        "many-variables",
        "huge-table-recognize",
        "huge-table-classify",
        "huge-arity-classify",
        "huge-radius",
        "huge-range-converge",
        "huge-range-closure-map",
    ],
)
def test_bad_input_is_one_json_error(capsys, argv, exit_code):
    code, out, err = run(capsys, *argv)
    assert code == exit_code
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    payload = json.loads(err)
    assert isinstance(payload, dict) and "error" in payload
    if argv[0] in ("converge", "closure-map"):
        assert "a..b" in payload["error"]


# ---------------------------------------------------------------------------
# One parser per process


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of one call, usage errors and --help too."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


KINDS = {
    "success": ["dist", "D6:a,b", "Dinf:a,b"],
    "usage error": ["dist", "D6:a,b"],
    "help": ["dist", "--help"],
    "json error": ["ball", "D6:a,b", "--radius", "-1"],
}


def test_main_builds_its_parser_once(monkeypatch, capsys):
    builds = []
    build = cli.build_parser

    def spy():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", spy)
    for argv in list(KINDS.values()) * 2 + [KINDS["success"]] * 2:
        outcome(capsys, argv)
    assert len(builds) == 1


@pytest.mark.parametrize("before", KINDS)
@pytest.mark.parametrize("kind", KINDS)
def test_a_kept_parser_answers_as_a_fresh_one(monkeypatch, capsys, kind, before):
    monkeypatch.setattr(cli, "_parser", None)  # as at the start of a process
    first = outcome(capsys, KINDS[kind])
    monkeypatch.setattr(cli, "_parser", None)
    outcome(capsys, KINDS[before])
    assert outcome(capsys, KINDS[kind]) == first
    assert first[0] == {"success": 0, "usage error": 2, "help": 0, "json error": 1}[kind]


def test_a_kept_parser_reads_the_ball_cap_on_every_call(monkeypatch, capsys):
    argv = ["ball", "Dinf:a,b", "--radius", "5"]
    monkeypatch.delenv("MGS_BALL_CAP", raising=False)
    assert outcome(capsys, argv)[0] == 0
    monkeypatch.setenv("MGS_BALL_CAP", "100")
    code, out, err = outcome(capsys, argv)
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "radius-5 stratum over 2 generators exceeds the cap of 100"
    }
    monkeypatch.delenv("MGS_BALL_CAP")
    assert outcome(capsys, argv)[0] == 0
