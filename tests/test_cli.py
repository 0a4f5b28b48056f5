"""Command-line interface: outputs, exit codes, and determinism."""

import contextlib
import dataclasses
import gc
import io
import json
import os
import random
import tempfile
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borrays import cli, diagrams, groupoid
from borrays.homcount import (
    MAX_DEGREE,
    count_classes_burnside,
    count_classes_enumerate,
)
from borrays.presentations import MAX_TIETZE_LETTERS, presentation


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_homcount_eps3_sym4(capsys):
    code, out, _ = run(capsys, "homcount", "--expr", "eps3", "--sym", "4")
    assert code == 0
    assert "classes: 43" in out


def test_homcount_json_line(capsys):
    code, out, _ = run(capsys, "--json", "homcount", "--expr", "A",
                       "--sym", "4", "--method", "both")
    assert code == 0
    objs = [json.loads(line) for line in out.splitlines()]
    assert {o["method"] for o in objs} == {"enumerate", "burnside"}
    for o in objs:
        assert (o["n"], o["classes"]) == (4, 47)
        assert type(o["nodes"]) is int and o["nodes"] > 0


def test_homcount_unknown_block(capsys):
    code, _, err = run(capsys, "homcount", "--expr", "Zz", "--sym", "3")
    assert code == 1
    assert "valid names are" in err


def test_homcount_requires_deep_for_sym6(capsys):
    code, _, err = run(capsys, "homcount", "--expr", "eps3", "--sym", "6")
    assert code == 1
    assert "--deep" in err


@pytest.mark.parametrize("deep", [(), ("--deep",)])
def test_homcount_degree_above_max_is_a_user_error(capsys, deep):
    for method in ("enumerate", "burnside", "both"):
        for sym in (MAX_DEGREE + 1, 10):
            code, out, err = run(capsys, "homcount", "--expr", "A",
                                 "--sym", str(sym), "--method", method, *deep)
            assert code == 1
            assert out == ""
            assert len(err.splitlines()) == 1
            assert f"MAX_DEGREE = {MAX_DEGREE}" in err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_homcount_counts_into_sym0(capsys, json_flag):
    # The library decides which degrees count: Sym(0) has one element, so
    # one homomorphism and one class, by either method.
    code, out, err = run(capsys, *json_flag, "homcount", "--expr", "A",
                         "--sym", "0", "--method", "both")
    assert (code, err) == (0, "")
    if json_flag:
        objs = [json.loads(line) for line in out.splitlines()]
        assert [(o["n"], o["classes"], o["total"], o["method"]) for o in objs] == [
            (0, 1, 1, "enumerate"), (0, 1, 1, "burnside")]
    else:
        assert out == ("A  Sym(0)  classes: 1  total: 1  method: enumerate\n"
                       "A  Sym(0)  classes: 1  total: 1  method: burnside\n")


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("method", ["enumerate", "burnside", "both"])
def test_homcount_negative_degree_is_the_library_error(capsys, json_flag, method):
    with pytest.raises(ValueError) as refused:
        count_classes_burnside(presentation(diagrams.builtin("A")), -1)
    code, out, err = run(capsys, *json_flag, "homcount", "--expr", "A",
                         "--sym", "-1", "--method", method)
    assert (code, out) == (1, "")
    assert err == f"error: {refused.value}\n"


@pytest.mark.parametrize("method", ["enumerate", "both"])
def test_homcount_enumerate_refuses_above_max_degree(capsys, method):
    # Enumeration has no lower cap of its own: it refuses the degree that
    # Burnside refuses, before the table of Sym(MAX_DEGREE + 1) is built.
    code, out, err = run(capsys, "homcount", "--expr", "eps3",
                         "--sym", str(MAX_DEGREE + 1), "--deep",
                         "--method", method)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert f"MAX_DEGREE = {MAX_DEGREE}" in err


def test_homcount_both_methods_build_one_table(capsys, monkeypatch):
    # --method both searches one table of Sym(n), freed with the command.
    from borrays import _homsearch_py
    build, tables = _homsearch_py.symmetric_group, []

    def spy(n):
        table = build(n)
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(_homsearch_py, "symmetric_group", spy)
    for method, lines in (("both", 2), ("enumerate", 1), ("burnside", 1)):
        tables.clear()
        code, out, _ = run(capsys, "homcount", "--expr", "A", "--sym", "4",
                           "--method", method)
        assert code == 0 and out.count("classes: 47") == lines
        gc.collect()
        assert len(tables) == 1 and tables[0]() is None


def test_homcount_budget_exhaustion(capsys):
    code, _, err = run(capsys, "--budget", "5", "homcount",
                       "--expr", "A A", "--sym", "4")
    assert code == 2
    assert "budget" in err.lower()


def test_homcount_negative_budget_is_a_user_error(capsys):
    code, out, err = run(capsys, "--budget", "-5", "homcount",
                         "--expr", "A", "--sym", "3")
    assert code == 1
    assert out == ""
    assert err == "error: --budget must be a non-negative integer\n"


def test_homcount_zero_budget_is_exhausted(capsys):
    code, out, err = run(capsys, "--budget", "0", "homcount",
                         "--expr", "A", "--sym", "3")
    assert code == 2
    assert out == ""
    assert "budget of 0" in err


def test_homcount_budget_caps_the_whole_command(capsys):
    p = presentation(diagrams.builtin("A"))
    nodes = (count_classes_enumerate(p, 4).nodes
             + count_classes_burnside(p, 4).nodes)
    argv = ("homcount", "--expr", "A", "--sym", "4", "--method", "both")
    code, out, _ = run(capsys, "--budget", str(nodes), *argv)
    assert code == 0
    assert out.count("classes: 47") == 2
    code, out, err = run(capsys, "--budget", str(nodes - 1), *argv)
    assert code == 2
    assert out == ""
    assert f"budget of {nodes - 1}" in err


def test_homcount_file_input(capsys, tmp_path):
    path = tmp_path / "a.json"
    path.write_text(diagrams.to_json(diagrams.builtin("A")))
    code, out, _ = run(capsys, "homcount", "--file", str(path), "--sym", "4")
    assert code == 0
    assert "classes: 47" in out


def _nested(depth):
    return "[" * depth + "]" * depth


# The error line is short even when the malformed value is huge.
@pytest.mark.parametrize("field, value", [
    ("signs", []),
    ("outer_order", [[1], 2]),
    ("n_strands", 10**12),
    pytest.param("n_strands", "9" * 5_000_000, id="n_strands-huge-string"),
    pytest.param("strands", [json.loads(_nested(900))], id="strand-nested-900"),
])
def test_malformed_json_field_is_a_user_error(capsys, tmp_path, field, value):
    obj = json.loads(diagrams.to_json(diagrams.builtin("A")))
    obj[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "homcount", "--file", str(path), "--sym", "2")
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and len(err.encode()) < 200


def _extra_signs(obj):
    first = max(int(c) for c in obj["signs"]) + 1
    obj["signs"].update({str(c): 1 for c in range(first, first + 200_000)})


def _huge_role(obj):
    obj["strands"][0][0]["role"] = "x" * 5_000_000


def _huge_inner_order(obj):
    obj["inner_order"] = list(range(2, 1_000_002))


# Values that are well typed but invalid: validation names the first
# violation briefly and counts the rest.
@pytest.mark.parametrize("mutate", [_huge_role, _huge_inner_order, _extra_signs],
                         ids=["role", "inner_order", "signs"])
def test_invalid_diagram_error_is_one_short_line(capsys, tmp_path, mutate):
    obj = json.loads(diagrams.to_json(diagrams.builtin("A")))
    mutate(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "present", "--file", str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: invalid diagram: ") and len(err.encode()) < 200


DEEP = _nested(100_000)  # too deep for json.loads


@pytest.mark.parametrize("command, text", [
    (("present",), DEEP),
    (("homcount", "--sym", "2"), '{"strands": ' + DEEP + ', "signs": {}, '
     '"inner_order": [], "outer_order": [], "n_strands": 3}'),
], ids=["document", "strands"])
def test_deeply_nested_json_is_a_user_error(capsys, tmp_path, command, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run(capsys, *command, "--file", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: malformed diagram JSON: nested too deeply\n"


@pytest.mark.parametrize("command", [("present",), ("homcount", "--sym", "4")],
                         ids=["present", "homcount"])
def test_expr_and_file_together_is_a_usage_error(capsys, tmp_path, command):
    path = tmp_path / "eps3.json"
    path.write_text(diagrams.to_json(diagrams.builtin("eps3")))
    code, out, err = run(capsys, *command, "--expr", "A", "--file", str(path))
    assert code == 1
    assert out == ""
    assert "not allowed with argument" in err


def test_present_output(capsys):
    code, out, _ = run(capsys, "present", "--expr", "A")
    assert code == 0
    assert out == (
        "gens: x1,x2,x3,y1,y2,y3,z1,z2,z3\n"
        "Y2 x1 y2 X2\n"
        "Z2 x2 z2 X3\n"
        "Z2 y1 z2 Y2\n"
        "X2 y2 x2 Y3\n"
        "X2 z1 x2 Z2\n"
        "Y2 z2 y2 Z3\n"
        "x1 y1 z1\n"
    )
    code, out, _ = run(capsys, "present", "--expr", "eps3")
    assert code == 0
    assert out == "gens: x1,y1,z1\nx1 y1 z1\n"


def test_present_simplify_and_abelianization(capsys):
    code, out, _ = run(capsys, "--json", "present", "--expr", "A",
                       "--simplify", "--abelianization")
    assert code == 0
    obj = json.loads(out)
    assert obj["abelianization"] == {"rank": 2, "torsion": []}
    assert len(obj["generators"]) < 9


def test_present_abelianization_of_a_long_word(capsys):
    rng = random.Random(200)
    names = ("A", "Ab", "As", "Abs", "dirac", "eps3")
    word = " ".join(rng.choice(names) for _ in range(200))
    code, out, _ = run(capsys, "present", "--expr", word, "--abelianization")
    assert code == 0
    assert out.splitlines()[-1] == "abelianization: rank 2, torsion []"


def _seeded_block_word():
    rng = random.Random(25)
    return " ".join(rng.choice(("A", "Ab", "As", "Abs", "dirac", "eps3"))
                    for _ in range(6))


@pytest.mark.parametrize("expr", [*diagrams.BUILTIN_NAMES, _seeded_block_word()])
@pytest.mark.parametrize("outer", [[], ["--outer-vertex"]])
def test_present_abelianization_is_unchanged_by_simplify(capsys, expr, outer):
    argv = ["present", "--expr", expr, "--abelianization", *outer]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    code, simplified, err = run(capsys, *argv, "--simplify")
    assert (code, err) == (0, "")
    assert simplified.splitlines()[-1] == out.splitlines()[-1]
    assert out.splitlines()[-1].startswith("abelianization: rank ")
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0
    code, simplified, _ = run(capsys, "--json", *argv, "--simplify")
    assert code == 0
    assert (json.loads(simplified)["abelianization"]
            == json.loads(out)["abelianization"])


def test_global_flags_go_before_the_subcommand(capsys):
    code, out, _ = run(capsys, "--json", "present", "--expr", "A")
    assert code == 0
    assert json.loads(out)["generators"]
    code, out, err = run(capsys, "present", "--expr", "A", "--json")
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --json" in err


def test_present_huge_eps_is_a_user_error(capsys):
    code, out, err = run(capsys, "present", "--expr", "eps100000000")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "at most 1000 strands" in err


@pytest.mark.parametrize("name", ["eps01", "eps+2", "eps\u0663"])
def test_present_noncanonical_eps_is_a_user_error(capsys, name):
    code, out, err = run(capsys, "present", "--expr", name)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: unknown builtin diagram")


@pytest.mark.parametrize("key", ["01", "x"])
def test_present_noncanonical_sign_key_is_a_user_error(capsys, tmp_path, key):
    obj = json.loads(diagrams.to_json(diagrams.builtin("A")))
    obj["signs"][key] = -1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "present", "--file", str(path))
    assert code == 1
    assert out == ""
    assert err == (f"error: malformed diagram JSON: signs key {key!r} is not "
                   "a canonical integer\n")


def test_json_boolean_sign_is_a_user_error(capsys, tmp_path):
    obj = json.loads(diagrams.to_json(diagrams.builtin("A")))
    obj["signs"]["1"] = True
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "present", "--file", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: invalid diagram: crossing 1 has sign True\n"


def test_present_simplify_blow_up_is_a_user_error(capsys):
    # Three copies of A Ab As Abs would simplify past the letter cap.
    word = " ".join(["A", "Ab", "As", "Abs"] * 3)
    code, out, err = run(capsys, "present", "--simplify", "--expr", word)
    assert code == 1
    assert out == ""
    assert err == ("error: Tietze simplification would hold more than "
                   f"{MAX_TIETZE_LETTERS} relator letters\n")


def test_present_simplify_blow_up_with_abelianization_prints_nothing(capsys):
    # H1 is computed before Tietze runs; the cap still ends the command.
    word = " ".join(["A", "Ab", "As", "Abs"] * 3)
    code, out, err = run(capsys, "present", "--simplify", "--abelianization",
                         "--expr", word)
    assert code == 1
    assert out == ""
    assert err == ("error: Tietze simplification would hold more than "
                   f"{MAX_TIETZE_LETTERS} relator letters\n")


def test_a_1000_block_word_answers_or_exhausts_the_budget_quickly(capsys):
    rng = random.Random(5)
    word = " ".join(rng.choice(("A", "Ab", "As", "Abs")) for _ in range(1000))
    start = time.perf_counter()
    code, out, _ = run(capsys, "homcount", "--expr", word, "--sym", "1")
    assert code == 0
    assert out.endswith("  Sym(1)  classes: 1  total: 1  method: burnside\n")
    assert time.perf_counter() - start < 3
    start = time.perf_counter()
    code, out, err = run(capsys, "--budget", "0", "homcount", "--expr", word,
                         "--sym", "1")
    assert code == 2
    assert out == ""
    assert err == "error: search exceeded the node budget of 0\n"
    assert time.perf_counter() - start < 3


def test_present_requires_input(capsys):
    code, _, err = run(capsys, "present")
    assert code == 1
    assert "--expr" in err


def test_groupoid_table(capsys):
    code, out, _ = run(capsys, "groupoid", "--emit", "table2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10  # 2 header lines + 8 rows
    import re
    assert out.count("A3") == 16
    assert len(re.findall(r"\bC\b", out)) == 16


def test_groupoid_list(capsys):
    code, out, _ = run(capsys, "groupoid", "--emit", "list")
    assert code == 0
    assert len(out.splitlines()) == 96


def test_groupoid_json(capsys):
    code, out, _ = run(capsys, "--json", "groupoid", "--emit", "table2")
    assert code == 0
    obj = json.loads(out)
    assert (obj["realized"], obj["excluded"]) == (96, 288)
    assert len(obj["cells"]) == 64


def test_groupoid_integrity_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(groupoid, "realized_closure", lambda: set())
    code, _, err = run(capsys, "groupoid")
    assert code == 3
    assert "integrity" in err.lower()


@pytest.mark.parametrize("field, shift, want", [
    ("class_count", 1, "classes: enumerate classes 47 total 672 vs "
                       "burnside classes 48 total 672"),
    ("total_homs", 24, "total: enumerate classes 47 total 672 vs "
                       "burnside classes 47 total 696"),
])
def test_homcount_methods_disagree_exit_code(capsys, monkeypatch, field,
                                             shift, want):
    # A into Sym(4) has 47 classes and 672 homomorphisms by both methods;
    # a skewed Burnside result must be named by the quantity that differs.
    burnside = cli.count_classes_burnside

    def skewed(*args, **kwargs):
        r = burnside(*args, **kwargs)
        return dataclasses.replace(r, **{field: getattr(r, field) + shift})

    monkeypatch.setattr(cli, "count_classes_burnside", skewed)
    code, out, err = run(capsys, "homcount", "--expr", "A", "--sym", "4",
                         "--method", "both")
    assert (code, out) == (3, "")
    assert err == f"internal integrity error: methods disagree on {want}\n"


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--s1", "per: A",
                       "--s2", "per: As")
    assert code == 0
    assert "orientation-preserving equivalent: false" in out
    assert "orientation-reversing equivalent:  true" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "--json", "classify",
                       "--s1", "pre: Ab ; per: A As", "--s2", "per: As A")
    assert code == 0
    obj = json.loads(out)
    assert obj["cond1"]["holds"] and obj["equivalent"]


def test_achiral(capsys):
    code, out, _ = run(capsys, "achiral", "--s", "per: A As")
    assert code == 0
    assert "achiral: true" in out
    code, out, _ = run(capsys, "achiral", "--s", "per: A")
    assert code == 0
    assert "achiral: false" in out


def test_achiral_bad_sequence(capsys):
    code, _, err = run(capsys, "achiral", "--s", "per: Qq")
    assert code == 1
    assert "valid labels are" in err


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "homcount", "--expr", "A")[0] == 1  # missing --sym
    assert run(capsys, "nonsense")[0] == 1


def test_the_parser_is_built_once_and_reused(capsys):
    assert cli._build_parser() is cli._build_parser()
    code, out, _ = run(capsys, "--json", "classify", "--s1", "per: A",
                       "--s2", "per: As")
    assert code == 0 and json.loads(out)["or_equivalent"]
    # --json does not stick from the previous call
    code, out, _ = run(capsys, "classify", "--s1", "per: A", "--s2", "per: As")
    assert code == 0 and out.startswith("sequence 1: per: A\n")
    # a usage error leaves the parser usable
    assert run(capsys, "classify", "--s1", "per: A")[0] == 1
    assert run(capsys, "achiral", "--s", "per: A As")[0] == 0
    # so does an exhausted budget, and the default budget comes back
    argv = ("homcount", "--expr", "A", "--sym", "3")
    code, out, err = run(capsys, "--budget", "0", *argv)
    assert (code, out) == (2, "") and "budget of 0" in err
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and "classes: " in out


def test_tail_comparison_is_linear_in_the_period(capsys):
    # A period of 12,000 letters: comparing every rotation letter by
    # letter would take seconds here.
    m = 6000
    word = ["A"] * m + ["Ab"] * m
    per = "per: " + " ".join(word)
    rotated = "per: " + " ".join(word[1234:] + word[:1234])
    start = time.perf_counter()
    code, out, _ = run(capsys, "classify", "--s1", per, "--s2", rotated)
    assert code == 0
    assert "cond1 identical tails:            yes (shift n=-1234, from index N=1235)" in out
    assert "equivalent: true" in out
    code, out, _ = run(capsys, "achiral", "--s", per)
    assert code == 0
    assert f"matches own bar transform: yes (shift n={m}, from index N=1)" in out
    assert time.perf_counter() - start < 2


# ---------------------------------------------------------------------------
# Fuzz: every argv ends in a result or a clean error.

BLOCKS = ["A", "Ab", "As", "Abs", "eps3", "dirac"]  # the 3-strand blocks
OTHER_TOKENS = ["eps1", "eps2", "", "Zz", "eps0", "eps1001", "eps-1", "epsx",
                "a", "A;", "--sym", "\u00e9"]
LABELS = ["A", "Ab", "As", "Abs"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**13) | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=2), kids, max_size=3),
    max_leaves=6,
)


def _rarely(draw):
    """True about one time in ten (shrinks to False)."""
    return draw(st.sampled_from(range(10))) == 9


def _usually(draw, common, rare):
    return draw(st.sampled_from(rare) if _rarely(draw) else st.sampled_from(common))


@st.composite
def _mutated(draw, node):
    """``node`` with one value replaced or deleted somewhere inside it."""
    if isinstance(node, (dict, list)) and node and draw(st.booleans()):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = draw(st.sampled_from(keys))
        node = dict(node) if isinstance(node, dict) else list(node)
        action = draw(st.sampled_from(["descend", "replace", "delete"]))
        if action == "descend":
            node[key] = draw(_mutated(node[key]))
        elif action == "replace":
            node[key] = draw(json_values)
        else:
            del node[key]
        return node
    return draw(json_values)


@st.composite
def diagram_files(draw):
    """The bytes of a diagram JSON file: valid, mutated, truncated or junk."""
    text = diagrams.to_json(diagrams.builtin(draw(st.sampled_from(BLOCKS))))
    kind = draw(st.sampled_from(["valid", "valid", "mutated", "mutated",
                                 "truncated", "junk"]))
    if kind == "mutated":
        text = json.dumps(draw(_mutated(json.loads(text))))
    elif kind == "truncated":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif kind == "junk":
        return draw(st.binary(max_size=20))
    return text.encode()


def _diagram_args(draw, files):
    """--expr or --file, rarely both or neither; ``files`` maps each file
    name to its contents (None: a path that does not exist)."""
    source = _usually(draw, ["expr", "expr", "file"], ["both", "none"])
    args = []
    if source in ("expr", "both"):
        tokens = draw(st.lists(st.sampled_from(BLOCKS), min_size=1, max_size=3))
        if _rarely(draw):
            tokens.insert(draw(st.integers(0, len(tokens))),
                          draw(st.sampled_from(OTHER_TOKENS) | st.text(max_size=3)))
        args += ["--expr", " ".join(tokens)]
    if source in ("file", "both"):
        name = f"diagram{len(files)}.json"
        files[name] = None if _rarely(draw) else draw(diagram_files())
        args += ["--file", name]
    return args


def _sequence(draw):
    def labels(min_size):
        return " ".join(draw(st.lists(st.sampled_from(LABELS), min_size=min_size,
                                      max_size=4)))
    text = "per: " + labels(1)
    if draw(st.booleans()):
        text = "pre: " + labels(0) + " ; " + text
    if not _rarely(draw):
        return text
    return draw(st.sampled_from([
        text + " " + draw(st.sampled_from(OTHER_TOKENS)), text.replace("per:", ""),
        text + " ; per: A", "per:", draw(st.text(max_size=6))]))


@st.composite
def cli_calls(draw, command=None):
    """(argv, files): an argv item that is a key of ``files`` names a file
    holding ``files[key]`` in the directory the call runs against."""
    files = {}
    command = command or _usually(
        draw, ["present", "homcount", "groupoid", "classify", "achiral"],
        ["nonsense", ""])
    args = [command]
    if command == "present":
        args += _diagram_args(draw, files)
        for flag in ("--simplify", "--outer-vertex", "--abelianization"):
            if draw(st.booleans()):
                args.append(flag)
    elif command == "homcount":
        args += _diagram_args(draw, files)
        args += ["--sym", _usually(draw, ["1", "2", "3", "4"], ["0", "-1", "x", "2.5"])]
        if draw(st.booleans()):
            args += ["--method", _usually(draw, ["enumerate", "burnside", "both"], ["all"])]
        if draw(st.booleans()):
            args.append("--deep")
    elif command == "groupoid":
        if draw(st.booleans()):
            args += ["--emit", _usually(draw, ["table2", "list"], ["table3"])]
    elif command == "classify":
        args += ["--s1", _sequence(draw), "--s2", _sequence(draw)]
    elif command == "achiral":
        args += ["--s", _sequence(draw)]
    glob = []
    if draw(st.booleans()):
        glob.append("--json")
    # homcount always runs under a small budget, so every call is quick.
    if command == "homcount" or draw(st.booleans()):
        budget = draw(st.integers(0, 20_000)) if not _rarely(draw) else -1
        glob += ["--budget", str(budget)]
    if _rarely(draw):
        return args + glob, files  # global flags after the subcommand
    return glob + args, files


def _call(argv, files, directory):
    for name, data in files.items():
        if data is not None:
            with open(os.path.join(directory, name), "wb") as fh:
                fh.write(data)
    argv = [os.path.join(directory, a) if a in files else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(cli_calls())
def test_fuzz_cli_exits_cleanly(call):
    argv, files = call
    with tempfile.TemporaryDirectory() as directory:
        code, out, err = _call(argv, files, directory)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        # A usage error from argparse, or one line naming the error.
        assert out == ""
        assert err.startswith("usage: ") or (
            err.startswith("error: ") and len(err.splitlines()) == 1)


@settings(max_examples=200, deadline=None)
@given(cli_calls("homcount"), st.integers(1, 20_000))
def test_fuzz_larger_budget_never_turns_success_into_exhaustion(call, raise_by):
    argv, files = call
    i = argv.index("--budget") + 1
    with tempfile.TemporaryDirectory() as directory:
        code, out, _ = _call(argv, files, directory)
        if code != 0:
            return
        raised = argv[:i] + [str(int(argv[i]) + raise_by)] + argv[i + 1:]
        code2, out2, _ = _call(raised, files, directory)
    assert (code2, out2) == (0, out)
