"""Command-line interface: outputs, exit codes, and determinism."""

import json

import pytest

from borrays import cli, diagrams, groupoid
from borrays.homcount import count_classes_burnside, count_classes_enumerate
from borrays.presentations import presentation


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
    code, out, err = run(capsys, "homcount", "--expr", "A", "--sym", "10",
                         *deep)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "MAX_DEGREE = 9" in err


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


@pytest.mark.parametrize("field, value", [
    ("signs", []),
    ("outer_order", [[1], 2]),
    ("n_strands", 10**12),
])
def test_malformed_json_field_is_a_user_error(capsys, tmp_path, field, value):
    obj = json.loads(diagrams.to_json(diagrams.builtin("A")))
    obj[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "homcount", "--file", str(path), "--sym", "2")
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_present_output(capsys):
    code, out, _ = run(capsys, "present", "--expr", "A")
    assert code == 0
    assert out.startswith("gens: ")
    assert "x1 y1 z1" in out


def test_present_simplify_and_abelianization(capsys):
    code, out, _ = run(capsys, "--json", "present", "--expr", "A",
                       "--simplify", "--abelianization")
    assert code == 0
    obj = json.loads(out)
    assert obj["abelianization"] == {"rank": 2, "torsion": []}
    assert len(obj["generators"]) < 9


def test_present_huge_eps_is_a_user_error(capsys):
    code, out, err = run(capsys, "present", "--expr", "eps100000000")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "at most 1000 strands" in err


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
