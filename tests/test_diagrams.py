"""Diagram model: constructors, validation, and the bar/star/concat algebra."""

import copy
import json
import pickle
import random
from functools import reduce

import pytest
from hypothesis import given, settings

import helpers
from borrays import diagrams
from borrays.diagrams import (
    AnnularDiagram,
    Passage,
    bar,
    builtin,
    concat,
    forget,
    from_braid,
    from_json,
    normalize,
    star,
    to_json,
    validate,
)
from borrays.presentations import presentation


def test_builtin_names():
    for name in ("A", "Ab", "As", "Abs", "eps1", "eps3", "eps5", "eps1000",
                 "dirac"):
        d = builtin(name)
        assert validate(d) == []
    with pytest.raises(ValueError, match="valid names"):
        builtin("Zz")


def test_builtin_a_shape():
    a = builtin("A")
    assert a.n_strands == 3
    assert a.crossing_count == 6
    assert all(s == 1 for s in a.signs.values())
    # each strand passes under twice and over twice
    for k in (1, 2, 3):
        roles = [p.role for p in a.strand(k)]
        assert roles.count("u") == 2 and roles.count("o") == 2


def test_eps_is_crossingless():
    e = builtin("eps3")
    assert e.crossing_count == 0
    assert e.strands == ((), (), ())
    assert e.inner_order == e.outer_order == (1, 2, 3)


def test_validate_reports_violations():
    # dangling crossing: referenced once only
    d = diagrams._mk(2, [[(1, "o")], []], {1: 1}, (1, 2), (1, 2))
    kinds = {v.kind for v in validate(d)}
    assert "dangling-crossing" in kinds
    # unknown crossing id
    d = diagrams._mk(2, [[(7, "o")], [(7, "u")]], {}, (1, 2), (1, 2))
    kinds = {v.kind for v in validate(d)}
    assert "unknown-crossing" in kinds
    # bad sign
    d = diagrams._mk(2, [[(1, "o")], [(1, "u")]], {1: 2}, (1, 2), (1, 2))
    assert "bad-sign" in {v.kind for v in validate(d)}
    # role mismatch: two unders
    d = diagrams._mk(2, [[(1, "u")], [(1, "u")]], {1: 1}, (1, 2), (1, 2))
    assert "role-mismatch" in {v.kind for v in validate(d)}
    # duplicated boundary position
    d = diagrams._mk(2, [[], []], {}, (1, 1), (1, 2))
    assert "duplicate-boundary" in {v.kind for v in validate(d)}


# A sign is the int 1 or -1: True and 1.0 compare equal to 1 but are not.
@pytest.mark.parametrize("sign", [True, 1.0])
def test_validate_refuses_a_sign_that_is_not_an_int(sign):
    d = diagrams._mk(2, [[(1, "o")], [(1, "u")]], {1: sign}, (1, 2), (1, 2))
    assert [v.kind for v in validate(d)] == ["bad-sign"]


def test_from_braid_with_a_boolean_sign_is_invalid():
    d = from_braid(3, [(1, "l", True)])
    assert [v.kind for v in validate(d)] == ["bad-sign"]
    with pytest.raises(ValueError, match="crossing 1 has sign True"):
        presentation(d)


def test_concat_requires_matching_boundaries():
    e2, e3 = builtin("eps2"), builtin("eps3")
    with pytest.raises(ValueError, match="strands"):
        concat(e2, e3)
    twisted = from_braid(3, [(1, "l", 1)])  # outer order (2, 1, 3)
    with pytest.raises(ValueError, match="boundary order"):
        concat(twisted, e3)
    assert validate(concat(e3, twisted)) == []


def test_concat_disjoint_renumbering():
    a = builtin("A")
    aa = concat(a, a)
    assert aa.crossing_count == 12
    assert validate(aa) == []
    assert aa.inner_order == a.inner_order and aa.outer_order == a.outer_order


def test_concat_of_many_blocks_equals_pairwise_fold():
    rng = random.Random(12)
    names = ("A", "Ab", "As", "Abs", "dirac", "eps3")
    blocks = [builtin(rng.choice(names)) for _ in range(12)]
    assert concat(*blocks) == reduce(concat, blocks)
    twisted = from_braid(3, [(1, "l", 1)])  # outer order (2, 1, 3)
    blocks[5:5] = [twisted]
    with pytest.raises(ValueError, match="boundary order") as folded:
        reduce(concat, blocks)
    with pytest.raises(ValueError, match="boundary order") as at_once:
        concat(*blocks)
    assert str(at_once.value) == str(folded.value)


def test_concat_identity():
    a = builtin("A")
    assert normalize(concat(a, builtin("eps3"))) == normalize(a)
    assert normalize(concat(builtin("eps3"), a)) == normalize(a)


def test_forget():
    a = builtin("A")
    for k in (1, 2, 3):
        d = forget(a, k)
        assert d.n_strands == 2
        # the two crossings between the two remaining strands survive
        assert d.crossing_count == 2
        assert validate(d) == []
    with pytest.raises(ValueError):
        forget(a, 4)
    with pytest.raises(ValueError):
        forget(builtin("eps1"), 1)


def test_from_braid_positions():
    d = from_braid(3, [(1, "l", 1), (2, "r", -1)])
    assert d.outer_order == (2, 3, 1)
    assert d.signs == {1: 1, 2: -1}
    assert d.strand(1) == (Passage(1, "o"), Passage(2, "u"))
    with pytest.raises(ValueError, match="out of range"):
        from_braid(2, [(2, "l", 1)])
    with pytest.raises(ValueError, match="braid move 2: over side 'x'"):
        from_braid(3, [(1, "l", 1), (1, "x", 1)])
    for j in (1.0, True):
        with pytest.raises(ValueError, match="out of range"):
            from_braid(3, [(j, "l", 1)])


@pytest.mark.parametrize("n", [3.0, True, "3"])
def test_from_braid_refuses_a_strand_count_that_is_not_an_int(n):
    with pytest.raises(ValueError, match="strand count .* is not an int"):
        from_braid(n, [])


@pytest.mark.parametrize("k", [1.0, True, "1"])
def test_forget_refuses_a_strand_index_that_is_not_an_int(k):
    with pytest.raises(ValueError, match="strand index .* out of range"):
        forget(builtin("A"), k)


def test_json_roundtrip():
    for name in ("A", "eps3", "dirac"):
        d = builtin(name)
        assert from_json(to_json(d)) == d
    d = concat(builtin("Ab"), builtin("As"))  # two-digit sign keys
    assert from_json(to_json(d)) == d
    obj = json.loads(to_json(builtin("A")))
    assert set(obj) == {"n_strands", "strands", "signs", "inner_order", "outer_order"}
    assert obj["strands"][0][0] == {"c": 1, "role": "u"}


# Only the spelling ``str`` writes names an eps block; "eps 3" and the
# Arabic-Indic digit three in "eps\u0663" are read as 3 by ``int``.
@pytest.mark.parametrize("name", ["eps01", "eps+2", "eps\u0663", "eps 3",
                                  "eps1_0", "eps0"])
def test_noncanonical_eps_is_unknown(name):
    with pytest.raises(ValueError, match="unknown builtin diagram"):
        builtin(name)


def _with_signs(signs):
    """A's JSON with its ``signs`` object replaced, as text."""
    obj = json.loads(to_json(builtin("A")))
    obj["signs"] = signs
    return json.dumps(obj)


# Each key must be spelled as ``to_json`` writes it: "01" would name
# crossing 1 a second time, with a sign that depends on key order.
@pytest.mark.parametrize("signs, key", [
    ({"1": 1, "01": -1, "2": 1, "3": 1, "4": 1, "5": 1, "6": 1}, "'01'"),
    ({"01": -1, "1": 1, "2": 1, "3": 1, "4": 1, "5": 1, "6": 1}, "'01'"),
    ({"x": 1}, "'x'"),
    ({"+1": 1}, "'+1'"),
], ids=["zero-padded-last", "zero-padded-first", "letter", "plus"])
def test_noncanonical_sign_key_is_malformed(signs, key):
    with pytest.raises(ValueError) as info:
        from_json(_with_signs(signs))
    assert str(info.value) == (
        f"malformed diagram JSON: signs key {key} is not a canonical integer")


def test_bar_star_definitions():
    a = builtin("A")
    b = bar(a)
    assert all(s == -1 for s in b.signs.values())
    assert [p.role for p in b.strand(1)] == ["o", "u", "u", "o"]
    s = star(a)
    assert s.strand(1) == tuple(reversed([(c, r) for c, r in a.strand(1)]))
    assert s.inner_order == a.outer_order and s.outer_order == a.inner_order


@settings(max_examples=250, deadline=None)
@given(helpers.block_diagrams())
def test_bar_star_involutions_and_commutation(d):
    assert normalize(bar(bar(d))) == normalize(d)
    assert normalize(star(star(d))) == normalize(d)
    assert normalize(bar(star(d))) == normalize(star(bar(d)))


@settings(max_examples=200, deadline=None)
@given(helpers.braid_diagrams())
def test_braid_diagrams_valid(d):
    assert validate(d) == []
    assert normalize(normalize(d)) == normalize(d)


def test_builtin_transforms_match_operations():
    a = builtin("A")
    assert a == AnnularDiagram(
        3, tuple(tuple(Passage(*p) for p in s) for s in diagrams._A_STRANDS),
        {c: 1 for c in range(1, 7)}, (1, 2, 3), (1, 2, 3))
    assert builtin("Ab") == bar(a)
    assert builtin("As") == star(a)
    assert builtin("Abs") == bar(star(a))
    half = [(1, "l", 1), (2, "l", 1), (1, "l", 1)]
    assert builtin("dirac") == from_braid(3, half * 2)


SHARED_BUILTINS = ("A", "Ab", "As", "Abs", "dirac")


@pytest.mark.parametrize("name", SHARED_BUILTINS)
def test_builtin_blocks_are_shared(name):
    assert builtin(name) is builtin(name)


def _diagrams_of_every_origin():
    a = builtin("A")
    found = {name: builtin(name) for name in SHARED_BUILTINS + ("eps3",)}
    found.update(bar=bar(a), star=star(a), concat=concat(a, a),
                 forget=forget(a, 2), normalize=normalize(a),
                 from_json=from_json(to_json(a)),
                 from_braid=from_braid(3, [(1, "l", 1)]))
    found["constructor"] = AnnularDiagram(
        2, ((Passage(1, "o"),), (Passage(1, "u"),)), {1: -1}, (1, 2), (2, 1))
    return found


ORIGINS = _diagrams_of_every_origin()


@pytest.mark.parametrize("origin", ORIGINS)
def test_signs_are_read_only(origin):
    d = ORIGINS[origin]
    with pytest.raises(TypeError):
        d.signs[1] = 1
    with pytest.raises(AttributeError):
        d.signs.clear()


def test_constructor_copies_signs():
    signs = {1: -1}
    d = AnnularDiagram(2, ((Passage(1, "o"),), (Passage(1, "u"),)), signs,
                       (1, 2), (2, 1))
    signs[1] = 1
    assert d.signs == {1: -1}


@pytest.mark.parametrize("origin", ORIGINS)
def test_pickle_and_copies_give_an_equal_diagram(origin):
    d = ORIGINS[origin]
    for twin in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d), copy.copy(d)):
        assert twin == d and hash(twin) == hash(d)
        assert twin.signs == dict(d.signs)


@pytest.mark.parametrize("origin", ORIGINS)
def test_concat_of_one_block_is_that_block(origin):
    assert concat(ORIGINS[origin]) == ORIGINS[origin]
