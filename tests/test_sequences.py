"""Equivalence and chirality of eventually periodic block sequences."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from borrays.labels import A, AB, ABS, AS
from borrays.sequences import (
    EventuallyPeriodicSeq,
    TailMatch,
    achiral,
    equivalence,
    format_sequence,
    parse_sequence,
    tails_equal,
    transform,
    value_at,
)


def seq(pre=(), per=()):
    return EventuallyPeriodicSeq(tuple(pre), tuple(per))


# ---------------------------------------------------------------------------
# Basics

def test_value_at():
    assert value_at(seq(per=[A]), 7) == A
    s = seq(pre=[AB], per=[A, AS])
    assert [value_at(s, i) for i in range(1, 6)] == [AB, A, AS, A, AS]
    with pytest.raises(ValueError):
        value_at(s, 0)


@pytest.mark.parametrize("i", [2.0, True, "2"])
def test_value_at_refuses_an_index_that_is_not_an_int(i):
    with pytest.raises(ValueError, match="index must be an int"):
        value_at(seq(pre=[AB], per=[A, AS]), i)


def test_period_must_be_nonempty():
    with pytest.raises(ValueError):
        seq(per=[])
    with pytest.raises(TypeError):
        EventuallyPeriodicSeq((), ("A",))


def test_transform():
    assert transform(seq(per=[A, AS]), "star") == seq(per=[AS, A])
    assert transform(seq(per=[A]), "barstar") == seq(per=[ABS])
    s = seq(pre=[AB], per=[A, AS])
    assert transform(transform(s, "bar"), "bar") == s
    with pytest.raises(ValueError) as err:
        transform(s, "flip")
    assert str(err.value) == ("unknown transform 'flip'; "
                              "expected one of ['bar', 'barstar', 'star']")


def test_parse_and_format():
    s = parse_sequence("pre: Ab ; per: A As")
    assert s == seq(pre=[AB], per=[A, AS])
    assert parse_sequence("per: A") == seq(per=[A])
    assert format_sequence(s) == "pre: Ab ; per: A As"
    assert format_sequence(seq(per=[A])) == "per: A"
    for bad in ("A As", "pre: A", "per:", "pre: A ; pre: A ; per: A"):
        with pytest.raises(ValueError):
            parse_sequence(bad)


# ---------------------------------------------------------------------------
# Tail equality

def test_tails_equal_examples():
    m = tails_equal(seq(per=[A]), seq(per=[A]))
    assert m == TailMatch(True, 0, 1)
    assert tails_equal(seq(pre=[AB], per=[A, AS]), seq(per=[AS, A])).holds
    assert not tails_equal(seq(per=[A]), seq(per=[AB])).holds


def test_tails_equal_witness_is_minimal():
    # s = A As A As ..., t = As A As A ...: shifts n = +-1 both work; the
    # tie must break toward the nonnegative one.
    m = tails_equal(seq(per=[A, AS]), seq(per=[AS, A]))
    assert (m.holds, m.shift) == (True, 1)
    # a long preperiod does not inflate the reported shift
    m = tails_equal(seq(pre=[AB] * 5, per=[A]), seq(per=[A]))
    assert (m.holds, m.shift) == (True, 0)
    assert m.start >= 6


def test_tails_equal_reduces_to_minimal_period():
    assert tails_equal(seq(per=[A, A]), seq(per=[A, A, A])).holds
    assert tails_equal(seq(per=[A, AB, A, AB]), seq(per=[AB, A])).holds
    assert not tails_equal(seq(per=[A, AB]), seq(per=[A, A, AB])).holds


@settings(max_examples=300, deadline=None)
@given(helpers.sequences(), helpers.sequences())
def test_tails_equal_matches_oracle(s, t):
    m = tails_equal(s, t)
    assert m.holds == helpers.tails_equal_oracle(s, t)
    if m.holds:
        # the reported witness must actually work
        assert m.start >= 1
        window = 3 * len(s.period) * len(t.period) + 1
        assert all(
            value_at(s, i) == value_at(t, i + m.shift)
            for i in range(m.start, m.start + window)
        )


@st.composite
def _sequence_pairs(draw):
    """Two sequences; half the time t's tail is a power of a rotation of
    s's period, under bar, star, barstar or no transform."""
    s = draw(helpers.sequences())
    if draw(st.booleans()):
        return s, draw(helpers.sequences())
    per = s.period * draw(st.integers(1, 3))
    r = draw(st.integers(0, len(per) - 1))
    t = EventuallyPeriodicSeq(draw(st.lists(helpers.labels, max_size=6).map(tuple)),
                              per[r:] + per[:r])
    op = draw(st.sampled_from(["id", "bar", "star", "barstar"]))
    return s, t if op == "id" else transform(t, op)


@settings(max_examples=400, deadline=None)
@given(_sequence_pairs())
@example((seq(per=[A, AS]), seq(per=[AS, A])))  # tie: 2r = p
@example((seq(pre=[AB], per=[A, A, AS, AS]), seq(pre=[A], per=[AS, AS, A, A])))  # tie
def test_tails_equal_witness_matches_oracle(pair):
    s, t = pair
    m = tails_equal(s, t)
    assert (m.holds, m.shift, m.start) == helpers.tails_witness_oracle(s, t)


def _alternating(m):
    return (A,) * m + (AB,) * m


# With s = pre_s . w^inf and t = pre_t . rot_j(w)^inf, w = A^m Ab^m, every
# shift n = pre_t - pre_s - j (mod 2m) works; the witness takes the one
# nearest 0 (the nonnegative one on a tie) and N = max(1, pre_s + 1,
# pre_t + 1 - n).
@pytest.mark.parametrize("m, pre_s, pre_t, j, expected", [
    (40, 0, 0, 10, (True, -10, 11)),
    (40, 0, 0, 40, (True, 40, 1)),  # tie: 2r = p
    (320, 3, 0, 1, (True, -4, 5)),
    (320, 0, 5, 319, (True, -314, 320)),
    (1000, 0, 2, 1999, (True, 3, 1)),
    (1000, 1, 1, 1000, (True, 1000, 2)),  # tie: 2r = p
])
def test_alternating_family_witness_pins(m, pre_s, pre_t, j, expected):
    w = _alternating(m)
    s = seq(pre=[AB] * pre_s, per=w)
    t = seq(pre=[AS] * pre_t, per=w[j:] + w[:j])
    match = tails_equal(s, t)
    assert (match.holds, match.shift, match.start) == expected
    # t's star transform matches s only after star, with the same witness
    rep = equivalence(s, transform(t, "star"))
    assert not rep.cond1.holds and not rep.cond3.holds
    assert rep.cond4 == match
    assert not tails_equal(s, seq(per=_alternating(m + 1))).holds


# ---------------------------------------------------------------------------
# Equivalence

def test_equivalence_examples():
    rep = equivalence(seq(per=[A, AB]), seq(per=[A, A, AB, AB]))
    assert not rep.equivalent
    s = seq(pre=[AB], per=[A, AS])
    rep = equivalence(s, transform(s, "barstar"))
    assert rep.cond2.holds and rep.cond2.shift == 0
    rep = equivalence(seq(per=[A]), seq(per=[AS]))
    assert not rep.op_equivalent
    assert rep.or_equivalent
    assert rep.cond4.holds and rep.cond4.shift == 0


@settings(max_examples=250, deadline=None)
@given(helpers.sequences(), helpers.sequences())
def test_equivalence_symmetric(s, t):
    assert equivalence(s, t).equivalent == equivalence(t, s).equivalent
    assert equivalence(s, t).op_equivalent == equivalence(t, s).op_equivalent
    assert equivalence(s, t).or_equivalent == equivalence(t, s).or_equivalent


@settings(max_examples=250, deadline=None)
@given(helpers.sequences())
def test_equivalence_reflexive(s):
    rep = equivalence(s, s)
    assert rep.cond1.holds and rep.cond1.shift == 0
    assert rep.equivalent


@settings(max_examples=250, deadline=None)
@given(helpers.sequences(max_pre=3, max_per=4),
       helpers.sequences(max_pre=3, max_per=4),
       helpers.sequences(max_pre=3, max_per=4))
def test_equivalence_transitive(s, t, u):
    if equivalence(s, t).equivalent and equivalence(t, u).equivalent:
        assert equivalence(s, u).equivalent


@settings(max_examples=250, deadline=None)
@given(helpers.sequences(), st.integers(0, 4))
def test_shift_invariance(s, k):
    values = [value_at(s, i) for i in range(k + 1, k + 1 + len(s.preperiod))]
    shifted = EventuallyPeriodicSeq(
        tuple(values), s.period
    ) if k <= len(s.preperiod) else EventuallyPeriodicSeq(
        (), tuple(value_at(s, i) for i in range(k + 1, k + 1 + len(s.period)))
    )
    assert equivalence(s, shifted).equivalent
    assert achiral(s)[0] == achiral(shifted)[0]


@settings(max_examples=250, deadline=None)
@given(helpers.sequences(), helpers.sequences())
def test_transform_compatibility(s, t):
    assert (equivalence(s, t).cond3.holds
            == equivalence(s, transform(t, "bar")).cond1.holds)
    assert (equivalence(s, t).cond4.holds
            == equivalence(s, transform(t, "star")).cond1.holds)
    assert (equivalence(s, t).cond2.holds
            == equivalence(s, transform(t, "barstar")).cond1.holds)


# ---------------------------------------------------------------------------
# Chirality

def test_achiral_examples():
    ok, cond, match = achiral(seq(per=[A, AS]))
    assert ok and cond == "star" and match.holds
    ok, cond, match = achiral(seq(per=[A]))
    assert (ok, cond, match) == (False, None, None)
    assert achiral(seq(per=[A, AB]))[0]


def test_periodic_form_examples():
    assert helpers.periodic_form_achiral(seq(per=[A, AS]))
    assert not helpers.periodic_form_achiral(seq(per=[A]))
    assert helpers.periodic_form_achiral(seq(pre=[AS, AS, AS], per=[A, AB]))


@settings(max_examples=300, deadline=None)
@given(helpers.sequences())
def test_achirality_characterizations_agree(s):
    assert achiral(s)[0] == helpers.periodic_form_achiral(s)


def test_alternating_family_pairwise_inequivalent_and_achiral():
    family = [
        seq(per=[A] * m + [AB] * m) for m in range(1, 5)
    ]
    for i, s in enumerate(family):
        assert achiral(s)[0]
        assert helpers.periodic_form_achiral(s)
        for t in family[i + 1:]:
            assert not equivalence(s, t).equivalent
