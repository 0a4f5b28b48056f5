"""Acceptance gate: one test per published-value criterion.

Each test prints a single PASS/FAIL line on the real stdout so the
verdicts are visible regardless of capture settings.  The Sym(6)
columns are checked by both methods, after the runtime bound of the
Sym(1..5) values.
"""

import functools
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from borrays.diagrams import bar, builtin, concat, forget, normalize, star
from borrays.groupoid import (
    A3,
    C3,
    cell_grid,
    excluded_closure,
    realized_closure,
)
from borrays.homcount import (
    count_classes_both,
    count_classes_burnside,
    count_classes_enumerate,
)
from borrays.labels import A, AB, ALL_LABELS, AS
from borrays.presentations import FinitePresentation, presentation
from borrays.sequences import (
    EventuallyPeriodicSeq,
    achiral,
    equivalence,
    tails_equal,
    transform,
)
from test_groupoid import EXPECTED_GRID
from test_presentations import A_DISPLAY


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _verdicts_reach_the_terminal(request):
    # pytest captures at the file-descriptor level; route the verdict
    # lines around the capture so they always appear.
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _say(line):
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        sys.__stdout__.write(line + "\n")
        sys.__stdout__.flush()


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _say(f"criterion {num}: FAIL - {desc}")
                raise
            _say(f"criterion {num}: PASS - {desc}")
        return wrapper
    return deco


def classes(diagram, n, method=count_classes_burnside):
    return method(presentation(diagram), n).class_count


def classes_by_both_methods(diagram, n):
    """The class count into Sym(n), which enumeration and Burnside must
    agree on; both search one table of Sym(n)."""
    e, b = count_classes_both(presentation(diagram), n)
    assert (e.class_count, e.total_homs) == (b.class_count, b.total_homs)
    return e.class_count


# ---------------------------------------------------------------------------

@criterion(1, "single-block class counts into Sym(1..5), "
              "and Sym(6) by both methods")
def test_criterion_1_single_block_table():
    t0 = time.monotonic()
    eps3, a = builtin("eps3"), builtin("A")
    for n, want in enumerate([1, 4, 11, 43, 161], start=1):
        assert classes(eps3, n) == want
    for n, want in enumerate([1, 4, 11, 47, 193], start=1):
        assert classes(a, n) == want
    assert time.monotonic() - t0 < 60
    assert classes_by_both_methods(eps3, 6) == 901
    assert classes_by_both_methods(a, 6) == 1317


@criterion(2, "two-block product counts into Sym(4..5), "
              "and Sym(6) by both methods")
def test_criterion_2_product_table():
    t0 = time.monotonic()
    a = builtin("A")
    products = [concat(a, builtin(name)) for name in ("A", "Ab", "As", "Abs")]
    for d in products:
        assert classes(d, 4) == 63
    for d, want in zip(products, (342, 342, 354, 330)):
        assert classes(d, 5) == want
    assert time.monotonic() - t0 < 900
    for d, want in zip(products, (3111, 3255, 3525, 3105)):
        assert classes_by_both_methods(d, 6) == want


@criterion(3, "Sym(4) counts separate the A block from the trivial block")
def test_criterion_3_separation():
    assert classes(builtin("A"), 4) == 47
    assert classes(builtin("eps3"), 4) == 43
    assert 47 != 43


@criterion(4, "presentation of the A block matches the displayed one")
def test_criterion_4_presentation_fidelity():
    p = presentation(builtin("A"))
    assert len(p.generators) == 9
    assert len(p.relators) == 7
    assert helpers.canonical_relator_set(p) == helpers.canonical_relator_set(A_DISPLAY)
    assert helpers.isomorphic_by_renaming(p, A_DISPLAY)


@criterion(5, "diffeomorphism-type closures: 96 realized / 288 excluded grid")
def test_criterion_5_groupoid():
    realized = realized_closure()
    excluded = excluded_closure(realized)
    assert len(realized) == 96
    assert len(excluded) == 288
    assert not realized & excluded
    assert len(realized | excluded) == 384
    grid = cell_grid(realized)
    names = {frozenset(): "", A3: "A3", C3: "C"}
    rows = [(c, b) for c in ALL_LABELS for b in (1, -1)]
    cols = [(d, e) for d in ALL_LABELS for e in (1, -1)]
    actual = [[names[grid[(c, b, d, e)]] for d, e in cols] for c, b in rows]
    assert actual == EXPECTED_GRID  # all 64 cells


@criterion(6, "sequence classifier ground truth (alternating family)")
def test_criterion_6_classifier_ground_truth():
    t0 = time.monotonic()
    assert achiral(EventuallyPeriodicSeq((), (A, AS)))[0]
    assert not achiral(EventuallyPeriodicSeq((), (A,)))[0]
    family = [
        EventuallyPeriodicSeq((), (A,) * m + (AB,) * m) for m in range(1, 5)
    ]
    for i, s in enumerate(family):
        assert achiral(s)[0]
        for t in family[i + 1:]:
            assert not equivalence(s, t).equivalent
    assert time.monotonic() - t0 < 1


# ---------------------------------------------------------------------------
# Criterion 7: randomized property suites, >= 200 cases each.

@settings(max_examples=200, deadline=None)
@given(helpers.block_diagrams())
def _prop_bar_star(d):
    assert normalize(bar(bar(d))) == normalize(d)
    assert normalize(star(star(d))) == normalize(d)
    assert normalize(bar(star(d))) == normalize(star(bar(d)))


_small_words = st.lists(
    st.tuples(st.sampled_from(["a", "b"]), st.sampled_from([1, -1])),
    min_size=0, max_size=5,
).map(tuple)


@settings(max_examples=200, deadline=None)
@given(st.lists(_small_words, min_size=0, max_size=3), st.integers(2, 4))
def _prop_burnside_equals_enumerate(relators, n):
    p = FinitePresentation(("a", "b"), tuple(relators))
    e = count_classes_enumerate(p, n)
    b = count_classes_burnside(p, n)
    assert e.class_count == b.class_count
    assert e.total_homs == b.total_homs


@settings(max_examples=200, deadline=None)
@given(helpers.geometric_braids(max_strands=3, max_moves=4),
       st.integers(2, 4))
def _prop_outer_vertex_redundant(d, n):
    with_out = count_classes_burnside(
        presentation(d, include_outer_vertex=True), n)
    without = count_classes_burnside(presentation(d), n)
    assert with_out.class_count == without.class_count
    assert with_out.total_homs == without.total_homs


@settings(max_examples=200, deadline=None)
@given(helpers.sequences())
def _prop_achirality_agreement(s):
    assert achiral(s)[0] == helpers.periodic_form_achiral(s)


@settings(max_examples=200, deadline=None)
@given(helpers.sequences(), helpers.sequences())
def _prop_tails_oracle(s, t):
    assert tails_equal(s, t).holds == helpers.tails_equal_oracle(s, t)


@settings(max_examples=200, deadline=None)
@given(helpers.sequences(max_pre=3, max_per=4),
       helpers.sequences(max_pre=3, max_per=4),
       helpers.sequences(max_pre=3, max_per=4))
def _prop_equivalence_relation(s, t, u):
    assert equivalence(s, s).equivalent  # reflexive
    assert equivalence(s, t).equivalent == equivalence(t, s).equivalent
    if equivalence(s, t).equivalent and equivalence(t, u).equivalent:
        assert equivalence(s, u).equivalent


@criterion(7, "randomized property suites (>= 200 cases each)")
def test_criterion_7_property_suites():
    for name in ("A", "eps3"):
        for n in (2, 3, 4):
            d = builtin(name)
            with_out = count_classes_burnside(
                presentation(d, include_outer_vertex=True), n)
            without = count_classes_burnside(presentation(d), n)
            assert with_out.class_count == without.class_count
            assert with_out.total_homs == without.total_homs
    _prop_bar_star()
    _prop_burnside_equals_enumerate()
    _prop_outer_vertex_redundant()
    _prop_achirality_agreement()
    _prop_tails_oracle()
    _prop_equivalence_relation()


@criterion(8, "structural count invariants (forget, dirac, four blocks)")
def test_criterion_8_structural_invariants():
    a = builtin("A")
    for k in (1, 2, 3):
        d = forget(a, k)
        for n, want in enumerate([1, 2, 3, 5, 7], start=1):
            assert classes(d, n) == want
    for n in (1, 2, 3, 4):
        assert classes(builtin("dirac"), n) == classes(builtin("eps3"), n)
    for n in (1, 2, 3, 4, 5):
        vals = {classes(builtin(name), n) for name in ("A", "Ab", "As", "Abs")}
        assert len(vals) == 1
