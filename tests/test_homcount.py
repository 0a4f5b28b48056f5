"""Homomorphism counting into symmetric groups: totals, classes, kernels."""

import gc
import hashlib
import json
import random
import time
import weakref
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borrays import homcount
from borrays.diagrams import (
    BUILTIN_NAMES,
    bar,
    builtin,
    concat,
    forget,
    from_json,
    star,
    to_json,
)
from borrays.errors import BudgetExceededError, IntegrityError
from borrays.homcount import (
    DEFAULT_BUDGET,
    MAX_DEGREE,
    HomClassCount,
    count_classes_both,
    count_classes_burnside,
    count_classes_enumerate,
    count_total,
    kernel_name,
)
from borrays.homcount import (
    _Budget,
    _compiled,
    _conjugation_orbits,
    _count_into,
    _kernel,
    _orbit_count,
)
from borrays.presentations import FinitePresentation, presentation

import helpers

from itertools import permutations, product
from math import factorial


def classes(diagram, n, method=count_classes_burnside, **kw):
    return method(presentation(diagram), n, **kw).class_count


# ---------------------------------------------------------------------------
# Known values for the builtin blocks

EPS3_CLASSES = [1, 4, 11, 43, 161]   # Sym(1)..Sym(5); free of rank 2
A_CLASSES = [1, 4, 11, 47, 193]      # Sym(1)..Sym(5)


def test_eps3_class_counts():
    d = builtin("eps3")
    for n, want in enumerate(EPS3_CLASSES, start=1):
        assert classes(d, n) == want


def test_eps3_counts_into_sym6():
    # The paper's value, and the one tier-1 count on array rows: eps3
    # presents F2, so it has (6!)^2 homomorphisms into Sym(6).
    p = presentation(builtin("eps3"))
    r = count_classes_burnside(p, 6)
    assert (r.class_count, r.total_homs) == (901, factorial(6) ** 2)
    assert count_total(p, 6) == 518_400


def test_a_class_counts():
    d = builtin("A")
    for n, want in enumerate(A_CLASSES, start=1):
        assert classes(d, n) == want


def test_a_total_into_sym5():
    p = presentation(builtin("A"))
    assert count_total(p, 5) == 18240


def _hall_row(diagram, top):
    p = presentation(diagram)
    return helpers.subgroup_counts([count_total(p, n) for n in range(1, top + 1)])


def test_halls_formula_holds_on_every_row(deep):
    # The totals into Sym(1..n) give the numbers of subgroups of index
    # 1..n.  eps3 presents the free group of rank 2, whose counts are
    # known; the other rows are pins, and a wrong total would show as a
    # fraction or a negative count.
    free = [1, 3, 13, 71, 461, 3447, 29093]
    top = 7 if deep else 6
    assert _hall_row(builtin("eps3"), top) == free[:top]
    a = builtin("A")
    assert _hall_row(a, 6) == [1, 3, 13, 87, 601, 5631]
    # (a_5, a_6) of the four A·X rows; A A and A Ab differ only at index 6.
    for x, tail in (("A", [1266, 15021]), ("Ab", [1266, 15885]),
                    ("As", [1326, 17433]), ("Abs", [1206, 15057])):
        assert _hall_row(concat(a, builtin(x)), 6) == [1, 3, 13, 151, *tail], x
    # A total off by one into Sym(4) gives an index-4 count of 71 + 1/6.
    assert helpers.subgroup_counts([1, 4, 36, 577])[3].denominator == 6


def test_a_separates_from_eps3_at_sym4():
    assert classes(builtin("A"), 4) == 47
    assert classes(builtin("eps3"), 4) == 43


def test_all_four_blocks_agree():
    for n in (2, 3, 4, 5):
        want = A_CLASSES[n - 1]
        for name in ("A", "Ab", "As", "Abs"):
            assert classes(builtin(name), n) == want, (name, n)


def test_dirac_matches_eps3():
    for n in (1, 2, 3, 4):
        assert classes(builtin("dirac"), n) == EPS3_CLASSES[n - 1]


def test_forgetting_a_strand_gives_trivial_two_tangle():
    # Dropping any strand of A leaves a complement whose group is free of
    # rank 1, so class counts are the partition numbers p(n).
    a = builtin("A")
    for k in (1, 2, 3):
        d = forget(a, k)
        for n, want in enumerate([1, 2, 3, 5, 7], start=1):
            assert classes(d, n) == want


# ---------------------------------------------------------------------------
# Totals and conjugacy classes

def test_count_total_free_groups():
    for rank in (0, 1, 2):
        gens = tuple(f"g{i}" for i in range(rank))
        p = FinitePresentation(gens, ())
        for n in (1, 2, 3, 4):
            assert count_total(p, n) == factorial(n) ** rank


def _cycle_type(q):
    """Sorted cycle lengths of a 0-based image tuple."""
    seen, lengths = set(), []
    for start in range(len(q)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = q[i]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def _commutes(p, q):
    return all(p[q[i]] == q[p[i]] for i in range(len(p)))


def _first_of_each_cycle_type(n):
    """The first permutation of each cycle type, in sorted order."""
    firsts = {}
    for q in sorted(permutations(range(n))):
        firsts.setdefault(_cycle_type(q), q)
    return list(firsts.values())


def test_conjugation_orbits_of_sym_n_are_its_classes():
    for n, partitions in zip((1, 2, 3, 4, 5, 6), (1, 2, 3, 5, 7, 11)):
        sym = _kernel.symmetric_group(n)
        perms = sym.perms
        orbits, orbit_of = _conjugation_orbits(sym.elements, sym)
        assert len(orbits) == partitions
        assert sum(size for _, size, _ in orbits) == factorial(n)
        assert [perms[rep] for rep, _, _ in orbits] == sorted(
            _first_of_each_cycle_type(n))
        for rep, size, stabilizer in orbits:
            kind = _cycle_type(perms[rep])
            assert size == sum(_cycle_type(q) == kind for q in perms)
            assert stabilizer == [x for x, q in enumerate(perms)
                                  if _commutes(q, perms[rep])]
            # The class lookup: one tuple shared by the class's members.
            members = orbit_of[rep]
            assert sorted(members) == [x for x, q in enumerate(perms)
                                       if _cycle_type(q) == kind]
            assert all(orbit_of[x] is members for x in members)


def test_enumerate_homs_deterministic_and_valid():
    # The unreduced oracle, which keeps the search's own order.
    p = presentation(builtin("eps3"))
    homs = helpers.unreduced_homs(p, 3)
    assert len(homs) == count_total(p, 3) == 36
    assert homs == helpers.unreduced_homs(p, 3)
    for hom in homs:
        assert set(hom) == set(p.generators)
        # relator x1 y1 z1 must map to the identity
        x, y, z = (hom[g] for g in ("x1", "y1", "z1"))
        composite = tuple(x[y[z[i]]] for i in range(3))
        assert composite == (0, 1, 2)


# ---------------------------------------------------------------------------
# Method agreement, determinism, and failure modes

def test_enumerate_and_burnside_agree():
    for name in ("A", "eps3", "dirac"):
        d = builtin(name)
        for n in (2, 3, 4):
            e = count_classes_enumerate(presentation(d), n)
            b = count_classes_burnside(presentation(d), n)
            assert e.class_count == b.class_count
            assert e.total_homs == b.total_homs
            assert (e.method, b.method) == ("enumerate", "burnside")


def test_enumeration_matches_the_unreduced_oracle_on_blocks():
    for word in (["A"], ["eps3"], ["A", "A"], ["A", "Abs"]):
        p = presentation(concat(*map(builtin, word)))
        for n in (3, 4):
            e = count_classes_enumerate(p, n)
            u = helpers.unreduced_class_count(p, n)
            assert (e.total_homs, e.class_count) == (u.total_homs, u.class_count)


_BLOCK_NAMES = ("A", "Ab", "As", "Abs", "dirac", "eps3")


def _seeded_block_word(rng, length):
    """A word of the six builtins, each under identity, bar, star or both."""
    ops = (lambda d: d, bar, star, lambda d: bar(star(d)))
    return concat(*(rng.choice(ops)(builtin(rng.choice(_BLOCK_NAMES)))
                    for _ in range(length)))


def test_both_methods_match_the_unrestricted_oracle_on_block_words():
    # The oracle searches every level over all of Sym(n), with no orbit
    # split and no class lookup.  Burnside's centralizer searches and
    # enumeration's terms run class-restricted levels in most of these
    # words; a level that reads its known conjugate's register before any
    # level stores it miscounts the long words into Sym(2).
    rng = random.Random(23)
    cases = [(builtin(name), (2, 3, 4)) for name in _BLOCK_NAMES]
    cases += [(_seeded_block_word(rng, length), (2, 3, 4))
              for length in range(1, 7) for _ in range(2)]
    cases += [(_seeded_block_word(rng, length), (2,)) for length in (54, 78)]
    restricted = 0
    for d, degrees in cases:
        p = presentation(d)
        restricted += any(level.conj is not None
                          for level in _compiled(p).levels)
        for n in degrees:
            u = helpers.unreduced_class_count(p, n)
            want = (u.total_homs, u.class_count)
            if n < 4:  # the same search again, homs kept
                assert len(helpers.unreduced_homs(p, n)) == want[0]
            e, b = count_classes_enumerate(p, n), count_classes_burnside(p, n)
            assert (e.total_homs, e.class_count) == want
            assert (b.total_homs, b.class_count) == want
            # Enumeration's tree is a part of the oracle's.
            assert e.nodes <= u.nodes
    assert restricted >= 10


def test_orbit_count_finds_orbits_and_refuses_an_open_set():
    # Sym(3) in sorted order: 1, 2 and 5 are its transpositions, 3 and 4
    # its 3-cycles.  The 3-cycle (0 1 2) has centralizer {0, 3, 4}.
    sym = _kernel.symmetric_group(3)
    singles = [(x,) for x in sym.elements]
    assert _orbit_count(singles, sym.elements, sym) == 3
    assert _orbit_count(singles, [0, 3, 4], sym) == 4
    assert _orbit_count([(1, 2), (2, 5), (5, 1)], [0, 3, 4], sym) == 1
    with pytest.raises(IntegrityError):
        _orbit_count([(1,), (2,)], sym.elements, sym)
    with pytest.raises(IntegrityError):
        helpers.transposition_orbit_count([(1,), (2,)], sym)


def test_budget_exceeded():
    p = presentation(concat(builtin("A"), builtin("A")))
    with pytest.raises(BudgetExceededError):
        count_classes_burnside(p, 4, budget=5)


def test_budget_caps_the_whole_count():
    p = presentation(builtin("A"))
    for method in (count_classes_burnside, count_classes_enumerate):
        r = method(p, 4)
        assert r.nodes > 0
        assert method(p, 4, budget=r.nodes) == r
        with pytest.raises(BudgetExceededError) as exc:
            method(p, 4, budget=r.nodes - 1)
        assert exc.value.budget == r.nodes - 1


@pytest.mark.parametrize("budget", ["x", None, 1.5, True, False, -1])
def test_budget_that_is_not_a_non_negative_int_is_refused(budget):
    p = presentation(builtin("A"))
    for method in (count_total, count_classes_burnside, count_classes_enumerate,
                   helpers.unreduced_homs):
        with pytest.raises(ValueError, match="budget"):
            method(p, 3, budget=budget)


def test_hom_class_count_bounds():
    # at most total_homs classes, at least total_homs / n!
    HomClassCount(3, 36, 11, "enumerate")
    with pytest.raises(IntegrityError):
        HomClassCount(3, 36, 37, "enumerate")
    with pytest.raises(IntegrityError):
        HomClassCount(3, 36, 5, "burnside")


def test_degree_above_max_is_refused():
    p = presentation(builtin("A"))
    for count in (count_total, helpers.unreduced_homs, count_classes_enumerate,
                  count_classes_burnside):
        with pytest.raises(ValueError, match=f"MAX_DEGREE = {MAX_DEGREE}"):
            count(p, MAX_DEGREE + 1)


def test_negative_degree_is_refused():
    p = presentation(builtin("A"))
    for count in (count_total, helpers.unreduced_homs, count_classes_enumerate,
                  count_classes_burnside):
        with pytest.raises(ValueError, match="degree -1 is negative"):
            count(p, -1)
    # Sym(0), the trivial group, keeps its answers.
    assert count_total(p, 0) == 1
    assert len(helpers.unreduced_homs(p, 0)) == 1
    for count in (count_classes_enumerate, count_classes_burnside):
        r = count(p, 0)
        assert (r.total_homs, r.class_count) == (1, 1)


@pytest.mark.parametrize("n", [2.0, True])
def test_degree_that_is_not_an_int_is_refused(n):
    p = presentation(builtin("A"))
    for count in (count_total, helpers.unreduced_homs, count_classes_enumerate,
                  count_classes_burnside):
        with pytest.raises(ValueError, match=f"degree {n!r} is not an int"):
            count(p, n)


def test_enumeration_reaches_max_degree(deep):
    # Enumeration keeps only the homs of the split's terms with a
    # non-trivial stabilizer, so it has no degree cap of its own.  eps3
    # presents F2, and both of its levels are fixed by the split: no node
    # is searched.
    p = presentation(builtin("eps3"))
    want = (MAX_DEGREE, factorial(MAX_DEGREE) ** 2, 5579, 0)
    methods = (count_classes_enumerate, count_classes_burnside)
    for method in methods if deep else methods[:1]:
        r = method(p, MAX_DEGREE)
        assert (r.n, r.total_homs, r.class_count, r.nodes) == want
    with pytest.raises(ValueError, match=f"MAX_DEGREE = {MAX_DEGREE}"):
        count_classes_enumerate(p, MAX_DEGREE + 1)


def test_both_methods_share_one_plan_and_table(monkeypatch):
    p = presentation(builtin("A"))
    single = (count_classes_enumerate(p, 4), count_classes_burnside(p, 4))
    calls = []

    def spy(name, fn):
        def counted(*args):
            calls.append(name)
            return fn(*args)
        return counted

    monkeypatch.setattr(_kernel, "symmetric_group",
                        spy("table", _kernel.symmetric_group))
    monkeypatch.setattr(homcount, "_compiled", spy("plan", _compiled))
    # Each result is its method's alone, nodes included.
    assert count_classes_both(p, 4) == single
    assert sorted(calls) == ["plan", "table"]
    calls.clear()
    for n in (MAX_DEGREE + 1, -1):
        with pytest.raises(ValueError, match="degree"):
            count_classes_both(p, n)
    assert calls == []


def test_both_methods_must_agree(monkeypatch):
    burnside = homcount._burnside

    def skewed(*args):
        r = burnside(*args)
        return HomClassCount(r.n, r.total_homs, r.class_count + 1, r.method,
                             r.nodes)

    monkeypatch.setattr(homcount, "_burnside", skewed)
    with pytest.raises(IntegrityError, match=(
            "^methods disagree on classes: enumerate classes 47 total 672 "
            "vs burnside classes 48 total 672$")):
        count_classes_both(presentation(builtin("A")), 4)


def test_kernel_name_reports_a_kernel():
    assert kernel_name() == "borrays._homsearch_py"


# ---------------------------------------------------------------------------
# The search kernel alone

def _search(n, num_gens, relators, budget=DEFAULT_BUDGET, collect=True):
    """One kernel call into Sym(n), indices as names.

    Homs come back as tuples of permutations, not of element indices.
    """
    group = _kernel.symmetric_group(n)
    plan = _kernel.compile_plan(num_gens, relators, range(num_gens))
    count, homs, nodes = _kernel.search_homs(plan, group, [((), 1)], budget,
                                             collect)
    if homs is not None:
        homs = [tuple(group.perms[x] for x in hom) for hom in homs[0]]
    return count, homs, nodes


_XYZ = (((0, 1), (1, 1), (2, 1)),)  # the relator x y z


def test_kernel_free_group_counts():
    for n in (2, 3):
        assert _search(n, 2, ())[0] == factorial(n) ** 2


def test_kernel_counts_without_collection_match_collection():
    count, homs, nodes = _search(3, 3, _XYZ, collect=True)
    assert count == len(homs) == 36
    assert _search(3, 3, _XYZ, collect=False) == (count, None, nodes)


def test_kernel_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        _search(4, 3, _XYZ, budget=3, collect=False)


@pytest.mark.parametrize("collect", [False, True])
def test_kernel_budget_boundary(collect):
    # eps3 branches on two generators over Sym(4): 24 + 24 * 24 nodes.
    plan = _compiled(presentation(builtin("eps3")))
    sym = _kernel.symmetric_group(4)
    count, _, nodes = _kernel.search_homs(plan, sym, [((), 1)], 600, collect)
    assert (count, nodes) == (576, 600)
    with pytest.raises(BudgetExceededError):
        _kernel.search_homs(plan, sym, [((), 1)], 599, collect)


@pytest.mark.parametrize("method, p, n, nodes", [
    (count_classes_burnside, presentation(builtin("A")), 5, 20_693),
    (helpers.unreduced_class_count,
     presentation(concat(builtin("A"), builtin("A"))), 4, 30_552),
    (count_classes_enumerate,
     presentation(concat(builtin("A"), builtin("A"))), 4, 1_357),
])
def test_budget_boundary_of_a_count(method, p, n, nodes):
    assert method(p, n, budget=nodes).nodes == nodes
    with pytest.raises(BudgetExceededError):
        method(p, n, budget=nodes - 1)


_kernel_relators = st.lists(
    st.lists(st.tuples(st.integers(0, 2), st.sampled_from([1, -1])),
             min_size=0, max_size=5).map(tuple),
    min_size=0, max_size=4,
).map(tuple)


def _subgroups(n, sym):
    """Element lists of subgroups of ``sym``, Sym(n): the cyclic group of
    an n-cycle, the alternating group, and every centralizer."""
    rotations = {tuple((i + k) % n for i in range(n)) for k in range(n)}
    out = [[x for x, q in enumerate(sym.perms) if q in rotations],
           [x for x, q in enumerate(sym.perms)
            if (n - len(_cycle_type(q))) % 2 == 0]]
    out += [c for _, _, c in _conjugation_orbits(sym.elements, sym)[0]]
    return out


@settings(max_examples=200, deadline=None)
@given(_kernel_relators, st.integers(2, 4))
def test_kernel_restricted_candidates_filter_full_search(relators, n):
    # A search into a subgroup finds exactly the homs of the full search
    # whose images all lie in it.  The kernel checks no solved value for
    # membership, so this fails if one can ever leave the group searched.
    sym = _kernel.symmetric_group(n)
    plan = _kernel.compile_plan(3, relators, range(3))
    _, homs, _ = _kernel.search_homs(plan, sym, [((), 1)], DEFAULT_BUDGET,
                                     True)
    subgroups = _subgroups(n, sym)
    assert len(subgroups) == 2 + {2: 2, 3: 3, 4: 5}[n]  # partitions of n
    for elements in subgroups:
        members = set(elements)
        assert {sym.mul[a][b] for a in elements for b in elements} == members
        count, _, _ = _kernel.search_homs(plan, sym.subgroup(elements),
                                          [((), 1)], DEFAULT_BUDGET, False)
        assert count == sum(all(x in members for x in hom) for hom in homs[0])


def _relator_value(relator, images, n):
    """The permutation a relator maps to, composed left to right."""
    out = tuple(range(n))
    for g, e in relator:
        p = images[g]
        if e < 0:
            p = tuple(sorted(range(n), key=p.__getitem__))
        out = tuple(out[x] for x in p)
    return out


_oracle_relators = st.integers(1, 3).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(
        st.lists(st.tuples(st.integers(0, k - 1), st.sampled_from([1, -1])),
                 min_size=0, max_size=5).map(tuple),
        min_size=0, max_size=4,
    ).map(tuple),
))


# (case, n, solved letters): each solved letter as (relator index,
# position, exponent), read off the plan.  The open letter sits first,
# last, in the middle, and with exponent -1.
_SOLVE_EXAMPLES = [
    ((3, (((2, 1), (0, 1), (1, -1)),)), 3, [(0, 0, 1)]),
    ((3, (((0, 1), (1, 1), (2, 1)),)), 3, [(0, 2, 1)]),
    ((3, (((2, -1), (1, 1), (0, -1)),)), 3, [(0, 0, -1)]),
    ((3, (((0, -1), (0, -1), (1, 1), (2, -1)),)), 3, [(0, 3, -1)]),
    ((3, (((0, -1), (2, -1), (1, 1), (0, 1)),)), 3, [(0, 1, -1)]),
    ((2, (((0, 1), (1, -1), (0, 1), (1, -1)), ((1, -1),))), 2, [(1, 0, -1)]),
]


def _with_solve_examples(test):
    for case, n, _ in _SOLVE_EXAMPLES:
        test = example(case, n)(test)
    return test


@pytest.mark.parametrize("case, n, solved", _SOLVE_EXAMPLES)
def test_brute_force_examples_place_the_solved_letter(case, n, solved):
    k, relators = case
    plan = _kernel.compile_plan(k, relators, range(k))
    gens = [reg // 2 for level in (plan.pre,) + plan.levels
            for _, reg in level.solves]
    # In these cases a solved generator occurs once in exactly one relator.
    assert [(ri, pos, e)
            for g in gens
            for ri, rel in enumerate(relators)
            if [h for h, _ in rel].count(g) == 1
            for pos, (h, e) in enumerate(rel) if h == g] == solved


@settings(max_examples=300, deadline=None)
@given(_oracle_relators, st.integers(2, 3))
@_with_solve_examples
def test_kernel_matches_brute_force(case, n):
    k, relators = case
    identity = tuple(range(n))
    want = [images for images in product(sorted(permutations(range(n))),
                                          repeat=k)
            if all(_relator_value(rel, images, n) == identity
                   for rel in relators)]
    count, homs, _ = _search(n, k, relators)
    assert count == len(want)
    # The homs come out sorted by the branching generators' images, taken
    # in level order; the solved generators' images follow from them.
    plan = _kernel.compile_plan(k, relators, range(k))
    want.sort(key=lambda images: [images[level.gen] for level in plan.levels])
    assert homs == want


def test_cayley_table_multiplies_in_relator_order():
    # Exhaustive up to Sym(5), whose rows are tuples; Sym(6), whose rows
    # are arrays, on a seeded sample of products and on every inverse.
    rng = random.Random(6)
    for n in range(7):
        group = _kernel.symmetric_group(n)
        perms = group.perms
        assert list(perms) == sorted(permutations(range(n)))
        assert perms[0] == tuple(range(n))
        indices = range(len(perms))
        pairs = (product(indices, indices) if n <= 5 else
                 [(rng.choice(indices), rng.choice(indices))
                  for _ in range(2000)])
        for a, b in pairs:
            want = _relator_value(((0, 1), (1, 1)), (perms[a], perms[b]), n)
            assert perms[group.mul[a][b]] == want
        for a, p in enumerate(perms):
            assert group.mul[a][group.inv[a]] == 0
            assert perms[group.inv[a]] == _relator_value(((0, -1),), (p,), n)


def test_small_tables_are_tuples_and_subgroups_share_them():
    for n in range(7):
        sym = _kernel.symmetric_group(n)
        assert type(sym.perms) is type(sym.mul) is type(sym.inv) is tuple
        assert sym.elements == range(len(sym.perms))
        # Tuple rows from Sym(6) on would cost four times the memory.
        if n <= 5:
            assert all(type(row) is tuple for row in sym.mul)
        else:
            assert all(type(row) is array and row.typecode == "H"
                       for row in sym.mul)
        # The centralizer of the last class representative.
        centralizer = _conjugation_orbits(sym.elements, sym)[0][-1][2]
        sub = sym.subgroup(centralizer)
        assert sub.mul is sym.mul and sub.inv is sym.inv
        assert sub.perms is sym.perms
        assert type(sub.elements) is tuple
        assert sub.elements == tuple(centralizer)


def test_plan_shape_of_a_and_eps3():
    # A's group is a one-relator group on x2, y2, z2: the other six
    # generators are solved and x1 y1 z1 is the lone check.
    p = presentation(builtin("A"))
    plan = _compiled(p)
    assert [p.generators[level.gen] for level in plan.levels] == [
        "x2", "y2", "z2"]
    assert (plan.pre.solves, plan.pre.checks) == ((), ())
    assert [len(level.solves) for level in plan.levels] == [0, 2, 4]
    assert [len(level.checks) for level in plan.levels] == [0, 0, 1]
    # x1 y1 z1: the first two generators are branched over all 24
    # elements of Sym(4) and the third is always solved, never branched.
    p = presentation(builtin("eps3"))
    plan = _compiled(p)
    assert [p.generators[level.gen] for level in plan.levels] == ["x1", "y1"]
    count, homs, nodes = _kernel.search_homs(
        plan, _kernel.symmetric_group(4), [((), 1)], DEFAULT_BUDGET, True)
    assert nodes == 24 + 24 * 24 and count == len(homs[0]) == 24 * 24


def test_one_letter_relator_is_not_a_level():
    # b^-1 solves b before any assignment, so the orbit split fixes a and
    # c and the Burnside count into Sym(3) branches nowhere.
    p = FinitePresentation(("a", "b", "c"), ((("b", -1),),))
    plan = _compiled(p)
    assert [p.generators[level.gen] for level in plan.levels] == ["a", "c"]
    r = count_classes_burnside(p, 3)
    assert (r.total_homs, r.class_count, r.nodes) == (36, 11, 0)
    assert count_classes_enumerate(p, 3).class_count == 11


@st.composite
def _named_presentations(draw):
    """Up to 5 generators, named out of index order; relators of <= 6 letters."""
    names = tuple(draw(st.permutations("abcde"))[:draw(st.integers(1, 5))])
    letter = st.tuples(st.sampled_from(names), st.sampled_from([1, -1]))
    relators = draw(st.lists(st.lists(letter, max_size=6).map(tuple),
                             max_size=5))
    return FinitePresentation(names, tuple(relators))


def _level_order(p):
    return [p.generators[level.gen] for level in _compiled(p).levels]


@settings(max_examples=300, deadline=None)
@given(_named_presentations())
# c's cascade solves b and d, a's none; both close two relators, and a has
# more occurrences.
@example(FinitePresentation(("a", "b", "c", "d"), (
    (("a", 1), ("a", 1)), (("a", 1),) * 3, (("b", 1), ("c", 1)),
    (("c", 1), ("d", -1)))))
# Once a is known, b, c, d and e share one closure and tie on everything
# but occurrences and names.
@example(FinitePresentation(("a", "b", "c", "d", "e"), tuple(
    ((x, 1), ("a", 1), (y, -1)) for x, y in ("bc", "cd", "de"))))
def test_plan_order_matches_greedy_oracle(p):
    assert _level_order(p) == helpers.greedy_order_oracle(p.generators, p.relators)


def test_plan_order_of_a_prefix_is_pinned():
    p = presentation(concat(*map(builtin, ("A", "Ab", "As", "Abs"))))
    want = ["x2", "y2", "z2", "x5", "x6", "x9"]
    assert _level_order(p) == want
    assert helpers.greedy_order_oracle(p.generators, p.relators) == want


def test_plan_of_a_1000_block_word_is_pinned():
    rng = random.Random(5)
    word = [rng.choice(("A", "Ab", "As", "Abs")) for _ in range(1000)]
    order = _level_order(presentation(concat(*map(builtin, word))))
    assert len(order) == 1002
    assert order[:10] == ["x100", "y100", "z100", "x102", "x104", "x106",
                          "x108", "x110", "x98", "x96"]


def _chain(n):
    """Generators a, g0..gN with relators g_i a g_{i+1}^-1: a 2-level plan."""
    names = ("a", *(f"g{i}" for i in range(n + 1)))
    return n + 2, tuple(((i, 1), (0, 1), (i + 1, -1)) for i in range(1, n + 1)), names


def _random_presentation(rng):
    """Up to 8 generators and 8 relators; 40% of the relators a u b^-1 u^-1."""
    k = rng.randint(1, 8)
    names = rng.sample("abcdefgh", k)

    def word(length):
        return [(rng.randrange(k), rng.choice((1, -1))) for _ in range(length)]

    relators = []
    for _ in range(rng.randint(0, 8)):
        if rng.random() < 0.4:
            u = word(rng.randint(0, 3))
            rel = [(rng.randrange(k), 1), *u, (rng.randrange(k), -1),
                   *((g, -e) for g, e in reversed(u))]
            cut = rng.randrange(len(rel))
            relators.append(tuple(rel[cut:] + rel[:cut]))
        else:
            relators.append(tuple(word(rng.randint(0, 8))))
    return k, tuple(relators), names


def _presented_diagrams(rng):
    """(diagram, include_outer_vertex) for the builtins, with and without
    the outer vertex relation, then seeded block words with bar and star."""
    pairs = [(builtin(name), outer)
             for name in BUILTIN_NAMES for outer in (False, True)]
    return pairs + [(_seeded_block_word(rng, length), False)
                    for length in range(1, 79)]


def _plan_corpus():
    """Two lists of (num_gens, relators, names): the presentations that
    ``presentation`` builds, with short chains, and 300 seeded random
    presentations."""
    def compiled(p):
        index = {g: i for i, g in enumerate(p.generators)}
        return (len(p.generators), tuple(tuple((index[g], e) for g, e in rel)
                                         for rel in p.relators), p.generators)

    rng = random.Random(24)
    presented = [compiled(presentation(d, outer))
                 for d, outer in _presented_diagrams(rng)]
    drawn = [_random_presentation(rng) for _ in range(300)]
    return presented + [_chain(n) for n in range(51)], drawn


def _plan_digest(corpus):
    """SHA-256 of every plan's pre-cascade and levels, as (gen, solves,
    checks, conj)."""
    steps = []
    for num_gens, relators, names in corpus:
        plan = _kernel.compile_plan(num_gens, relators, names)
        steps.append([(level.gen, level.solves, level.checks, level.conj)
                      for level in (plan.pre, *plan.levels)])
    return hashlib.sha256(repr(steps).encode()).hexdigest()


def test_plans_of_a_seeded_corpus_are_pinned():
    # Every plan's pre-cascade and levels, in two pins.  The presentations
    # ``presentation`` builds, and the chains, have no conjugate-form
    # relator longer than four letters, so their plans are also those of a
    # planner that reads every length; the random presentations have
    # longer ones, which join no generators.
    presented, drawn = _plan_corpus()
    assert _plan_digest(presented) == (
        "43859ee7b11a347f96aa68a21c45b0449ad407bb54ccaa8fef3ac999e44ef37c")
    assert _plan_digest(drawn) == (
        "6c493d72ee52f808a87f6f68ec829e6aff578b57fc5dee8dd2533d244fe7baf4")


def test_chain_plans_in_linear_time():
    # Every g_i shares one closure once a is known; ranking each g_i by its
    # own cascade took quadratic time (8.9 s of CPU at this length).
    num_gens, relators, names = _chain(3000)
    start = time.process_time()
    plan = _kernel.compile_plan(num_gens, relators, names)
    assert time.process_time() - start < 1
    # g1 leads the ties: two occurrences, and the least such name.
    assert [names[level.gen] for level in plan.levels] == ["a", "g1"]
    assert len(plan.levels[1].solves) == 3000


def test_level_sources_are_cached_per_shape():
    # A cached source was rendered for an earlier level of the same shape;
    # it must equal the render of this level's own shape.
    render = _kernel._level_source
    assert render.cache_info().maxsize == 256
    render.cache_clear()
    levels = 0
    presented, drawn = _plan_corpus()
    for num_gens, relators, names in presented + drawn:
        plan = _kernel.compile_plan(num_gens, relators, names)
        for collect in (True, False):
            live, last = _kernel.live_plan(plan, collect)
            for i, level in enumerate(live):
                shape = _kernel._level_shape(level, i, last)[0]
                assert render(shape) == render.__wrapped__(shape)
                levels += 1
    info = render.cache_info()
    assert info.hits + info.misses == levels and info.hits > levels // 2


def test_live_plan_drops_dead_solves_unless_collected():
    p = presentation(builtin("A"))
    plan = _compiled(p)

    def solved(level):
        return [p.generators[reg // 2] for _, reg in level.solves]

    # Only z1 and y1 feed the check x1 y1 z1, while a collected hom needs
    # every image.
    for collect, want in ((False, ["z1", "y1"]),
                          (True, ["z3", "z1", "y1", "x3"])):
        last = _kernel.live_plan(plan, collect)[0][-1]
        assert solved(last) == want
        assert last.checks == plan.levels[-1].checks and len(last.checks) == 1
    # The levels are the pre-cascade (0), x2, y2 and z2 (3).  y2's inverse
    # is read last at y2's own level unless the z3 solve stays, and a
    # collected image counts as read after every level.
    y2_inv, x3 = 2 * p.generators.index("y2") + 1, 2 * p.generators.index("x3")
    for collect, want in ((False, (2, -1)), (True, (3, 4))):
        levels, last = _kernel.live_plan(plan, collect)
        assert len(levels) == 4
        assert (last[y2_inv], last.get(x3, -1)) == want


def test_generator_names_stay_out_of_generated_code():
    # Names are compared only to break ties.  A common suffix keeps their
    # order, so the plan, the counts and the nodes are the same.
    plain = presentation(builtin("A"))
    odd = {g: g + "\")\n'\\" for g in plain.generators}
    renamed = FinitePresentation(
        tuple(odd[g] for g in plain.generators),
        tuple(tuple((odd[g], e) for g, e in rel) for rel in plain.relators))
    for n in (3, 4):
        assert count_total(renamed, n) == count_total(plain, n)
        assert (count_classes_burnside(renamed, n)
                == count_classes_burnside(plain, n))


def test_long_relators_compile():
    # (a b)^125 = 1 forces a b = 1 in Sym(3), where no element has order
    # 5, 25 or 125.  Its check multiplies 249 letters, more levels of
    # nesting than one Python expression may hold.
    def p(k):
        return FinitePresentation(("a", "b"), ((("a", 1), ("b", 1)) * k,))

    assert count_total(p(125), 3) == count_total(p(1), 3) == 6
    assert (count_classes_burnside(p(125), 3).class_count
            == count_classes_burnside(p(1), 3).class_count == 3)


@pytest.mark.parametrize("count", [
    count_total, count_classes_enumerate, count_classes_burnside,
    count_classes_both])
def test_no_plan_outlives_its_count(monkeypatch, count):
    seen = []
    search = _kernel.search_homs

    def spy(plan, group, *args):
        seen.append((weakref.ref(plan), weakref.ref(group)))
        return search(plan, group, *args)

    monkeypatch.setattr(_kernel, "search_homs", spy)
    count(presentation(builtin("A")), 4)
    gc.collect()
    assert seen and all(plan() is None and group() is None
                        for plan, group in seen)


def test_compiled_level_code_stays_bounded():
    assert _kernel._factory.cache_info().maxsize == 256
    # The word of test_plan_of_a_1000_block_word_is_pinned: 1,003 level
    # functions (the pre-cascade and 1,002 levels) from a few shapes.
    rng = random.Random(5)
    word = [rng.choice(("A", "Ab", "As", "Abs")) for _ in range(1000)]
    plan = _compiled(presentation(concat(*map(builtin, word))))
    _kernel._factory.cache_clear()
    _kernel.search_homs(plan, _kernel.symmetric_group(2), [((), 1)],
                        DEFAULT_BUDGET, False)
    assert _kernel._factory.cache_info().currsize == 22


def test_deep_plans_need_no_recursion():
    plan = _kernel.compile_plan(1500, (), range(1500))
    assert len(plan.levels) == 1500
    count, _, nodes = _kernel.search_homs(
        plan, _kernel.symmetric_group(1), [((), 1)], DEFAULT_BUDGET, False)
    assert (count, nodes) == (1, 1500)


def test_generated_level_code_is_pinned(monkeypatch):
    # Every (source, args) pair the kernel generates for these plans, per
    # collect mode, the pre-cascade first.  A kernel refactor that keeps this
    # digest runs the same code on the same registers.  (One level of the
    # 1000-block word stores its branched value for a later level's class.)
    words = [["A"], ["A", "A"], ["A", "Ab"], ["A", "As"], ["A", "Abs"],
             ["eps3"], ["dirac"]]
    rng = random.Random(5)
    for length in (12, 48, 78, 1000):
        words.append([rng.choice(("A", "Ab", "As", "Abs", "dirac", "eps3"))
                      for _ in range(length)])
    factory, pairs = _kernel._factory, []

    def recording(source):
        def build(*args):
            pairs.append((source, list(args)))
            return factory(source)(*args)
        return build

    monkeypatch.setattr(_kernel, "_factory", recording)
    for word in words:
        blocks = [builtin(b) for b in word]
        plan = _compiled(presentation(
            concat(*blocks) if len(blocks) > 1 else blocks[0]))
        for collect in (True, False):
            _kernel._level_functions(plan, collect)
    assert len(pairs) == 1648
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == (
        "6bcc443208490d0d9aac43c6e25e72a0fc468bccee60cad5e74bc72c3f669389")


def _sym3_search(collect):
    """search_homs into Sym(3), and the homs it returns given the list."""
    sym3 = _kernel.symmetric_group(3)

    def search(plan, fixed):
        return _kernel.search_homs(plan, sym3, [(fixed, 1)], DEFAULT_BUDGET,
                                   collect)

    return search, lambda homs: [homs] if collect else None


@pytest.mark.parametrize("collect", [True, False])
def test_search_runs_plans_without_searched_levels(collect):
    # Sym(3) lists its elements in sorted order: 1 is (0 2 1), 2 is
    # (1 0 2), 3 is (1 2 0).  No searched level is entered, so no node
    # is counted.
    search, homs = _sym3_search(collect)
    # a = 1 is solved in the pre-cascade; the plan has no level at all.
    plan = _kernel.compile_plan(1, (((0, 1),),), "a")
    assert plan.levels == ()
    assert search(plan, ()) == (1, homs([(0,)]), 0)
    # eps3's x1 y1 z1 = 1 with both levels fixed solves z1 = (x1 y1)^-1.
    plan = _compiled(presentation(builtin("eps3")))
    assert len(plan.levels) == 2
    assert search(plan, (1, 2)) == (1, homs([(1, 2, 3)]), 0)


@pytest.mark.parametrize("collect", [True, False])
def test_search_stops_at_a_fixed_level_whose_check_fails(collect):
    # a a = 1 is checked at a's level, which comes first; b is searched.
    search, homs = _sym3_search(collect)
    plan = _kernel.compile_plan(2, (((0, 1), (0, 1)),), "ab")
    assert [level.gen for level in plan.levels] == [0, 1]
    # The transposition 1 passes, and b then ranges over all six elements.
    assert search(plan, (1,)) == (6, homs([(1, b) for b in range(6)]), 6)
    assert search(plan, (0, 1)) == (1, homs([(0, 1)]), 0)
    # The 3-cycle 3 fails, with or without a fixed level after it.
    assert search(plan, (3,)) == (0, homs([]), 0)
    assert search(plan, (3, 1)) == (0, homs([]), 0)


@pytest.mark.parametrize("rel, pair", [
    (((0, 1), (1, -1)), (0, 1)),                              # a b^-1
    (((2, -1), (0, 1), (2, 1), (1, -1)), (0, 1)),             # Wirtinger
    (((1, 1), (2, 1), (0, -1), (2, -1)), (1, 0)),             # b u a^-1 u^-1
    (((3, 1), (1, -1), (3, -1), (2, -1), (0, 1), (2, 1)), None),  # u = c d
    (((0, 1), (2, 1), (1, 1), (2, -1)), None),                # a u b u^-1
    (((0, 1), (2, 1), (1, -1), (2, 1)), None),
    (((0, 1), (1, 1), (2, 1)), None),                         # odd length
    ((), None),
])
def test_conjugate_pairs_are_read_off_relators(rel, pair):
    # a^e u b^-e u^-1, read cyclically, makes a and b conjugate; only the
    # shapes a crossing relator takes are read, u of one letter or none.
    assert _kernel._conjugate_pair(rel) == pair


def test_conjugate_pairs_match_a_rotation_oracle():
    # Every word of up to 6 letters on 2 generators and of 4 letters on 3;
    # a conjugate form of 6 letters reads None.
    def oracle(rel):
        half = len(rel) // 2
        for i in range(half if len(rel) in (2, 4) else 0):
            r = rel[i:] + rel[:i]
            u = r[1:half]
            if (r[half][1] == -r[0][1]
                    and r[half + 1:] == tuple((g, -e) for g, e in reversed(u))):
                return r[0][0], r[half][0]
        return None

    letters = [(g, e) for g in range(3) for e in (1, -1)]
    words = [w for k in range(7) for w in product(letters[:4], repeat=k)]
    words += product(letters, repeat=4)
    for rel in words:
        assert _kernel._conjugate_pair(rel) == oracle(rel), rel


def _kink_diagrams():
    """JSON diagrams with a kink: one strand passing over and then under
    itself, or under and then over, at either sign; and A with such a
    kink on its second strand."""
    kinks = []
    for roles in (("o", "u"), ("u", "o")):
        for sign in (1, -1):
            kinks.append({"n_strands": 1, "strands": [[{"c": 1, "role": r}
                                                       for r in roles]],
                          "signs": {"1": sign}, "inner_order": [1],
                          "outer_order": [1]})
    a = json.loads(to_json(builtin("A")))
    a["strands"][1][2:2] = [{"c": 7, "role": "u"}, {"c": 7, "role": "o"}]
    a["signs"]["7"] = -1
    return [from_json(json.dumps(doc)) for doc in kinks + [a]]


def test_every_crossing_relator_is_read_as_a_conjugate_pair():
    # ``presentation`` writes one relator per crossing, before the vertex
    # relations, and each makes the arcs before and after its under-passage
    # conjugate.  A longer shape from ``presentation`` fails here, since
    # ``_conjugate_pair`` reads it as None.
    def arc(name):
        strand = name.rstrip("0123456789")
        return strand, int(name[len(strand):])

    diagrams = _presented_diagrams(random.Random(24))
    diagrams += [(d, outer) for d in _kink_diagrams() for outer in (False, True)]
    lengths = set()
    for d, outer in diagrams:
        p = presentation(d, outer)
        for rel in p.relators[:len(d.signs)]:
            lengths.add(len(rel))
            pair = _kernel._conjugate_pair(rel)
            assert pair is not None, rel
            (sa, ia), (sb, ib) = map(arc, pair)
            assert sa == sb and abs(ia - ib) == 1, rel
    assert lengths == {2, 4}


def _conj_free(plan):
    """The plan with no level's ``conj``: every level over the whole group."""
    return _kernel.Plan(plan.num_gens, plan.pre, tuple(
        _kernel.Level(level.gen, level.solves, level.checks)
        for level in plan.levels))


def test_a_restricted_level_spends_its_class_size():
    # b is searched over the class of a's value: one node per member.
    Level = _kernel.Level
    plan = _kernel.Plan(2, Level(None, (), ()), (Level(0, (), ()),
                                                 Level(1, (), (), conj=0)))
    sym = _kernel.symmetric_group(4)
    orbits, orbit_of = _conjugation_orbits(sym.elements, sym)
    for y, size, _ in orbits:
        count, homs, nodes = _kernel.search_homs(
            plan, sym, [((y,), 1)], DEFAULT_BUDGET, True, orbit_of)
        assert count == nodes == size
        assert sorted(b for _, b in homs[0]) == sorted(orbit_of[y])
        # A fixed value outside the known value's class ends the term.
        other = next(x for x in sym.elements if orbit_of[x] is not orbit_of[y])
        assert _kernel.search_homs(plan, sym, [((y, other), 1)], DEFAULT_BUDGET,
                                   False, orbit_of) == (0, None, 0)
    squares = sum(size * size for _, size, _ in orbits)
    assert _kernel.search_homs(plan, sym, [((), 1)], DEFAULT_BUDGET, False,
                               orbit_of) == (squares, None, 24 + squares)
    # Without the class lookup the same plan searches b over all of Sym(4).
    assert _kernel.search_homs(plan, sym, [((), 1)], DEFAULT_BUDGET,
                               False) == (576, None, 24 + 576)


def test_unrestricted_calls_search_every_level_over_the_group():
    # Ab branches on y1 after y3, its conjugate; A and eps3 have no such
    # level, so the class lookup keeps their search trees.
    for name, restricted in (("Ab", True), ("A", False), ("eps3", False)):
        plan = _compiled(presentation(builtin(name)))
        assert any(level.conj is not None for level in plan.levels) == restricted
        free = _conj_free(plan)
        for n in (3, 4):
            sym = _kernel.symmetric_group(n)
            orbit_of = _conjugation_orbits(sym.elements, sym)[1]
            whole = _kernel.search_homs(free, sym, [((), 1)], DEFAULT_BUDGET, True)
            assert _kernel.search_homs(plan, sym, [((), 1)], DEFAULT_BUDGET,
                                       True) == whole
            count, homs, nodes = _kernel.search_homs(
                plan, sym, [((), 1)], DEFAULT_BUDGET, True, orbit_of)
            # The same homs (a class lists its members in no fixed order);
            # fewer nodes only if restricted.
            assert (count, sorted(homs[0])) == (whole[0], sorted(whole[1][0]))
            assert (nodes < whole[2]) == restricted
            # The oracle makes such a call: the tree of the conj-free plan.
            unreduced = helpers.unreduced_class_count(presentation(builtin(name)), n)
            assert unreduced.nodes == whole[2]


def test_search_tree_is_pinned(deep):
    # Node counts of three paper-table counts; a kernel change that keeps
    # them visits the same search tree and spends --budget the same way.
    a, a_as = builtin("A"), concat(builtin("A"), builtin("As"))
    assert count_classes_burnside(presentation(a), 5).nodes == 20_693
    # A has no level with a known conjugate; A·As branches on x4, a
    # conjugate of x2, over x2's class.
    assert count_classes_burnside(presentation(a_as), 5).nodes == 25_638
    aa = presentation(concat(a, a))
    assert helpers.unreduced_class_count(aa, 4).nodes == 30_552
    # Enumeration searches count_total's tree: the split's terms, once each.
    assert count_classes_enumerate(aa, 4).nodes == 1_357
    assert count_total(aa, 4, budget=1_357) == 1056
    with pytest.raises(BudgetExceededError):
        count_total(aa, 4, budget=1_356)
    if deep:
        # The products A·A and A·Ab that only Sym(6) tells apart.
        for x, want in (("A", (3111, 2_052_000)), ("Ab", (3255, 2_155_680))):
            p = presentation(concat(a, builtin(x)))
            for method, nodes in ((count_classes_enumerate, 785_612),
                                  (count_classes_burnside, 812_538)):
                r = method(p, 6)
                assert (r.class_count, r.total_homs, r.nodes) == (*want, nodes)


def test_a_into_sym7_is_pinned(deep):
    # A regression pin, not a published value: the earlier tuple-based
    # kernel computed these in about 6 minutes.
    if not deep:
        pytest.skip("A into Sym(7) runs only under --deep")
    p = presentation(builtin("A"))
    e, b = count_classes_both(p, 7)  # one table of Sym(7) for both
    assert (e.class_count, e.total_homs, e.nodes) == (7287, 33_586_560,
                                                      28_118_160)
    assert (b.class_count, b.total_homs, b.nodes) == (7287, 33_586_560,
                                                      28_342_205)
    # Hall's formula on the same total: A has 37353 subgroups of index 7.
    totals = [count_total(p, n) for n in range(1, 7)] + [b.total_homs]
    assert helpers.subgroup_counts(totals)[6] == 37353


# ---------------------------------------------------------------------------
# Randomized agreement on small presentations

_rand_words = st.lists(
    st.tuples(st.sampled_from(["a", "b"]), st.sampled_from([1, -1])),
    min_size=0, max_size=6,
).map(tuple)


@settings(max_examples=200, deadline=None)
@given(st.lists(_rand_words, min_size=0, max_size=3))
def test_random_presentations_methods_agree(relators):
    p = FinitePresentation(("a", "b"), tuple(relators))
    for n in (2, 3):
        e = count_classes_enumerate(p, n)
        b = count_classes_burnside(p, n)
        assert e.class_count == b.class_count
        assert e.total_homs == b.total_homs


def _unsplit(p, n, group):
    """One kernel call over the whole group, nothing fixed."""
    return _kernel.search_homs(_compiled(p), group, [((), 1)], DEFAULT_BUDGET,
                               False)[0]


_rand_words3 = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from([1, -1])),
    min_size=0, max_size=6,
).map(tuple)


@settings(max_examples=200, deadline=None)
@given(st.lists(_rand_words3, min_size=0, max_size=3),
       st.integers(1, 3), st.integers(1, 4))
def test_orbit_split_matches_unsplit_search(relators, rank, n):
    gens = ("a", "b", "c")[:rank]
    relators = [tuple(letter for letter in rel if letter[0] in gens)
                for rel in relators]
    p = FinitePresentation(gens, tuple(relators))
    sym = _kernel.symmetric_group(n)
    assert count_total(p, n) == _unsplit(p, n, sym)
    for rep in _first_of_each_cycle_type(n):
        centralizer = sym.subgroup(
            x for x, q in enumerate(sym.perms) if _commutes(q, rep))
        got = _count_into(_compiled(p), centralizer, _Budget(DEFAULT_BUDGET))
        assert got == _unsplit(p, n, centralizer)


@settings(max_examples=200, deadline=None)
@given(st.lists(_rand_words3, min_size=0, max_size=3),
       st.integers(1, 3), st.integers(0, 3))
def test_enumeration_matches_the_unreduced_oracle(relators, rank, n):
    gens = ("a", "b", "c")[:rank]
    relators = [tuple(letter for letter in rel if letter[0] in gens)
                for rel in relators]
    p = FinitePresentation(gens, tuple(relators))
    e = count_classes_enumerate(p, n)
    u = helpers.unreduced_class_count(p, n)
    assert (e.total_homs, e.class_count) == (u.total_homs, u.class_count)
