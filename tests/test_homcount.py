"""Homomorphism counting into symmetric groups: totals, classes, kernels."""

import gc
import hashlib
import random
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borrays.diagrams import builtin, concat, forget
from borrays.errors import BudgetExceededError, IntegrityError
from borrays.homcount import (
    DEFAULT_BUDGET,
    MAX_DEGREE,
    MAX_ENUMERATE_DEGREE,
    HomClassCount,
    Permutation,
    count_classes_burnside,
    count_classes_enumerate,
    count_total,
    enumerate_homs,
    kernel_name,
)
from borrays.homcount import (
    _Budget,
    _compiled,
    _conjugation_orbits,
    _count_into,
    _kernel,
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


def test_a_class_counts():
    d = builtin("A")
    for n, want in enumerate(A_CLASSES, start=1):
        assert classes(d, n) == want


def test_a_total_into_sym5():
    p = presentation(builtin("A"))
    assert count_total(p, 5) == 18240


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
        orbits = _conjugation_orbits(sym.elements, sym)
        assert len(orbits) == partitions
        assert sum(size for _, size, _ in orbits) == factorial(n)
        assert [perms[rep] for rep, _, _ in orbits] == sorted(
            _first_of_each_cycle_type(n))
        for rep, size, stabilizer in orbits:
            kind = _cycle_type(perms[rep])
            assert size == sum(_cycle_type(q) == kind for q in perms)
            assert stabilizer == [x for x, q in enumerate(perms)
                                  if _commutes(q, perms[rep])]


def test_enumerate_homs_deterministic_and_valid():
    p = presentation(builtin("eps3"))
    homs = list(enumerate_homs(p, 3))
    assert len(homs) == count_total(p, 3) == 36
    assert homs == list(enumerate_homs(p, 3))
    for hom in homs:
        assert set(hom) == set(p.generators)
        # relator x1 y1 z1 must map to the identity
        x, y, z = (hom[g].zero_based() for g in ("x1", "y1", "z1"))
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
                   enumerate_homs):
        with pytest.raises(ValueError, match="budget"):
            method(p, 3, budget=budget)


def test_hom_class_count_bounds():
    # at most total_homs classes, at least total_homs / n!
    HomClassCount(3, 36, 11, "enumerate")
    with pytest.raises(IntegrityError):
        HomClassCount(3, 36, 37, "enumerate")
    with pytest.raises(IntegrityError):
        HomClassCount(3, 36, 5, "burnside")


def test_permutation_validation():
    Permutation((2, 1, 3))
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    assert Permutation.from_zero_based((1, 0, 2)).images == (2, 1, 3)


def test_degree_above_max_is_refused():
    p = presentation(builtin("A"))
    for count in (count_total, enumerate_homs, count_classes_enumerate,
                  count_classes_burnside):
        with pytest.raises(ValueError, match=f"MAX_DEGREE = {MAX_DEGREE}"):
            count(p, MAX_DEGREE + 1)


def test_negative_degree_is_refused():
    p = presentation(builtin("A"))
    for count in (count_total, enumerate_homs, count_classes_enumerate,
                  count_classes_burnside):
        with pytest.raises(ValueError, match="degree -1 is negative"):
            count(p, -1)
    # Sym(0), the trivial group, keeps its answers.
    assert count_total(p, 0) == 1
    assert len(list(enumerate_homs(p, 0))) == 1
    for count in (count_classes_enumerate, count_classes_burnside):
        r = count(p, 0)
        assert (r.total_homs, r.class_count) == (1, 1)


@pytest.mark.parametrize("n", [2.0, True])
def test_degree_that_is_not_an_int_is_refused(n):
    p = presentation(builtin("A"))
    for count in (count_total, enumerate_homs, count_classes_enumerate,
                  count_classes_burnside):
        with pytest.raises(ValueError, match=f"degree {n!r} is not an int"):
            count(p, n)


def test_enumeration_refuses_sym7():
    p = presentation(builtin("eps3"))
    assert MAX_ENUMERATE_DEGREE == MAX_DEGREE - 1
    for count in (enumerate_homs, count_classes_enumerate):
        with pytest.raises(ValueError, match=(
                f"MAX_ENUMERATE_DEGREE = {MAX_ENUMERATE_DEGREE}")):
            count(p, MAX_ENUMERATE_DEGREE + 1)


def test_kernel_name_reports_a_kernel():
    assert kernel_name() == "borrays._homsearch_py"


# ---------------------------------------------------------------------------
# The search kernel alone

def _search(n, num_gens, relators, candidates=None, budget=DEFAULT_BUDGET,
            collect=True):
    """One kernel call, indices as names; candidates default to Sym(n).

    Homs come back as tuples of permutations, not of element indices.
    """
    group = _kernel.symmetric_group(n)
    if candidates is not None:
        group = group.subgroup(sorted(group.perms.index(q) for q in candidates))
    plan = _kernel.compile_plan(num_gens, relators, range(num_gens))
    count, homs, nodes = _kernel.search_homs(plan, group, (), budget, collect)
    if homs is not None:
        homs = [tuple(group.perms[x] for x in hom) for hom in homs]
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
    count, _, nodes = _kernel.search_homs(plan, sym, (), 600, collect)
    assert (count, nodes) == (576, 600)
    with pytest.raises(BudgetExceededError):
        _kernel.search_homs(plan, sym, (), 599, collect)


@pytest.mark.parametrize("method, p, n, nodes", [
    (count_classes_burnside, presentation(builtin("A")), 5, 20_693),
    (count_classes_enumerate,
     presentation(concat(builtin("A"), builtin("A"))), 4, 30_552),
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


@settings(max_examples=200, deadline=None)
@given(_kernel_relators, st.integers(2, 3))
def test_kernel_restricted_candidates_filter_full_search(relators, n):
    # the cyclic subgroup generated by an n-cycle: the n rotations
    group = {tuple((i + k) % n for i in range(n)) for k in range(n)}
    count, _, _ = _search(n, 3, relators, candidates=sorted(group))
    _, homs, _ = _search(n, 3, relators)
    assert count == sum(all(x in group for x in hom) for hom in homs)


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
    for n in (1, 2, 3, 4):
        group = _kernel.symmetric_group(n)
        perms = group.perms
        assert perms == sorted(permutations(range(n)))
        assert perms[0] == tuple(range(n))
        for a, p in enumerate(perms):
            for b, q in enumerate(perms):
                want = _relator_value(((0, 1), (1, 1)), (p, q), n)
                assert perms[group.mul[a][b]] == want
            assert group.mul[a][group.inv[a]] == 0
            assert perms[group.inv[a]] == _relator_value(((0, -1),), (p,), n)


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
        plan, _kernel.symmetric_group(4), (), DEFAULT_BUDGET, True)
    assert nodes == 24 + 24 * 24 and count == len(homs) == 24 * 24


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


def test_live_plan_drops_dead_solves_only_in_sym_n_counts():
    p = presentation(builtin("A"))
    plan = _compiled(p)

    def solved(level):
        return [p.generators[reg // 2] for _, reg in level.solves]

    # Only z1 and y1 feed the check x1 y1 z1.
    last = _kernel.live_plan(plan, full=True, collect=False)[0][-1]
    assert solved(last) == ["z1", "y1"]
    assert last.checks == plan.levels[-1].checks and len(last.checks) == 1
    # In a centralizer each solve keeps its membership check, and a
    # collected hom needs every image.
    for full, collect in ((False, False), (False, True), (True, True)):
        last = _kernel.live_plan(plan, full, collect)[0][-1]
        assert solved(last) == ["z3", "z1", "y1", "x3"]
        assert last.checks == plan.levels[-1].checks
    # The levels are the pre-cascade (0), x2, y2 and z2 (3).  y2's inverse
    # is read last at y2's own level unless the z3 solve stays, and a
    # collected image counts as read after every level.
    y2_inv, x3 = 2 * p.generators.index("y2") + 1, 2 * p.generators.index("x3")
    for full, collect, want in ((True, False, (2, -1)), (False, False, (3, -1)),
                                (True, True, (3, 4))):
        levels, last = _kernel.live_plan(plan, full, collect)
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


def test_no_plan_outlives_its_count(monkeypatch):
    seen = []
    search = _kernel.search_homs

    def spy(plan, group, *args):
        seen.append((weakref.ref(plan), weakref.ref(group)))
        return search(plan, group, *args)

    monkeypatch.setattr(_kernel, "search_homs", spy)
    count_classes_burnside(presentation(builtin("A")), 4)
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
    _kernel.search_homs(plan, _kernel.symmetric_group(2), (), DEFAULT_BUDGET,
                        False)
    assert _kernel._factory.cache_info().currsize == 22


def test_deep_plans_need_no_recursion():
    plan = _kernel.compile_plan(1500, (), range(1500))
    assert len(plan.levels) == 1500
    count, _, nodes = _kernel.search_homs(
        plan, _kernel.symmetric_group(1), (), DEFAULT_BUDGET, False)
    assert (count, nodes) == (1, 1500)


def test_generated_level_code_is_pinned(monkeypatch):
    # Every (source, args) pair the kernel generates for these plans, per
    # mode, the pre-cascade first.  A kernel refactor that keeps this
    # digest runs the same code on the same registers.
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
        for full in (True, False):
            for collect in (True, False):
                _kernel._level_functions(plan, full, collect)
    assert len(pairs) == 3296
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == (
        "0c71c3cff1b806d176812cc8dabfcfcf4fc349ad856de7f3c5aa591ff5939d62")


def _sym3_search(collect):
    """search_homs into Sym(3), and the homs it returns given the list."""
    sym3 = _kernel.symmetric_group(3)

    def search(plan, fixed):
        return _kernel.search_homs(plan, sym3, fixed, DEFAULT_BUDGET, collect)

    return search, lambda homs: homs if collect else None


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


def test_search_tree_is_pinned():
    # Node counts of three paper-table counts; a kernel change that keeps
    # them visits the same search tree and spends --budget the same way.
    a, a_as = builtin("A"), concat(builtin("A"), builtin("As"))
    assert count_classes_burnside(presentation(a), 5).nodes == 20_693
    assert count_classes_burnside(presentation(a_as), 5).nodes == 49_474
    aa = presentation(concat(a, a))
    assert count_classes_enumerate(aa, 4).nodes == 30_552


def test_a_into_sym7_is_pinned(deep):
    # A regression pin, not a published value: the earlier tuple-based
    # kernel computed these in about 6 minutes.
    if not deep:
        pytest.skip("A into Sym(7) runs only under --deep")
    r = count_classes_burnside(presentation(builtin("A")), 7)
    assert (r.class_count, r.total_homs, r.nodes) == (7287, 33_586_560,
                                                      28_342_205)


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
    return _kernel.search_homs(_compiled(p), group, (), DEFAULT_BUDGET, False)[0]


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
