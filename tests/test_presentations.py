"""Wirtinger-style presentations, Tietze simplification, abelianization."""

import hashlib
import importlib.util
import random
import time
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import example, given, settings

import helpers
from borrays.diagrams import bar, builtin, concat, from_braid
from borrays.presentations import (
    AbelianInvariants,
    FinitePresentation,
    abelianization,
    cyclic_reduce,
    format_presentation,
    free_reduce,
    invert_word,
    presentation,
    strand_letter,
    tietze_simplify,
)

# The expected presentation of the builtin A block: one generator per arc,
# one conjugation relation per crossing, inner vertex relation.
A_DISPLAY = FinitePresentation(
    ("x1", "x2", "x3", "y1", "y2", "y3", "z1", "z2", "z3"),
    (
        (("y2", 1), ("x2", 1), ("y2", -1), ("x1", -1)),   # y2 x2 = x1 y2
        (("x2", 1), ("y3", 1), ("x2", -1), ("y2", -1)),   # x2 y3 = y2 x2
        (("x2", 1), ("z2", 1), ("x2", -1), ("z1", -1)),   # x2 z2 = z1 x2
        (("z2", 1), ("x3", 1), ("z2", -1), ("x2", -1)),   # z2 x3 = x2 z2
        (("z2", 1), ("y2", 1), ("z2", -1), ("y1", -1)),   # z2 y2 = y1 z2
        (("y2", 1), ("z3", 1), ("y2", -1), ("z2", -1)),   # y2 z3 = z2 y2
        (("x1", 1), ("y1", 1), ("z1", 1)),                # vertex
    ),
)


def test_strand_letters():
    assert [strand_letter(k) for k in (1, 2, 3, 4, 5)] == ["x", "y", "z", "a", "b"]
    # Past 26 strands, bijective base 26 over the same letters.
    assert [strand_letter(k) for k in (26, 27, 28, 52, 53, 702, 703)] == [
        "w", "xx", "xy", "xw", "yx", "ww", "xxx"]
    names = [strand_letter(k) for k in range(1, 2000)]
    assert len(set(names)) == len(names)


def test_eps_past_26_strands_has_distinct_generators():
    # epsN presents a free group of rank N - 1.
    for n in (27, 1000):
        p = presentation(builtin(f"eps{n}"))
        assert len(set(p.generators)) == len(p.generators) == n
        assert abelianization(p) == AbelianInvariants(n - 1, ())


def test_repeated_generator_name_is_refused():
    with pytest.raises(ValueError, match="'x1' is declared more than once"):
        FinitePresentation(("x1", "x1", "y1"), ((("x1", 1), ("y1", 1)),))


def test_word_utilities():
    w = (("a", 1), ("b", 1), ("b", -1), ("a", 1))
    assert free_reduce(w) == (("a", 1), ("a", 1))
    assert cyclic_reduce((("a", -1), ("b", 1), ("a", 1))) == (("b", 1),)
    assert invert_word((("a", 1), ("b", -1))) == (("b", 1), ("a", -1))


def test_cyclic_reduce_is_linear():
    # a^n b a^-n: n cancelling end pairs, stripped by index in one pass.
    n = 100_000
    word = (("a", 1),) * n + (("b", 1),) + (("a", -1),) * n
    start = time.perf_counter()
    assert cyclic_reduce(word) == (("b", 1),)
    assert time.perf_counter() - start < 1


def test_presentation_of_a_matches_display():
    p = presentation(builtin("A"))
    assert set(p.generators) == set(A_DISPLAY.generators)
    assert helpers.canonical_relator_set(p) == helpers.canonical_relator_set(A_DISPLAY)
    assert helpers.isomorphic_by_renaming(p, A_DISPLAY)


def test_presentation_matching_detects_renamings_and_mismatches():
    scrambled = FinitePresentation(
        tuple(g.replace("x", "q").replace("y", "x").replace("q", "y")
              for g in A_DISPLAY.generators),
        tuple(
            tuple((g.replace("x", "q").replace("y", "x").replace("q", "y"), e)
                  for g, e in rel)
            for rel in A_DISPLAY.relators
        ),
    )
    assert helpers.isomorphic_by_renaming(presentation(builtin("A")), scrambled)
    assert not helpers.isomorphic_by_renaming(
        presentation(builtin("A")), presentation(builtin("eps3"))
    )


def test_eps3_presentation():
    p = presentation(builtin("eps3"))
    assert p.generators == ("x1", "y1", "z1")
    assert p.relators == ((("x1", 1), ("y1", 1), ("z1", 1)),)
    simplified = tietze_simplify(p)
    # free of rank 2
    assert len(simplified.generators) == 2 and simplified.relators == ()


def test_outer_vertex_is_redundant_for_a():
    p = presentation(builtin("A"), include_outer_vertex=True)
    assert len(p.relators) == 8
    outer = p.relators[-1]
    assert {g for g, _ in outer} == {"x3", "y3", "z3"}


def test_vertex_relation_order_follows_boundary():
    d = from_braid(3, [(1, "l", 1)])  # outer order (2, 1, 3)
    p = presentation(d, include_outer_vertex=True)
    outer = p.relators[-1]
    # outer order (2, 1, 3) rotated to start at strand 1's outer arc;
    # strand 1 crossed over (one arc), strand 2 under (two arcs)
    assert [g for g, _ in outer] == ["x1", "z1", "y2"]


def test_undeclared_generator_rejected():
    with pytest.raises(ValueError, match="undeclared"):
        FinitePresentation(("a",), ((("b", 1),),))
    with pytest.raises(ValueError, match="exponent"):
        FinitePresentation(("a",), ((("a", 2),),))


@pytest.mark.parametrize("e", [True, 1.0])
def test_exponent_that_is_not_an_int_is_refused(e):
    with pytest.raises(ValueError, match="exponent"):
        FinitePresentation(("a",), ((("a", e),),))


def test_tietze_preserves_abelianization_on_a():
    p = presentation(builtin("A"))
    q = tietze_simplify(p)
    assert len(q.generators) < len(p.generators)
    assert abelianization(p) == abelianization(q)


@settings(max_examples=300, deadline=None)
@given(helpers.presentations())
# Equal candidate keys in two relators: the earlier relator is consumed.
@example(FinitePresentation(("x1", "y1", "z1"), (
    (("y1", 1), ("x1", 1), ("y1", 1)), (("z1", 1), ("x1", -1), ("z1", 1)))))
def test_tietze_matches_rescan_oracle(p):
    q = tietze_simplify(p)
    assert q == helpers.tietze_rescan_oracle(p)
    # The output skips the constructor's checks; they would pass.
    assert FinitePresentation(q.generators, q.relators) == q


def _benchmark_simplify_words():
    """The words ``present --simplify`` runs in the block-words benchmark.

    Read from the benchmark's own generator, seeds 1-10.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    words = set()
    for seed in range(1, 11):
        for case in workloads.build("block-words", seed):
            if "--simplify" in case.argv:
                words.add(case.argv[case.argv.index("--expr") + 1])
    return sorted(words)


def test_tietze_matches_rescan_oracle_on_benchmark_words():
    words = _benchmark_simplify_words()
    assert "A Ab As Abs A Ab As Abs" in words and len(words) > 10
    for word in words:
        p = presentation(concat(*map(builtin, word.split())))
        q = tietze_simplify(p)
        assert q == helpers.tietze_rescan_oracle(p), word
        assert FinitePresentation(q.generators, q.relators) == q, word


def test_tietze_output_of_two_prefix_copies_is_pinned():
    q = tietze_simplify(presentation(concat(*map(builtin, ["A", "Ab", "As", "Abs"] * 2))))
    assert (len(q.generators), len(q.relators)) == (11, 9)
    assert sum(map(len, q.relators)) == 170_293
    assert hashlib.sha256(format_presentation(q).encode()).hexdigest() == (
        "4d90d99ae9bf9a061404747d53ac6806b248577ce1574455313ac0b7e699d451")


def test_abelianizations():
    # tangle complement of A: three meridians with one vertex relation
    assert abelianization(presentation(builtin("A"))) == AbelianInvariants(2, ())
    assert abelianization(presentation(builtin("eps3"))) == AbelianInvariants(2, ())
    # direct Smith-normal-form checks
    p = FinitePresentation(("a", "b"), ((("a", 1),) * 4, (("b", 1),) * 6))
    assert abelianization(p) == AbelianInvariants(0, (2, 12))
    p = FinitePresentation(("a", "b"), ((("a", 1), ("b", 1), ("a", 1), ("b", 1)),))
    assert abelianization(p) == AbelianInvariants(1, (2,))
    assert abelianization(FinitePresentation((), ())) == AbelianInvariants(0, ())


def _matrix_presentation(mat):
    """One generator per column; row i is the relator g0^m[i][0] g1^m[i][1] ..."""
    gens = tuple(f"g{j}" for j in range(len(mat[0])))
    return FinitePresentation(gens, tuple(
        tuple((g, 1 if v > 0 else -1) for g, v in zip(gens, row) for _ in range(abs(v)))
        for row in mat
    ))


def test_invariant_factor_oracle():
    assert helpers.invariant_factors([[4, 0], [0, 6]]) == [2, 12]
    assert helpers.invariant_factors([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]
    assert helpers.invariant_factors([[0, 0], [0, 0]]) == []
    assert helpers.invariant_factors([[1, 2], [2, 4]]) == [1]


def test_coefficient_blowup_matrix_abelianizes():
    """A dense least-entry elimination ran out of time on this matrix: its
    entries passed 400 bits by the fourth pivot.  It presents the trivial
    group abelianized."""
    mat = [
        [1, 3, 0, 4, 4, 6],
        [-6, 3, 1, 2, -2, -2],
        [1, 0, 2, 2, 6, 1],
        [1, 3, 4, -6, 0, 2],
        [-6, 4, -2, 4, -1, 0],
        [4, -1, 2, -1, 2, -6],
        [6, 6, 2, 1, -6, 0],
    ]
    assert abelianization(_matrix_presentation(mat)) == AbelianInvariants(0, ())
    assert helpers.invariant_factors(mat) == [1] * 6


@settings(max_examples=300, deadline=None)
@given(helpers.integer_matrices())
@example([[0]])
@example([[3, 0, -6]])
@example([[4], [-6], [0]])
@example([[0, 0, 0], [2, 0, 4], [0, 0, 0]])
@example([[12, 0], [0, 8]])
def test_abelianization_matches_minor_oracle(mat):
    factors = helpers.invariant_factors(mat)
    expected = AbelianInvariants(len(mat[0]) - len(factors),
                                 tuple(f for f in factors if f > 1))
    assert abelianization(_matrix_presentation(mat)) == expected


def test_long_block_word_has_free_abelian_rank_2():
    """Every 3-strand block word has H1 = Z^2, however long."""
    rng = random.Random(200)
    names = ("A", "Ab", "As", "Abs", "dirac", "eps3")
    word = [rng.choice(names) for _ in range(200)]
    p = presentation(reduce(concat, map(builtin, word)))
    crossings = 6 * sum(name != "eps3" for name in word)
    assert (len(p.generators), len(p.relators)) == (3 + crossings, crossings + 1)
    assert abelianization(p) == AbelianInvariants(2, ())


def test_format_presentation_capital_inverse():
    p = FinitePresentation(("x1", "y1"), ((("x1", 1), ("y1", -1)),))
    assert format_presentation(p) == "gens: x1,y1\nx1 Y1"


@settings(max_examples=200, deadline=None)
@given(helpers.presentations())
def test_format_presentation_matches_letter_by_letter(p):
    lines = ["gens: " + ",".join(p.generators)]
    lines.extend(" ".join(g if e == 1 else g[0].upper() + g[1:] for g, e in rel)
                 for rel in p.relators)
    assert format_presentation(p) == "\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(helpers.braid_diagrams())
def test_braid_complements_are_free(d):
    """A radially monotone diagram presents a free group of rank n-1.

    Verified through two invariants: the abelianization is free of rank
    n-1, and the total number of homomorphisms into Sym(3) is
    6^(n-1), the free-group count.  Tietze simplification must preserve
    both.
    """
    from borrays.homcount import count_total

    p = presentation(d)
    # presentation skips the constructor's checks; they would pass.
    assert FinitePresentation(p.generators, p.relators) == p
    q = tietze_simplify(p)
    rank = d.n_strands - 1
    assert abelianization(p) == AbelianInvariants(rank, ())
    assert abelianization(q) == AbelianInvariants(rank, ())
    assert count_total(p, 3) == 6 ** rank
    assert count_total(q, 3) == 6 ** rank


def test_mirror_preserves_abelianization():
    for name in ("A", "dirac"):
        d = builtin(name)
        assert abelianization(presentation(bar(d))) == abelianization(presentation(d))


def test_concat_presentation_generator_count():
    a = builtin("A")
    p = presentation(concat(a, a))
    # 12 crossings -> 12 conjugation relators + vertex; 5 arcs per strand
    assert len(p.generators) == 15
    assert len(p.relators) == 13
