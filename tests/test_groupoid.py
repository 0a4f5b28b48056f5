"""The groupoid of block diffeomorphism types and its 96/288 partition."""

import pytest

from borrays.errors import IntegrityError
from borrays.groupoid import (
    A3,
    ALL_PERMS,
    C3,
    DiffeoType,
    all_types,
    cell_grid,
    excluded_closure,
    identity_type,
    realized_closure,
    seed_types,
    type_compose,
    type_inverse,
)
from borrays.labels import A, AB, ABS, AS, ALL_LABELS


@pytest.fixture(scope="module")
def realized():
    return realized_closure()


@pytest.fixture(scope="module")
def excluded(realized):
    return excluded_closure(realized)


def test_sizes_and_partition(realized, excluded):
    assert len(realized) == 96
    assert len(excluded) == 288
    assert not realized & excluded
    assert realized | excluded == all_types()
    assert len(all_types()) == 384


def test_realized_is_a_groupoid(realized):
    for b in ALL_LABELS:
        assert identity_type(b) in realized
    assert {type_inverse(t) for t in realized} == realized
    for alpha in realized:
        for beta in realized:
            comp = type_compose(beta, alpha)
            if comp is not None:
                assert comp in realized


def test_seed_types_realized(realized):
    assert seed_types() <= realized


def test_transposition_self_maps_of_a(realized):
    # a boundary-swapping self-map of A exchanging components 1 and 2
    # exists (compose reflection, half-turn, and inversion) ...
    assert DiffeoType(A, A, 1, -1, (2, 1, 3)) in realized
    # ... but no fully positive self-map of A induces a transposition
    assert DiffeoType(A, A, 1, 1, (2, 1, 3)) not in realized


def test_type_inverse_and_compose():
    t = DiffeoType(A, AB, -1, 1, (2, 3, 1))
    assert type_inverse(t) == DiffeoType(AB, A, -1, 1, (3, 1, 2))
    assert type_inverse(type_inverse(t)) == t
    u = DiffeoType(AB, AS, 1, -1, (1, 3, 2))
    comp = type_compose(u, t)
    # (u o t)(1) = u(2) = 3, etc.
    assert comp == DiffeoType(A, AS, -1, -1, (3, 2, 1))
    assert type_compose(t, u) is None  # codomain AS != domain A
    inv = type_compose(type_inverse(t), t)
    assert inv == identity_type(A)


def test_compose_inverse_properties(realized):
    for t in realized:
        assert type_compose(type_inverse(t), t) == identity_type(t.domain)
        assert type_compose(t, type_inverse(t)) == identity_type(t.codomain)


# Expected realized cells: rows (codomain, boundary), columns (domain,
# orientation), both in block order A, Ab, As, Abs with +1 before -1.
# "A3" = even permutations, "C" = transpositions, "" = empty.
EXPECTED_GRID = [
    ["A3", "",   "",   "A3", "",   "C",  "C",  ""],    # A  +1
    ["C",  "",   "",   "C",  "",   "A3", "A3", ""],    # A  -1
    ["",   "A3", "A3", "",   "C",  "",   "",   "C"],   # Ab +1
    ["",   "C",  "C",  "",   "A3", "",   "",   "A3"],  # Ab -1
    ["",   "C",  "C",  "",   "A3", "",   "",   "A3"],  # As +1
    ["",   "A3", "A3", "",   "C",  "",   "",   "C"],   # As -1
    ["C",  "",   "",   "C",  "",   "A3", "A3", ""],    # Abs +1
    ["A3", "",   "",   "A3", "",   "C",  "C",  ""],    # Abs -1
]


def test_cell_grid_matches_expected(realized):
    grid = cell_grid(realized)
    names = {frozenset(): "", A3: "A3", C3: "C"}
    rows = [(c, b) for c in ALL_LABELS for b in (1, -1)]
    cols = [(d, e) for d in ALL_LABELS for e in (1, -1)]
    actual = [
        [names[grid[(c, b, d, e)]] for d, e in cols] for c, b in rows
    ]
    assert actual == EXPECTED_GRID


def test_every_row_and_column_has_exactly_four_cells(realized):
    # each block pairs with every block in exactly one (orientation,
    # boundary)-signed way up to the three-element cell
    grid = cell_grid(realized)
    for c in ALL_LABELS:
        for b in (1, -1):
            filled = [
                (d, e) for d in ALL_LABELS for e in (1, -1)
                if grid[(c, b, d, e)]
            ]
            assert len(filled) == 4
            assert {d for d, _ in filled} == set(ALL_LABELS)
            # within a fixed orientation, exactly two domains appear
            for e in (1, -1):
                assert sum(1 for _, e2 in filled if e2 == e) == 2


def test_cells_hold_three_perms_each(realized):
    grid = cell_grid(realized)
    assert sum(len(v) for v in grid.values()) == 96
    for v in grid.values():
        assert v in (frozenset(), A3, C3)


def test_excluded_closed_under_inverse_and_realized_composition(
        realized, excluded):
    assert {type_inverse(t) for t in excluded} == excluded
    for t in excluded:
        for r in realized:
            for comp in (type_compose(t, r), type_compose(r, t)):
                if comp is not None:
                    assert comp in excluded


def test_boolean_characters_are_refused():
    with pytest.raises(ValueError, match="orientation"):
        DiffeoType(A, A, True, 1, (1, 2, 3))
    with pytest.raises(ValueError, match="boundary"):
        DiffeoType(A, A, 1, True, (1, 2, 3))


def test_excluded_closure_detects_overlap():
    bogus = realized_closure() | {DiffeoType(A, AB, 1, 1, (1, 2, 3))}
    with pytest.raises(IntegrityError):
        excluded_closure(bogus)


def test_type_validation():
    with pytest.raises(ValueError):
        DiffeoType(A, A, 2, 1, (1, 2, 3))
    with pytest.raises(ValueError):
        DiffeoType(A, A, 1, 0, (1, 2, 3))
    with pytest.raises(ValueError):
        DiffeoType(A, A, 1, 1, (1, 1, 3))
    assert len(ALL_PERMS) == 6 and A3 | C3 == set(ALL_PERMS)
