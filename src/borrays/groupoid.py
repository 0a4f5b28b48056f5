"""The groupoid of block diffeomorphism types.

A diffeomorphism between blocks in {A, Ab, As, Abs} is summarized by a
5-tuple type: domain, codomain, orientation character (+-1), boundary
character (+-1), and the induced permutation of the three tangle
components.  There are 4*4*2*2*6 = 384 candidate types.  The types of
explicitly known diffeomorphisms (identities, the order-three rotation,
the two reflections, the inversion, and the half-turn) and their
inverses are 24 generators.  Closing them under composition yields the
96 realizable types; the remaining 288 are excluded by a complementary
closure seeded with the types ruled out by homomorphism counts.  Both
closures follow one rule: a worklist that adds each new type's inverse
and its compositions on the left with the six generators whose domain
is its codomain.
"""

from dataclasses import dataclass
from itertools import permutations

from .diagrams import is_sign
from .errors import IntegrityError
from .labels import ALL_LABELS, BlockLabel

__all__ = [
    "DiffeoType",
    "IDENTITY_PERM",
    "ALL_PERMS",
    "A3",
    "C3",
    "CELL_NAMES",
    "all_types",
    "type_inverse",
    "type_compose",
    "seed_types",
    "realized_closure",
    "excluded_closure",
    "cell_grid",
    "format_table",
]

#: Permutations of {1, 2, 3} as image tuples: perm[i-1] is the image of i.
IDENTITY_PERM = (1, 2, 3)
ALL_PERMS = tuple(sorted(permutations((1, 2, 3))))

#: The even permutations, and the coset of transpositions.
A3 = frozenset({(1, 2, 3), (2, 3, 1), (3, 1, 2)})
C3 = frozenset({(2, 1, 3), (1, 3, 2), (3, 2, 1)})

#: How a cell of the realized grid is printed: blank, "A3" or "C".
CELL_NAMES = {frozenset(): "", A3: "A3", C3: "C"}

ROTATION = (2, 3, 1)       # 1 -> 2 -> 3 -> 1
HALF_TURN = (1, 3, 2)      # swaps components 2 and 3


def _perm_compose(p, q):
    """(p o q)(i) = p(q(i)), permutations acting on {1, 2, 3}."""
    return tuple(p[q[i] - 1] for i in range(3))


def _perm_inverse(p):
    out = [0, 0, 0]
    for i, x in enumerate(p):
        out[x - 1] = i + 1
    return tuple(out)


@dataclass(frozen=True)
class DiffeoType:
    """Type of a block diffeomorphism."""

    domain: BlockLabel
    codomain: BlockLabel
    orientation: int
    boundary: int
    perm: tuple

    def __post_init__(self):
        if not is_sign(self.orientation):
            raise ValueError(f"orientation must be +-1, got {self.orientation}")
        if not is_sign(self.boundary):
            raise ValueError(f"boundary must be +-1, got {self.boundary}")
        if self.perm not in ALL_PERMS:
            raise ValueError(f"perm must be an image tuple on 1..3, got {self.perm}")

    def __repr__(self):
        return (f"({self.domain.name}, {self.codomain.name}, "
                f"{'+1' if self.orientation > 0 else '-1'}, "
                f"{'+1' if self.boundary > 0 else '-1'}, {self.perm})")


def all_types():
    """The full set of 384 candidate types."""
    return {
        DiffeoType(d, c, e, b, p)
        for d in ALL_LABELS
        for c in ALL_LABELS
        for e in (1, -1)
        for b in (1, -1)
        for p in ALL_PERMS
    }


def type_inverse(t: DiffeoType) -> DiffeoType:
    """Swap domain and codomain and invert the permutation."""
    return DiffeoType(t.codomain, t.domain, t.orientation, t.boundary,
                      _perm_inverse(t.perm))


def type_compose(beta: DiffeoType, alpha: DiffeoType):
    """Type of the composite (beta after alpha), or None if not composable.

    Defined only when alpha's codomain is beta's domain; characters
    multiply and permutations compose right to left.
    """
    if alpha.codomain != beta.domain:
        return None
    return DiffeoType(
        alpha.domain,
        beta.codomain,
        alpha.orientation * beta.orientation,
        alpha.boundary * beta.boundary,
        _perm_compose(beta.perm, alpha.perm),
    )


def identity_type(block: BlockLabel) -> DiffeoType:
    return DiffeoType(block, block, 1, 1, IDENTITY_PERM)


def seed_types():
    """Types of the explicitly constructed diffeomorphisms.

    Identities and the order-three rotation about the radial axis exist
    for every block; reflection across the diagram plane, inversion
    across the intermediate sphere, and the half-turn about the first
    component's axis take each block ``b`` to ``b.bar()``, ``b.star()``
    and ``b.barstar()``.
    """
    seeds = set()
    for b in ALL_LABELS:
        seeds.add(identity_type(b))
        seeds.add(DiffeoType(b, b, 1, 1, ROTATION))
        seeds.add(DiffeoType(b, b.bar(), -1, 1, IDENTITY_PERM))
        seeds.add(DiffeoType(b, b.star(), -1, -1, IDENTITY_PERM))
        seeds.add(DiffeoType(b, b.barstar(), 1, 1, HALF_TURN))
    return seeds


def _generators():
    """The seed types and their inverses: 24 types."""
    seeds = seed_types()
    return seeds | {type_inverse(t) for t in seeds}


def _closure(start):
    """The smallest superset of ``start`` closed under inverse and under
    composition on the left with a generator.

    Generators are indexed by domain, so every composition formed is
    defined; each type is expanded once, when it is first added.  From
    the generators, which are closed under inverse, this gives exactly
    the composable words in them.  From any start it is also the closure
    under inverse and under composition with every realized type on
    either side: a realized r is a word g_k o ... o g_1, so r o t is k
    left steps from t, and t o r = (r^-1 o t^-1)^-1 is an inverse, the
    left steps of r^-1, and an inverse again.
    """
    by_domain = {b: [] for b in ALL_LABELS}
    for g in _generators():
        by_domain[g.domain].append(g)
    found = set(start)
    todo = list(found)
    while todo:
        t = todo.pop()
        for u in [type_inverse(t), *(type_compose(g, t)
                                     for g in by_domain[t.codomain])]:
            if u not in found:
                found.add(u)
                todo.append(u)
    return found


def realized_closure():
    """The groupoid generated by the seed types; 96 types: the closure
    of the 24 generators."""
    return _closure(_generators())


def excluded_closure(realized):
    """Close the known non-types under the two-out-of-three rule; 288 types.

    The 12 seeds are (B1, B2, +1, +1, Id) for distinct blocks B1, B2.
    Suppose such a diffeomorphism existed.  Glued to the identity on a
    copy of A, it would give a homeomorphism between the complements of
    the concatenations A B1 and A B2 that preserves each component, so
    every count of homomorphism classes into Sym(n) would agree for the
    two.  They do not:

    - A X into Sym(5), for X = A, Ab, As, Abs: 342, 342, 354 and 330
      classes, which separates every pair but {A, Ab};
    - A A against A Ab, which differ only at Sym(6): 3111 against 3255.

    If two of alpha, beta, beta o alpha are realized, so is the third;
    hence composing an excluded type with a realized one, on either
    side, is excluded, and the inverse of an excluded type is excluded.
    The closure of the seeds is that set (see ``_closure``).

    Raises IntegrityError if the result meets ``realized``.
    """
    excluded = _closure(
        DiffeoType(b1, b2, 1, 1, IDENTITY_PERM)
        for b1 in ALL_LABELS for b2 in ALL_LABELS if b1 != b2
    )
    overlap = excluded & set(realized)
    if overlap:
        raise IntegrityError(
            f"{len(overlap)} types both realized and excluded, e.g. "
            f"{next(iter(overlap))}"
        )
    return excluded


def cell_grid(realized):
    """Map (codomain, boundary, domain, orientation) -> realized perms.

    Every cell of the realized closure is empty, the even permutations
    A3, or the transposition coset C; IntegrityError otherwise.
    """
    grid = {}
    for c in ALL_LABELS:
        for b in (1, -1):
            for d in ALL_LABELS:
                for e in (1, -1):
                    grid[(c, b, d, e)] = frozenset()
    for t in realized:
        key = (t.codomain, t.boundary, t.domain, t.orientation)
        grid[key] = grid[key] | {t.perm}
    for key, perms in grid.items():
        if perms not in (frozenset(), A3, C3):
            raise IntegrityError(f"cell {key} holds unexpected perm set {perms}")
    return grid


def format_table(realized):
    """Render the realized types as the 8x8 codomain/domain grid.

    Rows are (codomain, boundary character); columns are (domain,
    orientation character).  Cells read A3, C, or blank.
    """
    grid = cell_grid(realized)
    col_heads = [(d, e) for d in ALL_LABELS for e in (1, -1)]
    width = 5
    lines = []
    head1 = " " * 9 + "".join(f"{d.name:^{2 * width}}" for d in ALL_LABELS)
    head2 = " " * 9 + "".join(
        f"{'+1' if e > 0 else '-1':^{width}}" for _, e in col_heads
    )
    lines.append(head1.rstrip())
    lines.append(head2.rstrip())
    for c in ALL_LABELS:
        for b in (1, -1):
            row = f"{c.name:>4} {'+1' if b > 0 else '-1':>2}  "
            row += "".join(
                f"{CELL_NAMES[grid[(c, b, d, e)]]:^{width}}" for d, e in col_heads
            )
            lines.append(row.rstrip())
    return "\n".join(lines)
