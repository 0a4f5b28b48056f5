"""The groupoid of block diffeomorphism types.

A diffeomorphism between blocks in {A, Ab, As, Abs} is summarized by a
5-tuple type: domain, codomain, orientation character (+-1), boundary
character (+-1), and the induced permutation of the three tangle
components.  There are 4*4*2*2*6 = 384 candidate types.  The types of
explicitly known diffeomorphisms (identities, the order-three rotation,
the two reflections, the inversion, and the half-turn) and their
inverses are 24 generators.  The groupoid they generate holds the 96
realizable types; the remaining 288 are excluded, as the closure of the
types ruled out by homomorphism counts.  Both closures work on codes,
the 5-tuples with blocks and perms as indices into ALL_LABELS (0 is A)
and ALL_PERMS, inside the group of types from A to A, and spread along
a spanning tree of seeds; a ``DiffeoType`` is built per type returned.
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
    "identity_type",
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


def _perm_compose(p, q):
    """(p o q)(i) = p(q(i)), permutations acting on {1, 2, 3}."""
    return tuple(p[q[i] - 1] for i in range(3))


_ID = ALL_PERMS.index(IDENTITY_PERM)
_ROTATION = ALL_PERMS.index((2, 3, 1))      # 1 -> 2 -> 3 -> 1
_HALF_TURN = ALL_PERMS.index((1, 3, 2))     # swaps components 2 and 3
_PRODUCT = [[ALL_PERMS.index(_perm_compose(p, q)) for q in ALL_PERMS]
            for p in ALL_PERMS]
_INVERSE = [row.index(_ID) for row in _PRODUCT]


@dataclass(frozen=True)
class DiffeoType:
    """Type of a block diffeomorphism."""

    domain: BlockLabel
    codomain: BlockLabel
    orientation: int
    boundary: int
    perm: tuple

    def __post_init__(self):
        for block in (self.domain, self.codomain):
            if not isinstance(block, BlockLabel):
                raise ValueError(f"a block must be a BlockLabel, got {block!r}")
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


def _compose(s, t):
    """Code of s after t; t's codomain must be s's domain."""
    return (t[0], s[1], t[2] * s[2], t[3] * s[3], _PRODUCT[s[4]][t[4]])


def _invert(t):
    return (t[1], t[0], t[2], t[3], _INVERSE[t[4]])


def _encode(t: DiffeoType):
    return (ALL_LABELS.index(t.domain), ALL_LABELS.index(t.codomain),
            t.orientation, t.boundary, ALL_PERMS.index(t.perm))


def _decode(t):
    d, c, e, b, p = t
    return DiffeoType(ALL_LABELS[d], ALL_LABELS[c], e, b, ALL_PERMS[p])


def all_types():
    """The full set of 384 candidate types."""
    return {_decode((d, c, e, b, p))
            for d in range(4) for c in range(4) for e in (1, -1)
            for b in (1, -1) for p in range(len(ALL_PERMS))}


def type_inverse(t: DiffeoType) -> DiffeoType:
    """Swap domain and codomain and invert the permutation."""
    return _decode(_invert(_encode(t)))


def type_compose(beta: DiffeoType, alpha: DiffeoType):
    """Type of the composite (beta after alpha), or None if not composable.

    Defined only when alpha's codomain is beta's domain; characters
    multiply and permutations compose right to left.
    """
    if alpha.codomain != beta.domain:
        return None
    return _decode(_compose(_encode(beta), _encode(alpha)))


def identity_type(block: BlockLabel) -> DiffeoType:
    i = ALL_LABELS.index(block)
    return _decode((i, i, 1, 1, _ID))


def seed_types():
    """Types of the explicitly constructed diffeomorphisms.

    Identities and the order-three rotation about the radial axis exist
    for every block; reflection across the diagram plane, inversion
    across the intermediate sphere, and the half-turn about the first
    component's axis take each block ``b`` to ``b.bar()``, ``b.star()``
    and ``b.barstar()``.
    """
    return {_decode(t) for t in _seed_codes()}


def _seed_codes():
    for i, b in enumerate(ALL_LABELS):
        yield from [(i, i, 1, 1, _ID), (i, i, 1, 1, _ROTATION),
                    (i, ALL_LABELS.index(b.bar()), -1, 1, _ID),
                    (i, ALL_LABELS.index(b.star()), -1, -1, _ID),
                    (i, ALL_LABELS.index(b.barstar()), 1, 1, _HALF_TURN)]


def _two_sided(start):
    """Decoded r o s o r' and r o s^-1 o r', s in the codes ``start``, r
    and r' realized: h[c] o V m V o h[d]^-1 (see the closures)."""
    seeds = list(_seed_codes())
    tree = {t[1]: t for t in seeds if t[0] == 0 and t[4] != _ROTATION}
    back = {c: _invert(h) for c, h in tree.items()}
    loops = {_compose(back[g[1]], _compose(g, tree[g[0]]))
             for s in seeds for g in (s, _invert(s))}
    group = {tree[0]}
    todo = [tree[0]]
    while todo:
        t = todo.pop()
        for u in [_compose(g, t) for g in loops]:
            if u not in group:
                group.add(u)
                todo.append(u)
    left = {_compose(v, _compose(back[g[1]], _compose(g, tree[g[0]])))
            for s in start for g in (s, _invert(s)) for v in group}
    cosets = {_compose(t, v) for t in left for v in group}
    return {_decode(_compose(tree[c], _compose(x, back[d])))
            for x in cosets for c in tree for d in tree}


def realized_closure():
    """The groupoid generated by the seed types; 96 types.

    Take the spanning tree h[A] = identity, h[c] = the seed from A to c
    for c != A.  A word g_k o ... o g_1 in the generators, g_i: d_(i-1)
    -> d_i, is h[d_k] o l_k o ... o l_1 o h[d_0]^-1 with Schreier loops
    l_i = h[d_i]^-1 o g_i o h[d_(i-1)].  So the types from d to c are the
    words h[c] o V o h[d]^-1, V the 6 products of loops (a finite group):
    16 * 6 = 96.  The loops are the seeds moved to A (see ``_two_sided``).
    """
    return _two_sided(_seed_codes())


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
    So the closure of the seeds is the set of r o s^+-1 o r', s a seed
    and r, r' realized: from d to c, h[c] o X o h[d]^-1, with X the union
    of the double cosets V m V and V m^-1 V of the seeds moved to A, m =
    h[B2]^-1 o s o h[B1].  X holds 18 types, so there are 16 * 18 = 288.

    Raises IntegrityError if the result meets ``realized``.
    """
    excluded = _two_sided((b1, b2, 1, 1, _ID)
                          for b1 in range(4) for b2 in range(4) if b1 != b2)
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
