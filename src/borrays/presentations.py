"""Fundamental-group presentations of tangle complements in thickened spheres.

One generator per diagram arc (a strand segment between under-passages),
one conjugation relation per crossing, plus the inner vertex relation: the
product of the inner-boundary arc generators, in counterclockwise boundary
order starting from strand 1, is trivial.

``abelianization`` reads H1 off the relators' exponent sums by a sparse
integer Smith normal form: each crossing row holds just ``before - after``,
so elimination with unit pivots stays sparse and takes about linear time
in the length of a block word.
"""

import string
from collections import deque
from dataclasses import dataclass
from math import gcd

from .diagrams import UNDER, AnnularDiagram, _require_valid

__all__ = [
    "FinitePresentation",
    "AbelianInvariants",
    "free_reduce",
    "cyclic_reduce",
    "invert_word",
    "presentation",
    "tietze_simplify",
    "abelianization",
    "strand_letter",
    "format_presentation",
]

# Strand letters follow the x, y, z naming for 3-strand blocks, then wrap.
_LETTERS = "xyz" + string.ascii_lowercase.replace("x", "").replace("y", "").replace("z", "")


def strand_letter(k: int) -> str:
    """Letter used to name the arcs of strand k (1-based)."""
    return _LETTERS[(k - 1) % len(_LETTERS)]


@dataclass(frozen=True)
class FinitePresentation:
    """Generators and freely reduced relator words.

    A relator is a tuple of letters ``(generator, +-1)``.
    """

    generators: tuple
    relators: tuple

    def __post_init__(self):
        declared = set(self.generators)
        for rel in self.relators:
            for g, e in rel:
                if g not in declared:
                    raise ValueError(f"relator uses undeclared generator {g!r}")
                if e not in (1, -1):
                    raise ValueError(f"bad exponent {e} on {g!r}")


@dataclass(frozen=True)
class AbelianInvariants:
    rank: int
    torsion: tuple  # divisibility chain of integers > 1

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"torsion {self.torsion} is not a divisor chain")


def free_reduce(word):
    out = []
    for g, e in word:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def cyclic_reduce(word):
    word = list(free_reduce(word))
    while len(word) >= 2 and word[0][0] == word[-1][0] and word[0][1] == -word[-1][1]:
        word = word[1:-1]
    return tuple(word)


def invert_word(word):
    return tuple((g, -e) for g, e in reversed(word))


def _arcs(strand):
    """Split a passage list into arcs at its under-passages.

    Returns (number of arcs, arc index of each passage position 0-based,
    list of (under passage position, arc before, arc after)).
    """
    arc = 1
    arc_of = []
    unders = []
    for pos, p in enumerate(strand):
        if p.role == UNDER:
            unders.append((pos, arc, arc + 1))
            arc += 1
            arc_of.append(None)  # an under-passage belongs to no single arc
        else:
            arc_of.append(arc)
    return arc, arc_of, unders


def presentation(d: AnnularDiagram, include_outer_vertex: bool = False) -> FinitePresentation:
    """Wirtinger-style presentation of the block's tangle complement group."""
    _require_valid(d)

    def gen(strand, arc):
        return f"{strand_letter(strand)}{arc}"

    gens = []
    n_arcs = {}
    arc_of_pos = {}
    unders_of = {}
    for k in range(1, d.n_strands + 1):
        n, arc_of, unders = _arcs(d.strand(k))
        n_arcs[k] = n
        arc_of_pos[k] = arc_of
        unders_of[k] = unders
        gens.extend(gen(k, a) for a in range(1, n + 1))

    # Arc passing over each crossing.
    over_arc = {}
    for k in range(1, d.n_strands + 1):
        for pos, p in enumerate(d.strand(k)):
            if p.role != UNDER:
                over_arc[p.crossing] = gen(k, arc_of_pos[k][pos])

    relators = []
    for k in range(1, d.n_strands + 1):
        for pos, before, after in unders_of[k]:
            c = d.strand(k)[pos].crossing
            over = over_arc[c]
            s = d.signs[c]
            # sign +1: out = over^-1 * in * over
            relators.append(
                free_reduce(
                    [(over, -s), (gen(k, before), 1), (over, s), (gen(k, after), -1)]
                )
            )

    def vertex(order, arc_index):
        order = list(order)
        i = order.index(1)
        order = order[i:] + order[:i]
        return tuple((gen(k, arc_index(k)), 1) for k in order)

    relators.append(vertex(d.inner_order, lambda k: 1))
    if include_outer_vertex:
        relators.append(vertex(d.outer_order, lambda k: n_arcs[k]))
    return FinitePresentation(tuple(gens), tuple(relators))


def tietze_simplify(p: FinitePresentation) -> FinitePresentation:
    """Eliminate generators occurring exactly once in some relator.

    Each elimination solves that relator for the generator and substitutes
    the solution everywhere, so the presented group is unchanged.  Shortest
    relators are consumed first, ties broken by generator name, which makes
    the output deterministic.
    """
    gens = list(p.generators)
    relators = [cyclic_reduce(r) for r in p.relators if cyclic_reduce(r)]

    while True:
        candidate = None  # (len, gen, relator index, position)
        for ri, rel in enumerate(relators):
            counts = {}
            for g, _ in rel:
                counts[g] = counts.get(g, 0) + 1
            for pos, (g, _) in enumerate(rel):
                if counts[g] == 1:
                    key = (len(rel), g)
                    if candidate is None or key < candidate[0]:
                        candidate = (key, ri, pos)
        if candidate is None:
            break
        _, ri, pos = candidate
        rel = relators[ri]
        g, e = rel[pos]
        before, after = rel[:pos], rel[pos + 1 :]
        # before * g^e * after = 1  =>  g^e = before^-1 * after^-1
        sol = free_reduce(invert_word(before) + invert_word(after))
        if e == -1:
            sol = invert_word(sol)
        gens.remove(g)
        del relators[ri]
        new_relators = []
        for rel2 in relators:
            out = []
            for g2, e2 in rel2:
                if g2 == g:
                    out.extend(sol if e2 == 1 else invert_word(sol))
                else:
                    out.append((g2, e2))
            reduced = cyclic_reduce(out)
            if reduced:
                new_relators.append(reduced)
        relators = new_relators
    return FinitePresentation(tuple(gens), tuple(relators))


def _nearest_quotient(a, p):
    """The integer nearest a / p, so that |a - q * p| <= |p| / 2."""
    return (2 * a + p) // (2 * p)


def _smith_diagonal(rows):
    """Nonzero Smith-normal-form diagonal of a sparse integer matrix.

    Each row is a dict ``{column: entry}`` holding its nonzero entries.
    The result is the divisor chain of nonzero invariant factors, so its
    length is the matrix rank.

    Sparse elimination: a unit pivot is taken when one exists, otherwise
    an entry of least absolute value.  Row operations clear the pivot's
    column and touch only the rows in that column; then the pivot row is
    reduced modulo the pivot, a column operation that changes that row
    alone because the column is clear.  A nonzero remainder is strictly
    smaller than the pivot and becomes the next pivot, so this
    terminates.  Remainders are taken nearest to zero, which keeps the
    entries small.
    """
    rows = {i: dict(row) for i, row in enumerate(rows) if row}
    col_rows = {}  # column -> indices of the rows with a nonzero there
    for i, row in rows.items():
        for c in row:
            col_rows.setdefault(c, set()).add(i)

    def set_entry(i, c, v):
        row = rows[i]
        if v:
            if c not in row:
                col_rows[c].add(i)
            row[c] = v
        elif c in row:
            del row[c]
            col_rows[c].discard(i)

    def size(entry):
        i, c = entry
        return abs(rows[i][c])

    # Rows not yet looked at for a unit pivot, in input order.  A row with
    # no unit when its turn comes waits for the least-entry scan.
    unvisited = deque(rows)
    diag = []
    while rows:
        pivot = None
        while unvisited and pivot is None:
            i = unvisited.popleft()
            if i in rows:
                units = [c for c, v in rows[i].items() if v in (1, -1)]
                if units:
                    pivot = (i, min(units, key=lambda c: len(col_rows[c])))
        if pivot is None:
            pivot = min(((i, c) for i, row in rows.items() for c in row), key=size)
        while True:
            i, c = pivot
            row = rows[i]
            p = row[c]
            # Row operations: clear the rest of column c.
            left = []
            for k in list(col_rows[c]):
                if k == i:
                    continue
                q = _nearest_quotient(rows[k][c], p)
                for j, v in row.items():
                    set_entry(k, j, rows[k].get(j, 0) - q * v)
                if c in rows[k]:
                    left.append(k)
                elif not rows[k]:
                    del rows[k]
            if left:
                pivot = min(((k, c) for k in left), key=size)
                continue
            # Column operations: reduce the rest of row i modulo p.
            for j, v in list(row.items()):
                if j != c:
                    set_entry(i, j, v - _nearest_quotient(v, p) * p)
            if len(row) == 1:
                diag.append(abs(p))
                del rows[i]
                col_rows[c].discard(i)
                break
            pivot = min(((i, j) for j in row), key=size)
    # enforce the divisibility chain; sorted, the units at the front are
    # already in place
    diag.sort()
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a:
                g = gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return diag


def abelianization(p: FinitePresentation) -> AbelianInvariants:
    """Rank and torsion of the abelianized group (sparse integer Smith normal form)."""
    index = {g: i for i, g in enumerate(p.generators)}
    rows = []
    for rel in p.relators:
        row = {}  # column -> exponent sum, zeros dropped
        for g, e in rel:
            j = index[g]
            row[j] = row.get(j, 0) + e
        rows.append({j: v for j, v in row.items() if v})
    diag = _smith_diagonal(rows)
    rank = len(index) - len(diag)
    return AbelianInvariants(rank, tuple(d for d in diag if d > 1))


def format_presentation(p: FinitePresentation) -> str:
    """Plain-text form: a ``gens:`` line then one relator word per line.

    A capitalized generator token denotes its inverse.
    """
    lines = ["gens: " + ",".join(p.generators)]
    for rel in p.relators:
        lines.append(
            " ".join(g if e == 1 else g[0].upper() + g[1:] for g, e in rel)
        )
    return "\n".join(lines)
