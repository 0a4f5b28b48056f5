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
from collections import Counter, deque
from dataclasses import dataclass
from heapq import heappop, heappush
from math import gcd
from operator import itemgetter

from .diagrams import UNDER, AnnularDiagram, _require_valid, is_sign

__all__ = [
    "FinitePresentation",
    "AbelianInvariants",
    "free_reduce",
    "cyclic_reduce",
    "invert_word",
    "presentation",
    "tietze_simplify",
    "MAX_TIETZE_LETTERS",
    "abelianization",
    "strand_letter",
    "format_presentation",
]

# Strand letters follow the x, y, z naming for 3-strand blocks.
_LETTERS = "xyz" + string.ascii_lowercase.replace("x", "").replace("y", "").replace("z", "")


def strand_letter(k: int) -> str:
    """Letters naming the arcs of strand k (1-based), distinct for each k.

    Strands 1..26 get one letter each; past that, k is written in
    bijective base 26 over the same letters: xx, xy, ..., ww, xxx, ...
    """
    name = ""
    while k:
        k, r = divmod(k - 1, len(_LETTERS))
        name = _LETTERS[r] + name
    return name


@dataclass(frozen=True)
class FinitePresentation:
    """Generators and freely reduced relator words.

    A relator is a tuple of letters ``(generator, +-1)``.  Generator
    names are distinct.  The constructor checks both, while ``presentation``
    and ``tietze_simplify`` build from checked parts without checking.
    """

    generators: tuple
    relators: tuple

    def __post_init__(self):
        declared = set(self.generators)
        if len(declared) < len(self.generators):
            (g, _), = Counter(self.generators).most_common(1)
            raise ValueError(f"generator {g!r} is declared more than once")
        for rel in self.relators:
            for g, e in rel:
                if g not in declared:
                    raise ValueError(f"relator uses undeclared generator {g!r}")
                if not is_sign(e):
                    raise ValueError(f"bad exponent {e} on {g!r}")


def _from_checked(generators, relators):
    """A FinitePresentation whose names and letters are known to be valid."""
    p = object.__new__(FinitePresentation)
    p.__dict__.update(generators=generators, relators=relators)
    return p


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


def _strip_ends(word):
    """A freely reduced ``word`` without its cancelling end pairs, as a
    tuple; the ends move inward by index, so this is linear."""
    lo, hi = 0, len(word) - 1
    while lo < hi and word[lo][0] == word[hi][0] and word[lo][1] == -word[hi][1]:
        lo += 1
        hi -= 1
    return tuple(word[lo:hi + 1])


def cyclic_reduce(word):
    return _strip_ends(free_reduce(word))


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
    return _from_checked(tuple(gens), tuple(relators))


# Tietze elimination can grow a presentation exponentially: (A Ab As Abs)^2
# simplifies to about 170k letters, and three copies pass this cap.  Past
# this many letters held at once, simplification is an input error rather
# than a MemoryError.
MAX_TIETZE_LETTERS = 5_000_000


def _check_letters(total):
    if total > MAX_TIETZE_LETTERS:
        raise ValueError(
            f"Tietze simplification would hold more than {MAX_TIETZE_LETTERS} "
            "relator letters"
        )


def _letter_positions(word, g):
    """Ascending positions of generator g's letters in word."""
    found = []
    for letter in ((g, 1), (g, -1)):
        i = -1
        try:
            while True:
                i = word.index(letter, i + 1)
                found.append(i)
        except ValueError:
            pass
    found.sort()
    return found


def _splice(out, word):
    """Append freely reduced ``word`` to freely reduced ``out`` in place.

    Only the junction can cancel, so ``out`` stays freely reduced.
    """
    j, n = 0, len(word)
    while j < n and out and out[-1][0] == word[j][0] and out[-1][1] == -word[j][1]:
        out.pop()
        j += 1
    out.extend(word[j:])


def tietze_simplify(p: FinitePresentation) -> FinitePresentation:
    """Eliminate generators occurring exactly once in some relator.

    Each elimination solves that relator for the generator and substitutes
    the solution everywhere, so the presented group is unchanged.  Shortest
    relators are consumed first, ties broken by generator name and then by
    the earliest relator, which makes the output deterministic.

    An elimination touches only the relators that hold its generator.  An
    occurrence index maps each generator to the relators holding it, and
    each relator keeps its letter counts.  The candidates ``(length,
    generator, relator)`` sit in a heap; a rewritten relator gets a new
    version and pushes its own candidates, and a popped candidate of an
    older version is skipped, so the heap yields the same least candidate
    that a rescan of every relator would.  A rewrite splices the solution
    and the runs between its generator's occurrences in as whole words and
    cancels only at the junctions: each piece is freely reduced, and a
    word's free reduction is unique, so the result is the relator's
    ``cyclic_reduce`` after substitution.

    Raises ValueError once the relators being held would exceed
    MAX_TIETZE_LETTERS letters.
    """
    words = {}  # relator id -> word; ids keep the relators' input order
    for r in p.relators:
        r = cyclic_reduce(r)
        if r:
            words[len(words)] = r
    total = sum(map(len, words.values()))
    _check_letters(total)
    counts, version, occ, heap = {}, {}, {}, []

    def index(rid, word):
        """Record a new or rewritten relator and push its candidates."""
        counts[rid] = c = Counter(map(itemgetter(0), word))
        version[rid] = v = version.get(rid, -1) + 1
        for g, k in c.items():
            occ.setdefault(g, set()).add(rid)
            if k == 1:
                heappush(heap, (len(word), g, rid, v))

    def unindex(rid):
        for g in counts.pop(rid):
            occ[g].discard(rid)

    for rid, word in words.items():
        index(rid, word)
    eliminated = set()
    while heap:
        _, g, ri, v = heappop(heap)
        if version.get(ri) != v:
            continue
        rel = words.pop(ri)
        unindex(ri)
        del version[ri]
        total -= len(rel)
        pos = _letter_positions(rel, g)[0]
        e = rel[pos][1]
        # before * g^e * after = 1, so g^e = (after * before)^-1.  The
        # rotation is freely reduced because rel is cyclically reduced.
        rotation = rel[pos + 1:] + rel[:pos]
        sol = rotation if e == -1 else invert_word(rotation)
        sol_inv = invert_word(sol)
        eliminated.add(g)
        for rid in sorted(occ[g]):
            old = words[rid]
            unindex(rid)
            base = total - len(old)
            out, start = [], 0
            for i in _letter_positions(old, g):
                _splice(out, old[start:i])
                _splice(out, sol if old[i][1] == 1 else sol_inv)
                _check_letters(base + len(out))
                start = i + 1
            _splice(out, old[start:])
            _check_letters(base + len(out))
            word = _strip_ends(out)
            total = base + len(word)
            if word:
                words[rid] = word
                index(rid, word)
            else:
                del words[rid], version[rid]
        del occ[g]
    gens = tuple(g for g in p.generators if g not in eliminated)
    return _from_checked(gens, tuple(words.values()))


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
    token = {}
    for g in p.generators:
        token[g, 1] = g
        token[g, -1] = g[:1].upper() + g[1:]
    lines = ["gens: " + ",".join(p.generators)]
    lines.extend(" ".join(map(token.__getitem__, rel)) for rel in p.relators)
    return "\n".join(lines)
