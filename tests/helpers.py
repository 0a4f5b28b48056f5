"""Shared test utilities: hypothesis strategies and oracles."""

from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm

from hypothesis import strategies as st

from borrays import diagrams
from borrays.errors import IntegrityError
from borrays.groupoid import seed_types, type_compose, type_inverse
from borrays.homcount import (
    DEFAULT_BUDGET,
    HomClassCount,
    _Budget,
    _check_degree,
    _compiled,
    _kernel,
)
from borrays.labels import ALL_LABELS
from borrays.presentations import (
    FinitePresentation,
    cyclic_reduce,
    free_reduce,
    invert_word,
)
from borrays.sequences import EventuallyPeriodicSeq, value_at

# ---------------------------------------------------------------------------
# Strategies

labels = st.sampled_from(ALL_LABELS)


def sequences(max_pre=6, max_per=6):
    return st.builds(
        EventuallyPeriodicSeq,
        st.lists(labels, min_size=0, max_size=max_pre).map(tuple),
        st.lists(labels, min_size=1, max_size=max_per).map(tuple),
    )


@st.composite
def braid_diagrams(draw, max_strands=4, max_moves=6):
    n = draw(st.integers(2, max_strands))
    moves = draw(
        st.lists(
            st.tuples(
                st.integers(1, n - 1),
                st.sampled_from(["l", "r"]),
                st.sampled_from([1, -1]),
            ),
            max_size=max_moves,
        )
    )
    return diagrams.from_braid(n, moves)


@st.composite
def geometric_braids(draw, max_strands=4, max_moves=6):
    """Braid diagrams whose crossing signs match the move geometry.

    With all strands oriented outward, a crossing where the over strand
    moves toward larger positions is positive; toward smaller, negative.
    Diagrams built this way are planar, so the outer vertex relation is
    a consequence of the other relations.
    """
    n = draw(st.integers(2, max_strands))
    moves = []
    for _ in range(draw(st.integers(0, max_moves))):
        j = draw(st.integers(1, n - 1))
        direction = draw(st.sampled_from(["l", "r"]))
        moves.append((j, direction, 1 if direction == "r" else -1))
    return diagrams.from_braid(n, moves)


@st.composite
def geometric_diagrams(draw):
    """Planar diagrams: geometric braids, builtins, or concatenations."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(geometric_braids())
    names = st.sampled_from(["A", "Ab", "As", "Abs", "eps3", "dirac"])
    d = diagrams.builtin(draw(names))
    if kind == 2:
        d = diagrams.concat(d, diagrams.builtin(draw(names)))
    return d


@st.composite
def block_diagrams(draw):
    """Braid diagrams, builtin blocks, or two-block concatenations."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(braid_diagrams())
    names = st.sampled_from(["A", "Ab", "As", "Abs", "eps3", "dirac"])
    d = diagrams.builtin(draw(names))
    if kind == 2:
        d = diagrams.concat(d, diagrams.builtin(draw(names)))
    return d


@st.composite
def presentations(draw, max_gens=6, max_relators=6, max_letters=10):
    """Presentations on 1..max_gens arc-style generators.

    Relator words are random and need not be freely reduced.
    """
    names = draw(st.permutations(("x1", "y1", "z1", "x2", "y2", "z2")))
    names = tuple(names[:draw(st.integers(1, max_gens))])
    letter = st.tuples(st.sampled_from(names), st.sampled_from([1, -1]))
    relators = draw(st.lists(st.lists(letter, max_size=max_letters).map(tuple),
                             max_size=max_relators))
    return FinitePresentation(names, tuple(relators))


@st.composite
def integer_matrices(draw, max_size=5, bound=12):
    """Integer matrices from 1x1 to max_size x max_size, entries in +-bound.

    Each row's entries share a factor drawn from 1, 2, 3, 4, 6, which
    gives torsion, and any set of rows and of columns may be zeroed.
    """
    rows = draw(st.integers(1, max_size))
    cols = draw(st.integers(1, max_size))
    mat = []
    for _ in range(rows):
        f = draw(st.sampled_from([1, 1, 2, 3, 4, 6]))
        entry = st.integers(-(bound // f), bound // f).map(lambda v, f=f: f * v)
        mat.append(draw(st.lists(entry, min_size=cols, max_size=cols)))
    zero_rows = draw(st.sets(st.integers(0, rows - 1)))
    zero_cols = draw(st.sets(st.integers(0, cols - 1)))
    return [
        [0 if i in zero_rows or j in zero_cols else v for j, v in enumerate(row)]
        for i, row in enumerate(mat)
    ]


# ---------------------------------------------------------------------------
# Oracles

def tails_equal_oracle(s, t):
    """Brute-force search over shifts, bounded as in the decision procedure."""
    ps, pt = len(s.period), len(t.period)
    window = 3 * lcm(ps, pt) + 1
    bound = len(s.preperiod) + len(t.preperiod) + 2 * lcm(ps, pt)
    for n in range(-bound, bound + 1):
        start = max(1, 1 - n, len(s.preperiod) + 1, len(t.preperiod) + 1 - n)
        if all(
            value_at(s, i) == value_at(t, i + n)
            for i in range(start, start + window)
        ):
            return True
    return False


def _primitive_root(word):
    """Shortest w with word = w^k, trying every length that divides |word|."""
    p = len(word)
    return next(word[:d] for d in range(1, p + 1)
                if p % d == 0 and word[:d] * (p // d) == word)


def tails_witness_oracle(s, t):
    """``(holds, shift, start)`` of a tail comparison, by quadratic search.

    Every rotation offset of the primitive period roots is tried letter
    by letter; the shift is the first n in 0, 1, -1, 2, -2, ... whose
    residue some matching offset gives, and start the least index from
    which both tails are periodic and aligned.
    """
    w_s, ls = _primitive_root(s.period), len(s.preperiod)
    w_t, lt = _primitive_root(t.period), len(t.preperiod)
    p = len(w_s)
    if p != len(w_t):
        return False, None, None
    residues = {
        (m - ls + lt) % p
        for m in range(p)
        if all(w_s[k] == w_t[(k + m) % p] for k in range(p))
    }
    if not residues:
        return False, None, None
    n = 0
    while n % p not in residues:
        n = -n if n > 0 else -n + 1
    return True, n, max(1, ls + 1, lt + 1 - n)


def periodic_form_achiral(s):
    """Does some tail of s read C bar(C) C bar(C) ... or C star(C) ... ?

    The paper's second characterization of achirality, by a cubic search:
    every rotation of the primitive period root, and every word C up to
    the root's length; a longer C cannot generate a shorter-period tail.
    """
    w = _primitive_root(s.period)
    p = len(w)
    for r in range(p):
        rot = w[r:] + w[:r]
        for length in range(1, p + 1):
            c = tuple(rot[i % p] for i in range(length))
            for op in ("bar", "star"):
                u = c + tuple(getattr(lab, op)() for lab in c)
                # Two periodic words agreeing this long agree forever.
                horizon = 2 * length + p
                if all(u[i % len(u)] == rot[i % p] for i in range(horizon)):
                    return True
    return False


def subgroup_counts(totals):
    """a_1..a_n, the numbers of subgroups of index 1..n, by Hall's formula.

    ``totals[k - 1]`` is h_k, the number of homomorphisms into Sym(k), and
    h_0 = 1 (M. Hall, *Subgroups of finite index in free groups*, 1949):
    a_n = h_n / (n-1)! - sum over k from 1 to n-1 of h_{n-k} a_k / (n-k)!.
    The values are exact fractions, so totals that are no group's hom
    counts can show as a non-integer or a negative.
    """
    h = [1, *totals]
    a = []
    for n in range(1, len(h)):
        a.append(Fraction(h[n], factorial(n - 1)) - sum(
            Fraction(h[n - k], factorial(n - k)) * a[k - 1] for k in range(1, n)))
    return a


def _determinant(mat):
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in mat]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def invariant_factors(mat):
    """Nonzero invariant factors of an integer matrix, from its minors.

    With d_k the gcd of all k x k minors (d_0 = 1), the k-th invariant
    factor is d_k / d_{k-1}; the factors stop at the rank, where d_k
    becomes 0.  Exponential in the size: an oracle for small matrices.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    ds = [1]
    for k in range(1, min(rows, cols) + 1):
        d = 0
        for r in combinations(range(rows), k):
            for c in combinations(range(cols), k):
                d = gcd(d, _determinant([[mat[i][j] for j in c] for i in r]))
        if not d:
            break
        ds.append(d)
    return [b // a for a, b in zip(ds, ds[1:])]


def _unreduced_search(p, n, budget):
    """(Sym(n), its homs) by one kernel call over Sym(n), nothing fixed."""
    _check_degree(n)
    budget = _Budget(budget)
    sym = _kernel.symmetric_group(n)
    homs = budget.search(_compiled(p), sym, [((), 1)], collect=True)[1][0]
    return sym, homs, budget


def unreduced_homs(p, n, budget=DEFAULT_BUDGET):
    """Every homomorphism into Sym(n), by a search with no orbit split.

    Each is a dict from generator to 0-based image tuple, in the kernel's
    order.  Degree and budget are checked as in a count.
    """
    sym, homs, _ = _unreduced_search(p, n, budget)
    return [{g: sym.perms[x] for g, x in zip(p.generators, hom)} for hom in homs]


def transposition_orbit_count(homs, group):
    """Orbits of the hom set under simultaneous conjugation by Sym(n).

    ``homs`` are tuples of element indices of the symmetric group
    ``group``.  Each orbit is closed under the adjacent transpositions
    (i, i+1), which generate Sym(n); a conjugate outside ``homs`` raises
    IntegrityError.
    """
    mul, perms = group.mul, group.perms
    n = len(perms[0])
    conjugations = []
    for i in range(n - 1):
        t = list(range(n))
        t[i], t[i + 1] = t[i + 1], t[i]
        t = perms.index(tuple(t))
        conjugations.append([mul[mul[t][x]][t] for x in range(len(perms))])
    hom_set = set(homs)
    seen = set()
    orbits = 0
    for hom in homs:
        if hom in seen:
            continue
        orbits += 1
        stack = [hom]
        seen.add(hom)
        while stack:
            cur = stack.pop()
            for by in conjugations:
                conj = tuple(map(by.__getitem__, cur))
                if conj not in seen:
                    if conj not in hom_set:
                        raise IntegrityError("hom set is not conjugation-closed")
                    seen.add(conj)
                    stack.append(conj)
    return orbits


def unreduced_class_count(p, n, budget=DEFAULT_BUDGET):
    """The class count by one unreduced search, every hom kept, and
    :func:`transposition_orbit_count`; a :class:`HomClassCount` whose
    nodes are those of the whole search tree."""
    sym, homs, budget = _unreduced_search(p, n, budget)
    return HomClassCount(n, len(homs), transposition_orbit_count(homs, sym),
                         "enumerate", budget.spent)


def conjugate_pair_oracle(rel):
    """(a, b) if a cyclic rotation of ``rel`` reads ``a^e u b^-e u^-1``
    with ``u`` one letter, or ``a^e b^-e``, else None."""
    half = len(rel) // 2
    for i in range(half if len(rel) in (2, 4) else 0):
        r = rel[i:] + rel[:i]
        u = r[1:half]
        if (r[half][1] == -r[0][1]
                and r[half + 1:] == tuple((g, -e) for g, e in reversed(u))):
            return r[0][0], r[half][0]
    return None


def greedy_order_oracle(generators, relators):
    """The branching order of a search plan, recomputed over plain sets.

    ``relators`` are words of (generator, +-1) letters.  Closing a set of
    known generators repeats one rule until nothing changes: a relator
    with exactly one unknown letter occurrence makes that letter's
    generator known.  Starting from the closure of the empty set, each
    step closes known | {g} for every unknown g, ranks g by (-relators
    newly fully known, whether no generator conjugate to g is known,
    -generators newly known, -letter occurrences of g, g), and branches
    on the least.

    Two generators are conjugate when a chain of relators joins them, each
    read as a pair by :func:`conjugate_pair_oracle`.
    """
    conjugates = {g: {g} for g in generators}
    for pair in filter(None, map(conjugate_pair_oracle, relators)):
        joined = conjugates[pair[0]] | conjugates[pair[1]]
        for g in joined:
            conjugates[g] = joined

    def close(known):
        known = set(known)
        changed = True
        while changed:
            changed = False
            for rel in relators:
                unknown = [g for g, _ in rel if g not in known]
                if len(unknown) == 1:
                    known.add(unknown[0])
                    changed = True
        return known

    def fully_known(known):
        return sum(all(g in known for g, _ in rel) for rel in relators)

    occurrences = {g: sum(h == g for rel in relators for h, _ in rel)
                   for g in generators}
    known = close(())
    order = []
    while len(known) < len(generators):
        def rank(g):
            after = close(known | {g})
            return (fully_known(known) - fully_known(after),
                    not conjugates[g] & known,
                    len(known) - len(after), -occurrences[g], g)
        g = min((g for g in generators if g not in known), key=rank)
        order.append(g)
        known = close(known | {g})
    return order


def tietze_rescan_oracle(p):
    """Tietze elimination that rescans every relator at each step.

    The least candidate (relator length, generator name) over all relators
    and positions of a singly occurring generator is eliminated, ties going
    to the earliest relator; the solution is substituted letter by letter
    into every relator, which is then cyclically reduced.
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


def groupoid_generators():
    """The seed types and their inverses: 24 types."""
    seeds = seed_types()
    return seeds | {type_inverse(t) for t in seeds}


def groupoid_closure_oracle(start):
    """The smallest superset of ``start`` closed under inverse and under
    composition on the left with a generator, by a worklist of types.

    Generators are indexed by domain, so every composition formed is
    defined, which is asserted.  From the generators this gives the
    composable words in them.  From any start it is also the closure
    under inverse and under composition with every realized type on
    either side: a realized r is a word g_k o ... o g_1, so r o t is k
    left steps from t, and t o r = (r^-1 o t^-1)^-1 is an inverse, the
    left steps of r^-1, and an inverse again.
    """
    by_domain = {b: [] for b in ALL_LABELS}
    for g in groupoid_generators():
        by_domain[g.domain].append(g)
    found = set(start)
    todo = list(found)
    while todo:
        t = todo.pop()
        for u in [type_inverse(t), *(type_compose(g, t)
                                     for g in by_domain[t.codomain])]:
            assert u is not None
            if u not in found:
                found.add(u)
                todo.append(u)
    return found


# ---------------------------------------------------------------------------
# Presentation comparison up to generator renaming

def _canonical_relator(rel):
    rel = cyclic_reduce(rel)
    variants = []
    for word in (rel, invert_word(rel)):
        for r in range(max(1, len(word))):
            variants.append(word[r:] + word[:r])
    return min(variants) if variants else ()


def canonical_relator_set(p):
    return frozenset(_canonical_relator(r) for r in p.relators)


def isomorphic_by_renaming(p1, p2):
    """Is there a generator bijection carrying p1's relator set onto p2's?

    Relators are compared as sets, each up to rotation and inversion.
    Backtracks over generators grouped by occurrence-count signature.
    """
    if len(p1.generators) != len(p2.generators):
        return False

    def signature(p):
        counts = {g: 0 for g in p.generators}
        lengths = {g: [] for g in p.generators}
        for rel in p.relators:
            for g, _ in rel:
                counts[g] += 1
                lengths[g].append(len(rel))
        return {g: (counts[g], tuple(sorted(lengths[g]))) for g in p.generators}

    sig1, sig2 = signature(p1), signature(p2)
    gens1 = sorted(p1.generators, key=lambda g: (sig1[g], g))
    target = canonical_relator_set(p2)

    def rename(mapping):
        return frozenset(
            _canonical_relator(tuple((mapping[g], e) for g, e in rel))
            for rel in p1.relators
        )

    def backtrack(i, mapping, used):
        if i == len(gens1):
            return rename(mapping) == target
        g = gens1[i]
        for h in p2.generators:
            if h in used or sig2[h] != sig1[g]:
                continue
            mapping[g] = h
            used.add(h)
            if backtrack(i + 1, mapping, used):
                return True
            del mapping[g]
            used.discard(h)
        return False

    return backtrack(0, {}, set())
