"""Pure-Python backtracking kernel for homomorphism search.

The one search kernel behind every count in :mod:`borrays.homcount`.
Generators are assigned depth-first in a fixed order; each relator is
checked as soon as all of its generators are assigned, and a relator in
which exactly one unassigned generator occurs exactly once is solved
directly instead of searched.

Propagation is incremental: each relator tracks its number of unassigned
letter occurrences, and assigning a generator only touches the relators
it occurs in.

The candidate group comes as a *group table* (:func:`group_table`), built
once per group by the caller: it maps every element, in sorted order, to
the pair (the element's own tuple, its inverse's own tuple).  Assigning a
generator stores both, so a relator check or solve reads ``images[g]`` or
``inverses[g]`` and never inverts.  A solve composes the cyclic rotation
of the relator that starts after the open letter: ``pre · g^e · post = id``
gives ``g^e = (post · pre)^-1``, so ``g`` is the product of the rotation's
inverse letters in reverse order when ``e = +1`` and of its letters as
they are when ``e = -1``.  The solved value is then looked up in the
table, which both checks membership and returns the group's own tuples,
so collected homs share them.
"""

from .errors import BudgetExceededError

__all__ = ["group_table", "search_homs"]


def _invert(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def group_table(elements):
    """{p: (p, p^-1)} over a permutation group, keys in sorted order.

    elements: the group's permutations as 0-based image tuples, closed
    under inversion.  Both tuples of each pair are the group's own
    objects, so a key's inverse is itself a key of the table.
    """
    own = {p: p for p in elements}
    return {p: (p, own[_invert(p)]) for p in sorted(own)}


def search_homs(n, num_gens, relators, order, table, fixed, budget, collect):
    """Count (and optionally collect) relator-satisfying assignments.

    n: symmetric-group degree; permutations are 0-based image tuples.
    relators: sequences of (generator index, +-1) letters.
    order: assignment order over all generator indices.
    table: a :func:`group_table`; every generator ranges over its keys
        (a subgroup of Sym(n)), in order.
    fixed: list of (generator index, permutation) preassignments, one
        per generator at most.
    budget: cap on candidate assignments tried.
    collect: if true, also return the list of homs (tuples of permutations
        indexed by generator), in enumeration order.

    Returns (count, homs or None, nodes).
    """
    images = [None] * num_gens
    inverses = [None] * num_gens
    sat = [False] * len(relators)
    unassigned = [len(rel) for rel in relators]
    occ = [[] for _ in range(num_gens)]
    for ri, rel in enumerate(relators):
        for g, _ in rel:
            occ[g].append(ri)
    rel_gens = [tuple(g for g, _ in rel) for rel in relators]

    # A word is (first read, later reads); a read is (list, index), so it
    # sees the current assignment.  The empty word reads the identity.
    empty = ([tuple(range(n))], 0)

    def word(reads):
        return (reads[0], tuple(reads[1:])) if reads else (empty, ())

    # checks[ri]: a full relator holds iff the word of its letters but the
    # last multiplies to the last letter's inverse.  solves[ri][pos]: the
    # word whose product is the generator at pos, the rotation's letters or
    # its inverse letters reversed; only a generator occurring once in the
    # relator can be the open one.
    checks, solves = [], []
    for rel, gens in zip(relators, rel_gens):
        reads = [(images if e > 0 else inverses, g) for g, e in rel]
        back = [(inverses if e > 0 else images, g) for g, e in reversed(rel)]
        k = len(rel)
        checks.append((word(reads[:-1]), back[0] if rel else empty))
        solves.append([
            (word(back[k - pos:] + back[:k - 1 - pos]) if e > 0
             else word(reads[pos + 1:] + reads[:pos]))
            if gens.count(g) == 1 else None
            for pos, (g, e) in enumerate(rel)
        ])

    homs = [] if collect else None
    count = nodes = 0

    def assign(g, pair, gen_trail, rel_queue):
        images[g], inverses[g] = pair
        gen_trail.append(g)
        for ri in occ[g]:
            unassigned[ri] -= 1
            if not sat[ri] and unassigned[ri] <= 1:
                rel_queue.append(ri)

    def propagate(rel_queue, gen_trail, sat_trail):
        """Check or solve each queued relator; False on contradiction."""
        while rel_queue:
            ri = rel_queue.pop()
            if sat[ri] or unassigned[ri] > 1:
                continue
            if unassigned[ri]:
                gens = rel_gens[ri]
                pos = 0
                while images[gens[pos]] is not None:
                    pos += 1
                (arr, h), rest = solves[ri][pos]
                val = arr[h]
                for arr, h in rest:
                    val = tuple(map(val.__getitem__, arr[h]))
                pair = table.get(val)
                if pair is None:
                    return False
                sat[ri] = True
                sat_trail.append(ri)
                assign(gens[pos], pair, gen_trail, rel_queue)
            else:
                ((arr, h), rest), target = checks[ri]
                val = arr[h]
                for arr, h in rest:
                    val = tuple(map(val.__getitem__, arr[h]))
                arr, h = target
                if val != arr[h]:
                    return False
                sat[ri] = True
                sat_trail.append(ri)
        return True

    def undo(gen_trail, sat_trail):
        for g in gen_trail:
            images[g] = None
            for ri in occ[g]:
                unassigned[ri] += 1
        for ri in sat_trail:
            sat[ri] = False

    def dfs(pos):
        nonlocal count, nodes
        while pos < len(order) and images[order[pos]] is not None:
            pos += 1
        if pos == len(order):
            count += 1
            if collect:
                homs.append(tuple(images))
            return
        g = order[pos]
        for pair in table.values():
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(budget)
            gen_trail, sat_trail, rel_queue = [], [], []
            assign(g, pair, gen_trail, rel_queue)
            if propagate(rel_queue, gen_trail, sat_trail):
                dfs(pos + 1)
            undo(gen_trail, sat_trail)

    gen_trail, sat_trail = [], []
    # Relators solvable (or checkable) before anything is assigned.
    rel_queue = [ri for ri in range(len(relators)) if unassigned[ri] <= 1]
    ok = True
    for g, p in fixed:
        pair = table.get(tuple(p))
        if pair is None:
            ok = False
            break
        assign(g, pair, gen_trail, rel_queue)
    if ok:
        ok = propagate(rel_queue, gen_trail, sat_trail)
    try:
        if ok:
            dfs(0)
    finally:
        # dfs reaches itself through its closure.  Breaking that cycle frees
        # this call's relator words on return, not at a later full garbage
        # collection, so they do not pile up over a count's kernel calls.
        dfs = None
    undo(gen_trail, sat_trail)
    return count, homs, nodes
