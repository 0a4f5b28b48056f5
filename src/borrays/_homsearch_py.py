"""Pure-Python backtracking kernel for homomorphism search.

The one search kernel behind every count in :mod:`borrays.homcount`.
Generators are assigned depth-first in a fixed order; each relator is
checked as soon as all of its generators are assigned, and a relator in
which exactly one unassigned generator occurs exactly once is solved
directly instead of searched.

Propagation is incremental: each relator tracks its number of unassigned
letter occurrences, and assigning a generator only touches the relators
it occurs in.
"""

from bisect import bisect_left

from .errors import BudgetExceededError

__all__ = ["search_homs"]


def _compose(a, b):
    # (a o b)(i) = a[b[i]]
    return tuple(a[x] for x in b)


def _invert(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def search_homs(n, num_gens, relators, order, candidates, fixed, budget, collect):
    """Count (and optionally collect) relator-satisfying assignments.

    n: symmetric-group degree; permutations are 0-based image tuples.
    relators: sequences of (generator index, +-1) letters.
    order: assignment order over all generator indices.
    candidates: lexicographically sorted permutation tuples; every
        generator ranges over this set (a subgroup of Sym(n)).
    fixed: list of (generator index, permutation) preassignments.
    budget: cap on candidate assignments tried.
    collect: if true, also return the list of homs (tuples of permutations
        indexed by generator), in enumeration order.

    Returns (count, homs or None, nodes).
    """
    identity = tuple(range(n))
    cand = sorted(candidates)

    def in_candidates(p):
        i = bisect_left(cand, p)
        return i < len(cand) and cand[i] == p

    images = [None] * num_gens
    sat = [False] * len(relators)
    unassigned = [len(rel) for rel in relators]
    occ = [[] for _ in range(num_gens)]
    for ri, rel in enumerate(relators):
        for g, _ in rel:
            occ[g].append(ri)
    homs = [] if collect else None
    state = {"count": 0, "nodes": 0}

    def eval_word(letters):
        res = identity
        for g, e in letters:
            p = images[g]
            if e < 0:
                p = _invert(p)
            res = _compose(res, p)
        return res

    def assign(g, val, gen_trail, rel_queue):
        images[g] = val
        gen_trail.append(g)
        for ri in occ[g]:
            unassigned[ri] -= 1
            if not sat[ri] and unassigned[ri] <= 1:
                rel_queue.append(ri)

    def handle(ri, gen_trail, sat_trail, rel_queue):
        """Check or solve relator ri; returns False on contradiction."""
        rel = relators[ri]
        open_pos = [i for i, (h, _) in enumerate(rel) if images[h] is None]
        if not open_pos:
            if eval_word(rel) != identity:
                return False
            sat[ri] = True
            sat_trail.append(ri)
        elif len(open_pos) == 1:
            pos = open_pos[0]
            g, e = rel[pos]
            pre = eval_word(rel[:pos])
            post = eval_word(rel[pos + 1 :])
            # pre * g^e * post = id
            val = _invert(_compose(post, pre))
            if e == -1:
                val = _invert(val)
            if not in_candidates(val):
                return False
            sat[ri] = True
            sat_trail.append(ri)
            assign(g, val, gen_trail, rel_queue)
        return True

    def propagate(rel_queue, gen_trail, sat_trail):
        while rel_queue:
            ri = rel_queue.pop()
            if sat[ri] or unassigned[ri] > 1:
                continue
            if not handle(ri, gen_trail, sat_trail, rel_queue):
                return False
        return True

    def undo(gen_trail, sat_trail):
        for g in gen_trail:
            images[g] = None
            for ri in occ[g]:
                unassigned[ri] += 1
        for ri in sat_trail:
            sat[ri] = False

    def dfs(pos):
        while pos < len(order) and images[order[pos]] is not None:
            pos += 1
        if pos == len(order):
            state["count"] += 1
            if collect:
                homs.append(tuple(images))
            return
        g = order[pos]
        for p in cand:
            state["nodes"] += 1
            if state["nodes"] > budget:
                raise BudgetExceededError(budget)
            gen_trail, sat_trail, rel_queue = [], [], []
            assign(g, p, gen_trail, rel_queue)
            if propagate(rel_queue, gen_trail, sat_trail):
                dfs(pos + 1)
            undo(gen_trail, sat_trail)

    gen_trail, sat_trail = [], []
    # Relators solvable (or checkable) before anything is assigned.
    rel_queue = [ri for ri in range(len(relators)) if unassigned[ri] <= 1]
    ok = True
    for g, p in fixed:
        if not in_candidates(tuple(p)):
            ok = False
            break
        assign(g, tuple(p), gen_trail, rel_queue)
    if ok:
        ok = propagate(rel_queue, gen_trail, sat_trail)
    if ok:
        dfs(0)
    undo(gen_trail, sat_trail)
    return state["count"], homs, state["nodes"]
