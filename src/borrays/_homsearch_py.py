"""Pure-Python search kernel for homomorphisms into a subgroup of Sym(n).

The one search kernel behind every count in :mod:`borrays.homcount`.

Elements are indices.  :func:`symmetric_group` lists Sym(n) in sorted
order (0-based image tuples), so index 0 is the identity, and builds its
Cayley table once per count: ``mul[a][b]`` is the index of the product
``a·b``, where ``(a·b)[i] = a[b[i]]``, with one ``array('H')`` row per
element, and ``inv[a]`` is the index of ``a``'s inverse.  A subgroup
(Sym(n) itself, or a centralizer) shares the table and adds its elements
in ascending order and a member bytearray.  The table holds (n!)^2
two-byte entries: 1 MB for Sym(6), 51 MB for Sym(7), and 3.3 GB for
Sym(8), which is why ``homcount.MAX_DEGREE`` is 7.

The cascade is compiled once per presentation.  A relator is checked as
soon as all of its generators are assigned, and a relator in which
exactly one unassigned generator occurs exactly once solves that
generator instead of searching it: ``pre · g^e · post = id`` gives
``g^e = (post · pre)^-1``, so ``g`` is the product of the rotation
``post · pre``'s inverse letters in reverse order when ``e = +1`` and of
its letters as they are when ``e = -1``.  Which relators solve or check
depends only on *which* generators are assigned, not on their values, so
:func:`compile_plan` replays this propagation over generator sets and
records a straight-line program (Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, 2005): the steps that close before any
assignment, then, for each branching generator, one :class:`Level` of
solve steps and check words.  The same replay chooses the branching
order: each level branches on the generator whose trial cascade closes
the most relators.  Replaying the propagation keeps the search tree: a
node fails exactly when some relator closed at it fails, whichever
relator solves a generator.

:func:`search_homs` walks the levels with an explicit stack of iterators
over the group's elements.  Each generator's image and its inverse sit in
two registers, so a step is a word of register reads multiplied through
the table.  Every solved value is checked for membership in the group.
"""

from array import array
from heapq import heappop, heappush
from itertools import permutations

from .errors import BudgetExceededError

__all__ = ["Group", "Level", "Plan", "symmetric_group", "compile_plan",
           "search_homs"]


class Group:
    """A subgroup of Sym(n) whose elements are indices into ``perms``.

    perms: Sym(n)'s permutations as 0-based image tuples, sorted.
    mul: ``mul[a][b]`` is the index of a·b.
    inv: ``inv[a]`` is the index of a^-1.
    elements: this subgroup's element indices, ascending.
    member: ``member[a]`` is 1 iff ``a`` is an element.
    """

    __slots__ = ("perms", "mul", "inv", "elements", "member")

    def __init__(self, perms, mul, inv, elements, member):
        self.perms, self.mul, self.inv = perms, mul, inv
        self.elements, self.member = elements, member

    def subgroup(self, elements):
        """The subgroup with these elements, given in ascending order."""
        elements = list(elements)
        member = bytearray(len(self.perms))
        for x in elements:
            member[x] = 1
        return Group(self.perms, self.mul, self.inv, elements, member)


def symmetric_group(n):
    """Sym(n) with its Cayley table."""
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # Left multiplication by each adjacent transposition s, as an index
    # map.  The row of s·a is then the row of a mapped through s's map.
    lefts = []
    for i in range(n - 1):
        s = list(range(n))
        s[i], s[i + 1] = s[i + 1], s[i]
        lefts.append([index[tuple(s[x] for x in p)] for p in perms])
    mul = [None] * len(perms)
    mul[0] = array("H", range(len(perms)))
    reached = [0]
    for a in reached:
        for left in lefts:
            b = left[a]
            if mul[b] is None:
                mul[b] = array("H", map(left.__getitem__, mul[a]))
                reached.append(b)
    inv = [row.index(0) for row in mul]
    return Group(perms, mul, inv, range(len(perms)), bytearray([1]) * len(perms))


class Level:
    """The steps that close once ``gen`` is assigned.

    gen: the branching generator; None for the pre-cascade.
    solves, checks: steps ``(first, rest, register)``, the product of the
        register values ``first, *rest``.  A solve stores it in
        ``register`` (a generator's image; its inverse goes to
        ``register + 1``); a check requires it to equal ``register``'s
        value.
    """

    __slots__ = ("gen", "solves", "checks")

    def __init__(self, gen, solves, checks):
        self.gen, self.solves, self.checks = gen, solves, checks


class Plan:
    """A compiled search: the pre-cascade, then one level per branch."""

    __slots__ = ("num_gens", "pre", "levels")

    def __init__(self, num_gens, pre, levels):
        self.num_gens, self.pre, self.levels = num_gens, pre, levels


def compile_plan(num_gens, relators, names):
    """The search plan for ``relators``; the plan chooses its own order.

    relators: sequences of (generator index, +-1) letters.
    names: one name per generator, compared only to break ties.

    After the pre-cascade, each level branches on the unknown generator
    whose assignment, with the cascade of solves it sets off, closes the
    most relators, then solves the most generators, then has the most
    letter occurrences; the least name breaks the remaining ties.

    The ranks are cached.  A generator's rank key depends only on the
    relators its trial cascade read: their unknown-letter counts and which
    of their generators are known.  A generator that becomes known lowers
    the count of every relator holding it, so after a level only the
    generators that read a relator whose count changed are ranked again.
    The least key is taken from a heap that skips entries of known
    generators and keys since replaced, so each level branches on the
    generator a full re-ranking would choose, and the plan is the same.

    Register ``2g`` holds generator ``g``'s image and ``2g + 1`` its
    inverse; register ``2 * num_gens`` holds the identity.
    """
    identity = 2 * num_gens
    occ = [[] for _ in range(num_gens)]
    for ri, rel in enumerate(relators):
        for g, _ in rel:
            occ[g].append(ri)
    known = [False] * num_gens
    unassigned = [len(rel) for rel in relators]  # unknown letter occurrences
    closed = [False] * len(relators)
    touched = []  # relators whose count changed in the current level

    def step(word, register):
        if not word:
            return identity, (), register
        return word[0], tuple(word[1:]), register

    def assign(g, queue):
        known[g] = True
        touched.extend(occ[g])
        for ri in occ[g]:
            unassigned[ri] -= 1
            if not closed[ri] and unassigned[ri] <= 1:
                queue.append(ri)

    def level(gen, queue):
        """Replay the propagation that follows assigning ``gen``."""
        solves, checks = [], []
        if gen is not None:
            assign(gen, queue)
        while queue:
            ri = queue.pop()
            if closed[ri] or unassigned[ri] > 1:
                continue
            closed[ri] = True
            rel = relators[ri]
            regs = [2 * g + (e < 0) for g, e in rel]
            if unassigned[ri]:
                pos = next(i for i, (g, _) in enumerate(rel) if not known[g])
                g, e = rel[pos]
                rotation = regs[pos + 1:] + regs[:pos]  # post · pre
                if e > 0:
                    rotation = [r ^ 1 for r in reversed(rotation)]
                solves.append(step(rotation, 2 * g))
                assign(g, queue)
            elif rel:  # all but the last letter multiply to its inverse
                checks.append(step(regs[:-1], regs[-1] ^ 1))
        return Level(gen, tuple(solves), tuple(checks))

    def rank(g):
        """Branching key of unknown ``g`` and the relators it read.

        A cascade that changes no state.
        """
        new, dropped, stack = {g}, {}, [g]
        closes = 0
        while stack:
            for ri in occ[stack.pop()]:
                dropped[ri] = dropped.get(ri, 0) + 1
                left = unassigned[ri] - dropped[ri]
                if left == 0:
                    closes += 1
                elif left == 1:
                    # None when the open letter's generator is solved but
                    # not yet popped.
                    h = next((h for h, _ in relators[ri]
                              if not known[h] and h not in new), None)
                    if h is not None:
                        new.add(h)
                        stack.append(h)
        return (-closes, -len(new), -len(occ[g]), names[g]), dropped

    key = [None] * num_gens  # cached rank key of each unknown generator
    reads = [()] * num_gens  # the relators that key read
    readers = [set() for _ in relators]  # generators whose key read each
    heap = []

    def rerank(g):
        for ri in reads[g]:
            readers[ri].discard(g)
        key[g], reads[g] = rank(g)
        for ri in reads[g]:
            readers[ri].add(g)
        heappush(heap, (key[g], g))

    pre = level(None, [ri for ri in range(len(relators)) if unassigned[ri] <= 1])
    for g in range(num_gens):
        if not known[g]:
            rerank(g)
    levels = []
    while heap:
        k, g = heappop(heap)
        if known[g] or k != key[g]:
            continue
        touched.clear()
        levels.append(level(g, []))
        for h in {h for ri in touched for h in readers[ri] if not known[h]}:
            rerank(h)
    return Plan(num_gens, pre, tuple(levels))


def search_homs(plan, group, fixed, budget, collect):
    """Count (and optionally collect) the homs a plan accepts into ``group``.

    plan: a :func:`compile_plan` result.
    group: a :class:`Group`; every generator ranges over its elements.
    fixed: element indices for the plan's first ``len(fixed)`` levels,
        which are not branched and count no nodes.
    budget: cap on candidate assignments tried.
    collect: if true, also return the list of homs (tuples of element
        indices indexed by generator), in enumeration order.

    Returns (count, homs or None, nodes).
    """
    mul, inv, member = group.mul, group.inv, group.member
    val = [0] * (2 * plan.num_gens + 1)
    homs = [] if collect else None

    def settle(level, x):
        """Assign ``x`` to the level's generator; do its steps all hold?"""
        if level.gen is not None:
            if not member[x]:
                return False
            val[2 * level.gen] = x
            val[2 * level.gen + 1] = inv[x]
        for first, rest, reg in level.solves:
            v = val[first]
            for r in rest:
                v = mul[v][val[r]]
            if not member[v]:
                return False
            val[reg] = v
            val[reg + 1] = inv[v]
        for first, rest, reg in level.checks:
            v = val[first]
            for r in rest:
                v = mul[v][val[r]]
            if v != val[reg]:
                return False
        return True

    levels = plan.levels
    start = len(fixed)
    if not all(settle(level, x)
               for level, x in zip((plan.pre,) + levels, (None, *fixed))):
        return 0, homs, 0
    if start == len(levels):
        if collect:
            homs.append(tuple(val[0:-1:2]))
        return 1, homs, 0

    last = len(levels) - 1
    elements = group.elements
    its = [None] * len(levels)
    its[start] = iter(elements)
    depth = start
    count = nodes = 0
    while depth >= start:
        level = levels[depth]
        for x in its[depth]:
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(budget)
            if settle(level, x):
                if depth == last:
                    count += 1
                    if collect:
                        homs.append(tuple(val[0:-1:2]))
                else:
                    depth += 1
                    its[depth] = iter(elements)
                    break
        else:
            depth -= 1
    return count, homs, nodes
