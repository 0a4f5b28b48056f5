"""Pure-Python search kernel for homomorphisms into a subgroup of Sym(n).

The one search kernel behind every count in :mod:`borrays.homcount`.

Elements are indices.  :func:`symmetric_group` lists Sym(n) in sorted
order (0-based image tuples), so index 0 is the identity, and builds its
Cayley table once per count: ``mul[a][b]`` is the index of the product
``a·b``, where ``(a·b)[i] = a[b[i]]``, and ``inv[a]`` is the index of
``a``'s inverse.  A row is a tuple for n <= 5, which the interpreter
subscripts on its fast path, and an ``array('H')`` above.  A subgroup
(Sym(n) itself, or a centralizer) shares the table and adds its elements
in ascending order.  The table holds (n!)^2 entries, two bytes each in
arrays: 1 MB for Sym(6), 51 MB for Sym(7), and 3.3 GB for Sym(8), which
is why ``homcount.MAX_DEGREE`` is 7.

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
the most relators, and among those on one conjugate to a known
generator, whose level searches one class (see below).  Generators whose
cascades close the same set share one cascade and its rank, so planning
takes time about linear in the presentation.  Replaying the propagation
keeps the search tree: a node fails exactly when some relator closed at
it fails, whichever relator solves a generator.

Each generator's image and its inverse sit in registers ``2g`` and
``2g + 1``, and a step multiplies a word of registers (the empty word is
the identity) through the table.  Each level runs as one generated Python
generator function (no native code).  On entry it loads the registers of
earlier levels that it reads into locals, and takes the table row of each
loaded value that starts a product; it then loops over its candidates,
runs its solves and checks as straight-line ``mul[..][..]`` expressions,
stores into ``val`` only the registers that a later level (or
``collect``) reads, and yields on each success.  :func:`live_plan`, the
one backward liveness pass, drops dead solves and maps each register to
the last level that reads it, which decides every inverse and store.
Every value a level holds is a candidate, a fixed value, or an inverse
or product of these, all elements of the group searched; a subgroup is
closed under both, so a solved value needs no membership check, and a
solve that nothing reads is dropped in every group.

A level's *shape* (:func:`_level_shape`) numbers its registers in order
of first use and keeps which inverses it computes and which values it
stores; the ``val`` indices it loads and stores are arguments of the
factory its source defines.  So levels that differ only in their register
numbers share one shape, one source and one compiled factory: a
1000-block word has a few dozen shapes.  Two bounded caches, one from
shape to source (:func:`_level_source`) and one from source to factory
(:func:`_factory`), hold no plan, so a repeated shape costs a tuple and
two lookups; the functions for one plan, per ``collect`` mode, hang on
the plan itself.

Every Wirtinger crossing relator is cyclically ``a u b^-1 u^-1`` with
``u`` one letter, or ``a b^-1`` once a kink's relator freely reduces, so
it makes ``a`` and ``b`` conjugate in the presented group, and
:func:`compile_plan` joins such generators by union-find; these four- and
two-letter shapes are the only ones it reads (:func:`_conjugate_pair`).
A level whose generator is conjugate to one known before it
(``Level.conj``) can only take a value in the conjugacy class of that
known value in the group searched: ``a = w b w^-1`` gives ``phi(a) =
phi(w) phi(b) phi(w)^-1`` with ``phi(w)`` in the group, Sym(n) or a
centralizer alike.

:func:`search_homs` runs all the terms of one group's orbit split in one
stack of these generators: the pre-cascade over the one candidate ``0``,
the fixed levels over their one fixed value each, rerun only from the
first whose value changed since the last term, and the searched levels
over the group's elements, or over a known conjugate's class when the
caller gives the class lookup.  A node is one candidate tried at a
searched level; fixed levels count none.
"""

from array import array
from functools import lru_cache, partial
from heapq import heappop, heappush
from itertools import islice, permutations
from operator import itemgetter

from .errors import BudgetExceededError

__all__ = ["Group", "Level", "Plan", "symmetric_group", "compile_plan",
           "live_plan", "search_homs"]


class Group:
    """A subgroup of Sym(n) whose elements are indices into ``perms``.

    perms: Sym(n)'s permutations as 0-based image tuples, sorted.
    mul: ``mul[a][b]`` is a·b's index; tuple rows if n <= 5, else arrays.
    inv: ``inv[a]`` is the index of a^-1.
    elements: this subgroup's element indices, ascending; see
        :meth:`subgroup` for why they must form a subgroup.
    """

    __slots__ = ("perms", "mul", "inv", "elements", "__weakref__")

    def __init__(self, perms, mul, inv, elements):
        self.perms, self.mul, self.inv = perms, mul, inv
        self.elements = elements

    def subgroup(self, elements):
        """The subgroup with these elements, given in ascending order.

        The elements must form a subgroup (a centralizer, say), since the
        search never checks that a solved value is one of them.
        """
        return Group(self.perms, self.mul, self.inv, tuple(elements))


def symmetric_group(n):
    """Sym(n) with its Cayley table: tuple rows for n <= 5, else arrays."""
    perms = tuple(sorted(permutations(range(n))))
    index = {p: i for i, p in enumerate(perms)}
    # Left multiplication by each adjacent transposition s, as an index
    # map.  The row of s·a is then the row of a mapped through s's map.
    lefts = []
    for i in range(n - 1):
        s = list(range(n))
        s[i], s[i + 1] = s[i + 1], s[i]
        lefts.append([index[tuple(s[x] for x in p)] for p in perms])
    # Tuple rows take the fast path for subscripts (1.5x the nodes/s at n <= 5);
    # at n = 6 they measured no faster, and take 8 bytes an entry against 2.
    # Each row is read through ``left`` by one C-level itemgetter call; it
    # gets n! >= 2 indices, so it returns a tuple (no walk runs below n = 2).
    as_row = tuple if n <= 5 else partial(array, "H")
    mul = [None] * len(perms)
    mul[0] = as_row(range(len(perms)))
    reached = [0]
    for a in reached:
        for left in lefts:
            b = left[a]
            if mul[b] is None:
                mul[b] = as_row(itemgetter(*mul[a])(left))
                reached.append(b)
    # a^-1 maps i to the position of i in a.
    points = range(n)
    inv = tuple([index[tuple(map(p.index, points))] for p in perms])
    return Group(perms, tuple(mul), inv, range(len(perms)))


class Level:
    """The steps that close once ``gen`` is assigned.

    gen: the branching generator; None for the pre-cascade.
    solves, checks: steps ``(word, register)``.  ``word`` is a tuple of
        registers, possibly empty, and its value is the product of their
        values (the identity when empty).  A solve stores it in
        ``register``, a generator's image, whose inverse goes to
        ``register + 1``; a check requires it to equal ``register``'s
        value.
    conj: the register of a generator known before this level and
        conjugate to ``gen`` in the presented group, or None.
    """

    __slots__ = ("gen", "solves", "checks", "conj")

    def __init__(self, gen, solves, checks, conj=None):
        self.gen, self.solves, self.checks = gen, solves, checks
        self.conj = conj


class Plan:
    """A compiled search: the pre-cascade, then one level per branch.

    num_gens: the number of generators.  Register ``2g`` holds generator
        ``g``'s image and register ``2g + 1`` its inverse.
    pre: the :class:`Level` of steps that close before any assignment.
    levels: one :class:`Level` per branching generator, in branching order.
    kernels: the generated level functions, built on first use, per
        ``collect`` mode of :func:`search_homs`.
    """

    __slots__ = ("num_gens", "pre", "levels", "kernels", "__weakref__")

    def __init__(self, num_gens, pre, levels):
        self.num_gens, self.pre, self.levels = num_gens, pre, levels
        self.kernels = {}


def _conjugate_pair(rel):
    """(a, b) if ``rel`` makes ``a`` and ``b`` conjugate, else None.

    Reads the two shapes that :func:`borrays.presentations.presentation`
    gives a crossing relator: four letters, cyclically ``a^e u b^-e
    u^-1`` with ``u`` one letter, which says ``a^e = u b^e u^-1``; and
    ``a^e b^-e``, to which a kink's relator freely reduces.  A longer
    relator of the conjugate form, as only a hand-built presentation has,
    reads None: the plan then restricts fewer levels.
    """
    if len(rel) == 4:
        (a, e), (c, f), (b, g), (d, h) = rel
        if e == -g and c == d and f == -h:
            return a, b
        if f == -h and a == b and e == -g:
            return c, d
    elif len(rel) == 2:
        (a, e), (b, f) = rel
        if e == -f:
            return a, b
    return None


def compile_plan(num_gens, relators, names):
    """The search plan for ``relators``; the plan chooses its own order.

    relators: sequences of (generator index, +-1) letters.
    names: one name per generator, compared only to break ties.

    After the pre-cascade, each level branches on the unknown generator
    whose assignment, with the cascade of solves it sets off, closes the
    most relators; then on one that is class-restricted, conjugate to a
    generator already known, so that its level tries one class of the
    group searched, not the whole group; then on one that solves the most
    generators, then has the most letter occurrences; the least name
    breaks the remaining ties.  The key is ``(-closed, not restricted,
    -solved, -occurrences, name, g)``.  The flag comes after the relators
    closed because a closed relator prunes the whole tree below its level,
    while a restricted level narrows only its own candidates: ranked
    first, the flag makes A·A branch on x4, x1 and x3 after x2, which
    close nothing, and A·A into Sym(5) then takes 54,482,503 Burnside
    nodes, against 8,445 with this key.

    The ranks are cached and shared per closure.  A generator's rank key
    depends only on the relators its trial cascade read: their
    unknown-letter counts and which of their generators are known.  A
    generator that becomes known lowers the count of every relator holding
    it, so after a level only the closures that read a relator whose count
    changed are ranked again.  Within one such round the known set is
    fixed and a cascade computes a monotone closure, so the cascade of
    ``h``, once it reaches a generator ranked in the round whose closure
    holds ``h``, takes that closure: its relators closed, generators
    solved and relators read.  So a chain of N generators with one closure
    plans in time linear in N.  The least key is taken from a heap that
    skips entries of known generators and keys since replaced, so each
    level branches on the generator a full re-ranking would choose, and
    the plan is the same.  A component's first known generator changes
    the flag of its other members but not their closures, so those that
    are not ranked again get a new heap entry from their cached closure,
    the same but for the flag; a generator is re-keyed this way at most
    once.

    The relators of the two shapes a Wirtinger crossing relator takes,
    cyclically ``a^e u b^-e u^-1`` with ``u`` one letter, and ``a^e
    b^-e``, join ``a`` and ``b`` in one conjugacy component (union-find).
    A level whose generator shares a component with a generator already
    known records the first of these as ``conj``.
    """
    root = list(range(num_gens))

    def find(g):
        while root[g] != g:
            root[g] = g = root[root[g]]
        return g

    for rel in relators:
        pair = _conjugate_pair(rel)
        if pair:
            root[find(pair[0])] = find(pair[1])
    component = [find(g) for g in range(num_gens)]
    generators_of = {}
    for g in range(num_gens):
        generators_of.setdefault(component[g], []).append(g)
    first = {}  # component -> the first of its generators to become known
    opened = []  # members of the components given a first known generator

    occ = [[] for _ in range(num_gens)]
    for ri, rel in enumerate(relators):
        for g, _ in rel:
            occ[g].append(ri)
    known = [False] * num_gens
    unassigned = [len(rel) for rel in relators]  # unknown letter occurrences
    closed = [False] * len(relators)
    # The members of each closure whose cascade read each relator.
    readers = [[] for _ in relators]
    stale = []  # members of the closures that read a changed relator

    def assign(g, queue):
        known[g] = True
        if component[g] not in first:
            first[component[g]] = g
            opened.extend(generators_of[component[g]])
        for ri in occ[g]:
            unassigned[ri] -= 1
            if not closed[ri] and unassigned[ri] <= 1:
                queue.append(ri)
            # A stale closure is emptied, so it ranks no generator again.
            for members in readers[ri]:
                stale.extend(members)
                members.clear()
            readers[ri].clear()

    def level(gen, queue):
        """Replay the propagation that follows assigning ``gen``."""
        solves, checks, conj = [], [], None
        if gen is not None:
            if component[gen] in first:
                conj = 2 * first[component[gen]]
            assign(gen, queue)
        while queue:
            ri = queue.pop()
            if closed[ri] or unassigned[ri] > 1:
                continue
            closed[ri] = True
            rel = relators[ri]
            regs = [2 * g + (e < 0) for g, e in rel]
            if unassigned[ri]:
                for pos, (g, e) in enumerate(rel):
                    if not known[g]:
                        break
                rotation = regs[pos + 1:] + regs[:pos]  # post · pre
                if e > 0:
                    rotation = [r ^ 1 for r in reversed(rotation)]
                solves.append((tuple(rotation), 2 * g))
                assign(g, queue)
            elif rel:  # all but the last letter multiply to its inverse
                checks.append((tuple(regs[:-1]), regs[-1] ^ 1))
        return Level(gen, tuple(solves), tuple(checks), conj)

    def cascade(g, ranked):
        """``(-relators closed, -len(solved), members, solved)`` for ``g``.

        A trial cascade that changes no state; ``solved`` is ``g``'s
        closure, and ``members`` the generators that share it.
        """
        new, dropped, stack = {g}, {}, [g]
        closes = 0
        while stack:
            for ri in occ[stack.pop()]:
                dropped[ri] = drop = dropped.get(ri, 0) + 1
                left = unassigned[ri] - drop
                if left > 1:
                    continue
                if left == 0:
                    closes += 1
                else:
                    # The open letter's generator, unless it is solved but
                    # not yet popped.
                    for h, _ in relators[ri]:
                        if not known[h] and h not in new:
                            if h in ranked and g in ranked[h][3]:
                                return ranked[h]
                            new.add(h)
                            stack.append(h)
                            break
        members = []
        for ri in dropped:
            readers[ri].append(members)
        return -closes, -len(new), members, new

    def rank(gens):
        """Key these unknown generators, one trial cascade per closure."""
        ranked = {}  # generator -> its closure, in this round's known set
        for g in gens:
            closure = ranked[g] = cascade(g, ranked)
            closure[2].append(g)
            key[g] = entry = (closure[0], component[g] not in first, closure[1],
                              -len(occ[g]), names[g], g)
            heappush(heap, entry)

    def restrict():
        """Re-key, from its cached closure, each unknown generator whose
        component has a first known member since its key was made."""
        for g in opened:
            if not known[g] and key[g][1]:
                key[g] = entry = (key[g][0], False, *key[g][2:])
                heappush(heap, entry)
        opened.clear()

    key = [None] * num_gens  # each unknown generator's heap entry: key, then g
    heap = []
    pre = level(None, [ri for ri in range(len(relators)) if unassigned[ri] <= 1])
    rank([g for g in range(num_gens) if not known[g]])
    restrict()
    # Each unknown generator has its key in the heap; the entries left
    # once all are known are stale.
    unknown = num_gens - len(pre.solves)
    levels = []
    while unknown:
        entry = heappop(heap)
        g = entry[-1]
        if known[g] or entry is not key[g]:
            continue
        levels.append(level(g, []))
        unknown -= 1 + len(levels[-1].solves)
        gens = [h for h in stale if not known[h]]
        stale.clear()
        rank(gens)
        restrict()
    return Plan(num_gens, pre, tuple(levels))


def live_plan(plan, collect):
    """The plan's levels, the pre-cascade first, without dead solves.

    Returns ``(levels, last)``.  ``last`` maps each register that a live
    step reads to the index in ``levels`` of the last level that reads it;
    when ``collect`` is set, each generator's image counts as read at
    ``len(levels)``, after every level.

    A solve is dead when no later step reads its value or its inverse,
    and it goes: a solved value lies in the searched group, whichever
    subgroup that is, so it needs no membership check.  Every check stays.
    A level reads its ``conj`` register on entry, so that value is stored.
    """
    levels = (plan.pre,) + plan.levels
    last = dict.fromkeys(range(0, 2 * plan.num_gens, 2), len(levels)) if collect else {}
    out = []
    for i, level in reversed(tuple(enumerate(levels))):
        if level.conj is not None:
            last.setdefault(level.conj, i)
        for word, reg in level.checks:
            for r in (*word, reg):
                last.setdefault(r, i)
        solves = []
        for word, reg in reversed(level.solves):
            if reg in last or reg + 1 in last:
                for r in word:
                    last.setdefault(r, i)
                solves.append((word, reg))
        out.append(Level(level.gen, tuple(reversed(solves)), level.checks,
                         level.conj))
    return tuple(reversed(out)), last


# Words longer than this are multiplied in several statements, which keeps
# the generated expressions well inside the parser's nesting limit.
_CHUNK = 32


def _level_shape(level, i, last):
    """Level ``i``'s shape, its registers by number, and those it stores.

    last: the :func:`live_plan` map from each register to the last level
        that reads it.  The level computes an inverse that it or a later
        level reads, and stores a value that a later level reads.

    The shape is ``(head, solves, checks, numbers, stores)``: ``head`` is
    None for the pre-cascade, else whether the branched value's inverse is
    computed; ``(length of word, inverse computed)`` per solve; the length
    of each check's word; every register use, in the order the source
    makes them, as the register's number in order of first use; and the
    numbers of the values stored.
    """
    order, defined, solves = [], [], []
    head = None
    if level.gen is not None:
        reg = 2 * level.gen
        head = last.get(reg + 1, -1) >= i
        defined = [reg, reg + 1] if head else [reg]
        order += defined
    for word, reg in level.solves:
        inverse = last.get(reg + 1, -1) >= i
        new = (reg, reg + 1) if inverse else (reg,)
        order += word
        order += new
        defined += new
        solves.append((len(word), inverse))
    for word, reg in level.checks:
        order += word
        order.append(reg)
    names = {}
    numbers = tuple([names.setdefault(reg, len(names)) for reg in order])
    stores = [reg for reg in defined if last.get(reg, -1) > i]
    shape = (head, tuple(solves), tuple([len(word) for word, _ in level.checks]),
             numbers, tuple(map(names.__getitem__, stores)))
    return shape, list(names), stores


@lru_cache(maxsize=256)
def _level_source(shape):
    """The factory source for a :func:`_level_shape`, and the numbers it loads.

    The source holds only fixed text and local names ``r0, r1, ...`` by
    register number.  The factory takes the registers first used as read,
    which the level loads from ``val`` on entry, then those it stores.
    """
    head, solves, checks, numbers, stores = shape
    numbers = iter(numbers)
    named, loads, rows, lines = set(), {}, {}, []

    def local():
        k = next(numbers)
        named.add(k)
        return f"r{k}"

    def name(k):
        if k not in named:
            named.add(k)
            loads[k] = None
        return f"r{k}"

    def inverse(value):
        lines.append(f"{local()} = inv[{value}]")

    def product(length):
        word = tuple(islice(numbers, length))
        if length < 2:
            return name(word[0]) if word else "0"
        first = word[0]
        if first in loads or first not in named:
            # A loaded value is the same at every candidate: take its row
            # of the table once, on entry.
            if first not in rows:
                rows[first] = f"m{len(rows)}"
                name(first)
            row = rows[first]
        else:
            row = f"mul[r{first}]"
        expr = f"{row}[{name(word[1])}]"
        for j, k in enumerate(word[2:], 1):
            if j % _CHUNK == 0:
                lines.append(f"t = {expr}")
                expr = "t"
            expr = f"mul[{expr}][{name(k)}]"
        return expr

    if head is None:
        loop = "for _ in cands:"
    else:
        value = local()
        loop = f"for {value} in cands:"
        if head:
            inverse(value)
    for length, inv in solves:
        expr = product(length)
        value = local()
        lines.append(f"{value} = {expr}")
        if inv:
            inverse(value)
    for length in checks:
        expr = product(length)
        lines.append(f"if {expr} != {name(next(numbers))}: continue")
    lines += [f"val[o{j}] = r{k}" for j, k in enumerate(stores)]
    args = [f"i{j}" for j in range(len(loads))] + [f"o{j}" for j in range(len(stores))]
    source = "\n".join([
        f"def factory({', '.join(args)}):",
        "    def level(val, mul, inv, cands):",
        *(f"        r{k} = val[i{j}]" for j, k in enumerate(loads)),
        *(f"        {row} = mul[r{k}]" for k, row in rows.items()),
        f"        {loop}",
        *(f"            {line}" for line in lines),
        "            yield True",
        "    return level",
    ])
    return source, tuple(loads)


@lru_cache(maxsize=256)
def _factory(source):
    """The level factory a :func:`_level_source` text defines."""
    namespace = {}
    exec(compile(source, "<level>", "exec"), namespace)
    return namespace["factory"]


def _level_functions(plan, collect):
    """One generator function per level, the pre-cascade first.

    Built once per plan and ``collect`` mode, and kept on the plan.
    """
    if collect not in plan.kernels:
        levels, last = live_plan(plan, collect)
        functions = []
        for i, level in enumerate(levels):
            shape, registers, stores = _level_shape(level, i, last)
            source, loads = _level_source(shape)
            functions.append(_factory(source)(
                *[registers[k] for k in loads], *stores))
        plan.kernels[collect] = tuple(functions)
    return plan.kernels[collect]


def search_homs(plan, group, terms, budget, collect, classes=None):
    """Count (and optionally collect) the homs a plan accepts into ``group``.

    plan: a :func:`compile_plan` result.
    group: a :class:`Group`; every image is one of its elements.
    terms: ``(fixed, weight)`` pairs, such as the orbit split's terms.
        ``fixed`` holds elements of ``group`` (indices) for the plan's
        first ``len(fixed)`` levels, the same number in every term; these
        levels are not branched and count no nodes.  A term's extensions
        count ``weight`` times.  A term reruns only the fixed levels from
        the first whose value differs from the term before.
    budget: cap on candidate assignments tried (nodes).  A searched
        level adds all of its candidates to the nodes when entered and
        raises BudgetExceededError once the total passes the budget.  The
        totals, and which budgets raise, are those of counting the
        candidates one at a time.
    collect: if true, also return the homs, one list per term: tuples
        of element indices indexed by generator, in enumeration order.
    classes: None, or the group's conjugacy classes as a lookup:
        ``classes[x]`` is the class of each element ``x`` of ``group``, one
        shared sequence per class.  Then a level whose generator has a
        ``conj`` tries only the class of that register's value, and a
        fixed value outside it ends the term.  Without it every searched
        level tries every element.

    A node is one candidate tried: an element of the group, or of a
    known conjugate's class, which holds every value the generator can
    take (see the module docstring).

    Returns (sum of weight x extensions over the terms, homs or None,
    nodes).
    """
    mul, inv, elements = group.mul, group.inv, group.elements
    functions = _level_functions(plan, collect)
    conj = (None,) * len(functions)
    if classes is not None:
        conj = (None, *(level.conj for level in plan.levels))
    val = [0] * (2 * plan.num_gens)
    homs = [] if collect else None
    last = len(functions) - 1
    its = [None] * len(functions)
    count = nodes = 0

    def leaves(it):
        if collect:
            found = [tuple(val[::2]) for _ in it]  # each success yields True
            homs[-1].extend(found)
            return len(found)
        return sum(it)

    # prev: the last term run, as the pre-cascade's candidate 0 and its
    # fixed values; its levels below ``ok`` hold their values in ``val``,
    # and ``dead`` is the level at which it failed, or None.
    prev, ok, dead = (), 0, None
    for fixed, weight in terms:
        if collect:
            homs.append([])
        cur = (0, *fixed)
        depth = 0
        while depth < ok and cur[depth] == prev[depth]:
            depth += 1
        if depth == ok and dead == ok and cur[ok] == prev[ok]:
            continue  # it fails where the last term failed
        prev, ok, dead, found = cur, depth, None, 0
        for depth in range(depth, len(cur)):
            x, c = cur[depth], conj[depth]
            if c is not None and classes[x] is not classes[val[c]]:
                dead = depth
                break
            it = functions[depth](val, mul, inv, (x,))
            if depth == last:
                found = leaves(it)
                break
            if not next(it, False):
                dead = depth
                break
            ok = depth + 1
        else:
            bottom = depth = len(cur)
            while depth >= bottom:
                it = its[depth]
                if it is None:
                    c = conj[depth]
                    cands = elements if c is None else classes[val[c]]
                    nodes += len(cands)
                    if nodes > budget:
                        raise BudgetExceededError(budget)
                    it = its[depth] = functions[depth](val, mul, inv, cands)
                if depth < last and next(it, False):
                    depth += 1
                    continue
                if depth == last:
                    found += leaves(it)
                its[depth] = None
                depth -= 1
        count += weight * found
    return count, homs, nodes
