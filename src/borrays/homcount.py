"""Counting homomorphisms into Sym(n), totals and conjugation classes.

Two homomorphisms are equivalent when a single permutation conjugates every
generator image of one onto the other.  Class counts are computed by two
independent routes: explicit orbit partitioning of the enumerated
homomorphism set, and a Burnside average over conjugacy-class
representatives (counting homomorphisms into centralizers).

Every count into a group (Sym(n) for the total, a centralizer for each
Burnside term) factors out conjugation at the first two branching
generators: the first ranges over one representative per conjugacy class
of the group, the second over one representative per orbit of the first
image's centralizer, each term weighted by its orbit sizes.  Enumeration
stays unreduced, so it remains an independent cross-check.

``budget`` caps the search nodes of a whole count, summed over its kernel
calls.  The backtracking search runs in the pure-Python kernel
:mod:`borrays._homsearch_py`.  Its group table (each element paired with
its inverse) is built once per group: once for Sym(n), and once per
centralizer as a sub-table of Sym(n)'s, so every kernel call of a count
reuses it, and the collected homs of an enumeration share its tuples.
Degrees above ``MAX_DEGREE`` are refused, because the counts list every
element of Sym(n).
"""

from dataclasses import dataclass
from itertools import permutations
from math import factorial

from . import _homsearch_py as _kernel
from .errors import BudgetExceededError, IntegrityError
from .presentations import FinitePresentation

__all__ = [
    "Permutation",
    "HomClassCount",
    "DEFAULT_BUDGET",
    "MAX_DEGREE",
    "kernel_name",
    "enumerate_homs",
    "count_total",
    "count_classes_enumerate",
    "count_classes_burnside",
    "conjugacy_classes",
]

DEFAULT_BUDGET = 10**10

# Every count lists all of Sym(n): Sym(9) peaks at about 57 MB, while
# Sym(10) has 3.6M elements and can exhaust a shared machine's memory.
MAX_DEGREE = 9


def kernel_name() -> str:
    """Module name of the active search kernel."""
    return _kernel.__name__


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} given by its image array (1-based)."""

    images: tuple

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"{self.images} is not a permutation of 1..{n}")

    @classmethod
    def from_zero_based(cls, p):
        return cls(tuple(x + 1 for x in p))

    def zero_based(self):
        return tuple(x - 1 for x in self.images)


@dataclass(frozen=True)
class HomClassCount:
    n: int
    total_homs: int
    class_count: int
    method: str  # "enumerate" or "burnside"
    nodes: int = 0  # search nodes the count spent

    def __post_init__(self):
        if self.total_homs:
            lo = -(-self.total_homs // factorial(self.n))
            if not lo <= self.class_count <= self.total_homs:
                raise IntegrityError(
                    f"class count {self.class_count} outside "
                    f"[{lo}, {self.total_homs}] for n={self.n}"
                )


def _compiled(p: FinitePresentation):
    """Map generator symbols to indices and relators to letter lists."""
    gens = list(p.generators)
    index = {g: i for i, g in enumerate(gens)}
    relators = tuple(tuple((index[g], e) for g, e in rel) for rel in p.relators)
    order = _assignment_order(len(gens), relators, gens)
    return gens, index, relators, order


def _assignment_order(num_gens, relators, names):
    """Deterministic search order chosen by simulating propagation.

    The kernel solves a relator once it has a single unassigned letter
    occurrence and checks it once it has none.  Greedily pick the next
    generator whose assignment (plus the resulting cascade of solved
    generators) yields the most checked relators, then the longest
    cascade; remaining ties fall to occurrence count and name.
    """
    occ = [[] for _ in range(num_gens)]
    for ri, rel in enumerate(relators):
        for g, _ in rel:
            occ[g].append(ri)
    rel_gens = [tuple(g for g, _ in rel) for rel in relators]

    def simulate(g, assigned, counts):
        assigned = assigned.copy()
        counts = counts.copy()
        cascade, checks = 0, 0
        stack = [g]
        while stack:
            h = stack.pop()
            assigned[h] = True
            for ri in occ[h]:
                counts[ri] -= 1
                if counts[ri] == 0:
                    checks += 1
                elif counts[ri] == 1:
                    # The count may be stale if the open generator was just
                    # solved elsewhere but not yet processed off the stack.
                    h2 = next((x for x in rel_gens[ri] if not assigned[x]), None)
                    if h2 is not None:
                        assigned[h2] = True
                        cascade += 1
                        stack.append(h2)
        return checks, cascade, assigned, counts

    assigned = [False] * num_gens
    counts = [len(rel) for rel in relators]
    order = []
    while not all(assigned):
        best = None
        for g in range(num_gens):
            if assigned[g]:
                continue
            checks, cascade, a2, c2 = simulate(g, assigned, counts)
            key = (-checks, -cascade, -len(occ[g]), names[g])
            if best is None or key < best[0]:
                best = (key, g, a2, c2)
        order.append(best[1])
        assigned, counts = best[2], best[3]
    return order


def _check_degree(n):
    if n > MAX_DEGREE:
        raise ValueError(
            f"degree {n} is above the largest supported degree, "
            f"MAX_DEGREE = {MAX_DEGREE}"
        )


def _sym(n):
    """The group table of Sym(n)."""
    return _kernel.group_table(permutations(range(n)))


class _Budget:
    """One node counter shared by every kernel call of a count."""

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def search(self, n, compiled, table, fixed, collect=False):
        """Run the kernel on what is left of the budget; (count, homs)."""
        gens, _, relators, order = compiled
        try:
            count, homs, nodes = _kernel.search_homs(
                n, len(gens), relators, order, table, fixed,
                self.limit - self.spent, collect,
            )
        except BudgetExceededError:
            raise BudgetExceededError(self.limit) from None
        self.spent += nodes
        return count, homs


def enumerate_homs(p: FinitePresentation, n: int, budget: int = DEFAULT_BUDGET):
    """Iterator over every homomorphism into Sym(n), in a deterministic order.

    Each homomorphism is a dict mapping generator symbol to Permutation.
    The search runs, and a degree above ``MAX_DEGREE`` is refused, on call.
    """
    _check_degree(n)
    _, homs = _Budget(budget).search(n, _compiled(p), _sym(n), [], collect=True)
    return (
        {g: Permutation.from_zero_based(perm)
         for g, perm in zip(p.generators, hom)}
        for hom in homs
    )


def conjugacy_classes(n: int):
    """(representative, class size) per conjugacy class of Sym(n).

    Representatives are 0-based image tuples with cycles laid out in
    descending length; classes are ordered by partition, largest part first.
    """
    def parts(total, most):
        if total == 0:
            yield ()
            return
        for first in range(min(total, most), 0, -1):
            for rest in parts(total - first, first):
                yield (first,) + rest

    out = []
    for partition in parts(n, n):
        perm = list(range(n))
        start = 0
        for length in partition:
            for i in range(length):
                perm[start + i] = start + (i + 1) % length
            start += length
        size = factorial(n)
        mult = {}
        for length in partition:
            mult[length] = mult.get(length, 0) + 1
        for length, m in mult.items():
            size //= length**m * factorial(m)
        out.append((tuple(perm), size))
    return out


def _conjugation_orbits(acting, group):
    """(representative, orbit size) per orbit of ``acting`` on ``group``.

    ``acting`` is a subgroup of ``group`` acting by conjugation, given as
    (element, inverse) pairs; representatives are the first orbit members
    in ``group``'s order.
    """
    seen = set()
    out = []
    for y in group:
        if y in seen:
            continue
        # h y h^-1
        orbit = {tuple(h[y[i]] for i in hinv) for h, hinv in acting}
        seen |= orbit
        out.append((y, len(orbit)))
    return out


def _count_into(compiled, n, table, budget: _Budget) -> int:
    """Homomorphisms into the group whose group table is ``table``.

    Conjugating the images of the first two generators in assignment order
    by one element of the group does not change the number of
    homomorphisms extending them, even when propagation solves the second.
    So the first ranges over one representative per conjugacy class of the
    group, the second over one representative per orbit of the first
    image's centralizer in the group, and each kernel call is weighted by
    both orbit sizes.
    """
    _, _, _, order = compiled
    terms = [([], 1)]
    for g in order[:2]:
        terms = [
            (fixed + [(g, y)], weight * size)
            for fixed, weight in terms
            for y, size in _conjugation_orbits(
                [pair for h, pair in table.items()
                 if all(_commutes(h, x) for _, x in fixed)],
                table,
            )
        ]
    return sum(weight * budget.search(n, compiled, table, fixed)[0]
               for fixed, weight in terms)


def count_total(p: FinitePresentation, n: int,
                budget: int = DEFAULT_BUDGET) -> int:
    """Total homomorphisms into Sym(n)."""
    _check_degree(n)
    return _count_into(_compiled(p), n, _sym(n), _Budget(budget))


def _orbit_count(homs, n):
    """Orbits of the hom set under simultaneous conjugation.

    Closure is generated by the adjacent transpositions (i, i+1).
    """
    transpositions = []
    for i in range(n - 1):
        t = list(range(n))
        t[i], t[i + 1] = t[i + 1], t[i]
        transpositions.append(tuple(t))
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
            for t in transpositions:
                conj = tuple(tuple(t[perm[t[i]]] for i in range(n)) for perm in cur)
                if conj not in seen:
                    if conj not in hom_set:
                        raise IntegrityError("hom set is not conjugation-closed")
                    seen.add(conj)
                    stack.append(conj)
    return orbits


def count_classes_enumerate(p: FinitePresentation, n: int,
                            budget: int = DEFAULT_BUDGET) -> HomClassCount:
    """Class count by full enumeration and explicit orbit partitioning."""
    _check_degree(n)
    budget = _Budget(budget)
    count, homs = budget.search(n, _compiled(p), _sym(n), [], collect=True)
    return HomClassCount(n, count, _orbit_count(homs, n), "enumerate",
                         budget.spent)


def count_classes_burnside(p: FinitePresentation, n: int,
                           budget: int = DEFAULT_BUDGET) -> HomClassCount:
    """Class count by Burnside average over conjugacy-class representatives.

    A homomorphism is fixed by conjugation with pi iff every generator
    image commutes with pi, i.e. iff it maps into the centralizer of pi.
    The identity's centralizer is Sym(n), so its term is the total.
    """
    _check_degree(n)
    compiled = _compiled(p)
    budget = _Budget(budget)
    sym = _sym(n)
    total = None
    acc = 0
    for rep, size in conjugacy_classes(n):
        centralizer = {q: pair for q, pair in sym.items()
                       if _commutes(q, rep)}
        fixed_count = _count_into(compiled, n, centralizer, budget)
        if rep == tuple(range(n)):
            total = fixed_count
        acc += size * fixed_count
    if acc % factorial(n):
        raise IntegrityError("Burnside sum is not divisible by n!")
    return HomClassCount(n, total, acc // factorial(n), "burnside",
                         budget.spent)


def _commutes(a, b):
    return all(a[b[i]] == b[a[i]] for i in range(len(a)))
