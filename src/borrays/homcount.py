"""Counting homomorphisms into Sym(n), totals and conjugation classes.

Two homomorphisms are equivalent when a single permutation conjugates every
generator image of one onto the other.  Class counts are computed by two
independent routes: explicit orbit partitioning of the enumerated
homomorphism set, and a Burnside average over conjugacy-class
representatives (counting homomorphisms into centralizers).

One orbit-stabilizer routine, :func:`_conjugation_orbits`, gives the
Burnside terms: the orbits of Sym(n) conjugating itself, with their
centralizers.  Every count into a group (Sym(n) for the total, a centralizer for each
Burnside term) factors out conjugation at the first two branching
generators by the same routine: the first ranges over one representative
per conjugacy class of the group, the second over one representative per
orbit of the first image's centralizer, each term weighted by its orbit
sizes.  Enumeration stays unreduced, so it remains an independent
cross-check.

``budget`` caps the search nodes of a whole count, summed over its kernel
calls; a searched level spends one node per element of the group when it
is entered, so the node totals are those of trying candidates one by
one.  The search runs in the pure-Python kernel
:mod:`borrays._homsearch_py`, on group elements as indices into sorted
Sym(n) with a Cayley table, built once per count: for Sym(n), and per
centralizer as a member set over Sym(n)'s table.  Each count compiles
its presentation once into a search plan (:func:`_compiled`): the
relators solved or checked at each branching generator, in a branching
order the plan chooses itself.  The kernel runs each level of the plan as
generated Python code; in Sym(n) itself it skips the solves whose values
nothing reads.  The orbit split's two fixed images are values for the plan's first two
levels.  Enumeration converts indices
to :class:`Permutation` only at its edge.  Degrees above ``MAX_DEGREE``
are refused, because the table of Sym(n) holds (n!)^2 entries, and
enumeration refuses degrees above ``MAX_ENUMERATE_DEGREE``.
"""

from bisect import bisect_left
from dataclasses import dataclass
from math import factorial

from . import _homsearch_py as _kernel
from .errors import BudgetExceededError, IntegrityError
from .presentations import FinitePresentation

__all__ = [
    "Permutation",
    "HomClassCount",
    "DEFAULT_BUDGET",
    "MAX_DEGREE",
    "MAX_ENUMERATE_DEGREE",
    "kernel_name",
    "enumerate_homs",
    "count_total",
    "count_classes_enumerate",
    "count_classes_burnside",
]

DEFAULT_BUDGET = 10**10

# Every count builds the Cayley table of Sym(n), (n!)^2 two-byte entries:
# 51 MB for Sym(7), while Sym(8)'s would need about 3.3 GB.
MAX_DEGREE = 7

# Enumeration keeps every homomorphism and has no orbit split: eps3 into
# Sym(7) holds 25,401,600 of them, and A would search about 5040^3 nodes.
MAX_ENUMERATE_DEGREE = 6


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
    """The presentation's search plan, ties in branching order broken by name."""
    gens = list(p.generators)
    index = {g: i for i, g in enumerate(gens)}
    relators = tuple(tuple((index[g], e) for g, e in rel) for rel in p.relators)
    return _kernel.compile_plan(len(gens), relators, gens)


def _check_degree(n, enumerating=False):
    if type(n) is not int:
        raise ValueError(f"degree {n!r} is not an int")
    if n < 0:
        raise ValueError(f"degree {n} is negative; Sym(n) needs n >= 0")
    if n > MAX_DEGREE:
        raise ValueError(
            f"degree {n} is above the largest supported degree, "
            f"MAX_DEGREE = {MAX_DEGREE}"
        )
    if enumerating and n > MAX_ENUMERATE_DEGREE:
        raise ValueError(
            f"degree {n} is above the largest degree for enumeration, "
            f"MAX_ENUMERATE_DEGREE = {MAX_ENUMERATE_DEGREE}; "
            "the Burnside method counts it"
        )


class _Budget:
    """One node counter shared by every kernel call of a count."""

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def search(self, plan, group, fixed=(), collect=False):
        """Run the kernel on what is left of the budget; (count, homs)."""
        try:
            count, homs, nodes = _kernel.search_homs(
                plan, group, fixed, self.limit - self.spent, collect)
        except BudgetExceededError:
            raise BudgetExceededError(self.limit) from None
        self.spent += nodes
        return count, homs


def enumerate_homs(p: FinitePresentation, n: int, budget: int = DEFAULT_BUDGET):
    """Iterator over every homomorphism into Sym(n), in a deterministic order.

    Each homomorphism is a dict mapping generator symbol to Permutation.
    The search runs, and a degree above ``MAX_ENUMERATE_DEGREE`` is
    refused, on call.
    """
    _check_degree(n, enumerating=True)
    sym = _kernel.symmetric_group(n)
    _, homs = _Budget(budget).search(_compiled(p), sym, collect=True)
    return (
        {g: Permutation.from_zero_based(sym.perms[x])
         for g, x in zip(p.generators, hom)}
        for hom in homs
    )


def _conjugation_orbits(acting, group):
    """(representative, orbit size, stabilizer) per orbit of ``acting`` on ``group``.

    ``acting`` lists elements of the :class:`~borrays._homsearch_py.Group`
    ``group`` in ascending order, a subgroup acting by conjugation;
    representatives are the first orbit members in ``group``'s order.  A
    stabilizer is the representative's centralizer in ``acting``, ascending.
    """
    mul, inv = group.mul, group.inv
    seen = bytearray(len(mul))
    out = []
    for y in group.elements:
        if seen[y]:
            continue
        orbit, stabilizer = set(), []
        for h in acting:
            z = mul[mul[h][y]][inv[h]]  # h y h^-1
            orbit.add(z)
            if z == y:
                stabilizer.append(h)
        for z in orbit:
            seen[z] = 1
        out.append((y, len(orbit), stabilizer))
    return out


def _count_into(plan, group, budget: _Budget) -> int:
    """Homomorphisms into ``group``, a subgroup of Sym(n) with its table.

    Conjugating the images of the first two branching generators by one
    element of the group does not change the number of homomorphisms
    extending them.  So the first ranges over one representative per
    conjugacy class of the group, the second over one representative per
    orbit of the first image's centralizer in the group (its stabilizer
    from the first level), and each kernel call is weighted by both orbit
    sizes.  They are values for the plan's first two levels.
    """
    terms = [((), 1, group.elements)]
    for _ in plan.levels[:2]:
        terms = [
            (fixed + (y,), weight * size, stabilizer)
            for fixed, weight, acting in terms
            for y, size, stabilizer in _conjugation_orbits(acting, group)
        ]
    return sum(weight * budget.search(plan, group, fixed)[0]
               for fixed, weight, _ in terms)


def count_total(p: FinitePresentation, n: int,
                budget: int = DEFAULT_BUDGET) -> int:
    """Total homomorphisms into Sym(n)."""
    _check_degree(n)
    return _count_into(_compiled(p), _kernel.symmetric_group(n),
                       _Budget(budget))


def _orbit_count(homs, group):
    """Orbits of the hom set under simultaneous conjugation.

    ``homs`` are tuples of element indices of the
    :class:`~borrays._homsearch_py.Group` ``group``, a symmetric group.
    Closure is generated by the adjacent transpositions (i, i+1).
    """
    mul, perms = group.mul, group.perms
    n = len(perms[0])
    conjugations = []
    for i in range(n - 1):
        t = list(range(n))
        t[i], t[i + 1] = t[i + 1], t[i]
        t = bisect_left(perms, tuple(t))
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


def count_classes_enumerate(p: FinitePresentation, n: int,
                            budget: int = DEFAULT_BUDGET) -> HomClassCount:
    """Class count by full enumeration and explicit orbit partitioning."""
    _check_degree(n, enumerating=True)
    budget = _Budget(budget)
    sym = _kernel.symmetric_group(n)
    count, homs = budget.search(_compiled(p), sym, collect=True)
    return HomClassCount(n, count, _orbit_count(homs, sym), "enumerate",
                         budget.spent)


def count_classes_burnside(p: FinitePresentation, n: int,
                           budget: int = DEFAULT_BUDGET) -> HomClassCount:
    """Class count by Burnside average over conjugacy-class representatives.

    A homomorphism is fixed by conjugation with pi iff every generator
    image commutes with pi, i.e. iff it maps into the centralizer of pi.
    The terms come from the orbit split's orbit-stabilizer routine, with
    Sym(n) conjugating itself: each class's first element, its size and
    its centralizer.  The identity's class comes first, and its
    centralizer is Sym(n), so its term is the total.
    """
    _check_degree(n)
    plan = _compiled(p)
    budget = _Budget(budget)
    sym = _kernel.symmetric_group(n)
    terms = [(size, _count_into(plan, sym.subgroup(centralizer), budget))
             for _, size, centralizer in _conjugation_orbits(sym.elements, sym)]
    total = terms[0][1]
    acc = sum(size * fixed_count for size, fixed_count in terms)
    if acc % factorial(n):
        raise IntegrityError("Burnside sum is not divisible by n!")
    return HomClassCount(n, total, acc // factorial(n), "burnside",
                         budget.spent)
