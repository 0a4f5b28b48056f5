"""Counting homomorphisms into Sym(n), totals and conjugation classes.

Two homomorphisms are equivalent when a single permutation conjugates every
generator image of one onto the other.  Class counts are computed by two
independent routes: explicit orbits of a stabilizer on collected
homomorphisms (enumeration), and a Burnside average over conjugacy-class
representatives (counting homomorphisms into centralizers).

Both routes, and every total, rest on one orbit split (:func:`_split`,
Holt, Eick and O'Brien, *Handbook of Computational Group Theory*, 2005,
§4.1), built by one orbit-stabilizer routine, :func:`_conjugation_orbits`.
The first branching generator ranges over one representative y1 per
conjugacy class of the group, the second over one representative y2 per
orbit of y1's centralizer, and each term is weighted by both orbit sizes.
A total into a group (Sym(n), or a centralizer for a Burnside term) is the
sum of weight × extensions over its terms.  Every orbit of Sym(n) on the
homomorphisms meets exactly one term, and there it is one orbit of the
term's stabilizer S = C(y1) ∩ C(y2); enumeration collects the extensions
of the terms with a non-trivial S and finds those S-orbits one by one
(under a trivial S it only counts them).  The Burnside terms are
the orbits of Sym(n) conjugating itself, computed once per count and
shared with the split of its identity term, the total.  The two routes
share the kernel, the plan and the split's representatives and
stabilizers, but not the Burnside sum, the class sizes or the searches
into centralizers.

One kernel call runs all the terms of a group (enumeration makes two, one
counting and one collecting), with the group's classes from the same
routine as a lookup.  A level whose generator is conjugate
in the presented group to one known before it searches only the class of
that known value in the group searched, Sym(n) or a centralizer: if
``a = w b w^-1``, a homomorphism phi has ``phi(a) = phi(w) phi(b)
phi(w)^-1`` with ``phi(w)`` in that group.  Every Wirtinger crossing
relator makes two arcs of one strand conjugate.

``budget`` caps the search nodes of a whole count, summed over its kernel
calls (both routes' in :func:`count_classes_both`, which must agree).  A
node is one candidate tried, an element of the group or of a known
conjugate's class; a searched level spends all of its candidates when it
is entered, so the node totals are those of trying candidates one by one.  The search runs in the pure-Python kernel
:mod:`borrays._homsearch_py`, on group elements as indices into sorted
Sym(n) with a Cayley table, built once per count (once for both methods
of :func:`count_classes_both`); a centralizer is the list of its elements
over that table.  Each count
compiles its presentation once into a search plan (:func:`_compiled`):
the relators solved or checked at each branching generator, in a
branching order the plan chooses itself.  The kernel runs each level of
the plan as generated Python code, and skips the solves whose values
nothing reads.  The orbit split's two fixed images are values for the
plan's first two levels.  Degrees above ``MAX_DEGREE`` are refused,
because the table of Sym(n) holds (n!)^2 entries.
"""

from dataclasses import dataclass
from math import factorial

from . import _homsearch_py as _kernel
from .errors import BudgetExceededError, IntegrityError
from .presentations import FinitePresentation

__all__ = [
    "HomClassCount",
    "DEFAULT_BUDGET",
    "MAX_DEGREE",
    "kernel_name",
    "count_total",
    "count_classes_enumerate",
    "count_classes_burnside",
    "count_classes_both",
]

DEFAULT_BUDGET = 10**10

# Every count builds the Cayley table of Sym(n), (n!)^2 two-byte entries:
# 51 MB for Sym(7), while Sym(8)'s would need about 3.3 GB.
MAX_DEGREE = 7


def kernel_name() -> str:
    """Module name of the active search kernel."""
    return _kernel.__name__


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
    relators = tuple([tuple([(index[g], e) for g, e in rel]) for rel in p.relators])
    return _kernel.compile_plan(len(gens), relators, gens)


def _check_degree(n):
    if type(n) is not int:
        raise ValueError(f"degree {n!r} is not an int")
    if n < 0:
        raise ValueError(f"degree {n} is negative; Sym(n) needs n >= 0")
    if n > MAX_DEGREE:
        raise ValueError(
            f"degree {n} is above the largest supported degree, "
            f"MAX_DEGREE = {MAX_DEGREE}"
        )


class _Budget:
    """One node counter shared by every kernel call of a count."""

    def __init__(self, limit: int):
        if type(limit) is not int or limit < 0:
            raise ValueError(f"budget {limit!r} is not a non-negative int")
        self.limit = limit
        self.spent = 0

    def search(self, plan, group, terms, classes=None, collect=False):
        """Run the kernel on what is left of the budget; (count, homs)."""
        try:
            count, homs, nodes = _kernel.search_homs(
                plan, group, terms, self.limit - self.spent, collect, classes)
        except BudgetExceededError:
            raise BudgetExceededError(self.limit) from None
        self.spent += nodes
        return count, homs


def _conjugation_orbits(acting, group):
    """The orbits of ``acting`` on ``group`` by conjugation: (orbits, orbit_of).

    ``acting`` lists elements of the :class:`~borrays._homsearch_py.Group`
    ``group`` in ascending order, a subgroup acting by conjugation.
    ``orbits`` holds (representative, orbit size, stabilizer) per orbit;
    representatives are the first orbit members in ``group``'s order, and
    a stabilizer is the representative's centralizer in ``acting``,
    ascending.  ``orbit_of[z]`` is the orbit of each element ``z`` of
    ``group``, one tuple shared by its members: with ``acting`` the whole
    group, the class lookup of :func:`~borrays._homsearch_py.search_homs`.
    """
    mul, inv = group.mul, group.inv
    orbit_of = [None] * len(mul)
    orbits = []
    for y in group.elements:
        if orbit_of[y] is not None:
            continue
        orbit, stabilizer = set(), []
        for h in acting:
            z = mul[mul[h][y]][inv[h]]  # h y h^-1
            orbit.add(z)
            if z == y:
                stabilizer.append(h)
        orbit = tuple(orbit)
        for z in orbit:
            orbit_of[z] = orbit
        orbits.append((y, len(orbit), stabilizer))
    return orbits, orbit_of


def _split(plan, group, classes):
    """The orbit split of a count into ``group``: (fixed, weight, stabilizer) terms.

    Conjugating the images of the first two branching generators by one
    element of the group carries the homomorphisms extending them onto
    those extending the conjugates.  So the first ranges over one
    representative per conjugacy class of the group, the second over one
    representative per orbit of the first image's centralizer in the group
    (its stabilizer from the first level), and each term is weighted by
    both orbit sizes.  ``fixed`` holds the values for the plan's first two
    levels (fewer if the plan has fewer), and ``stabilizer`` their joint
    centralizer in the group, ascending.

    classes: the group's orbits on itself, the first item of
        ``_conjugation_orbits(group.elements, group)``.
    """
    terms = [((), 1, group.elements)]
    for _ in plan.levels[:2]:
        terms = [
            (fixed + (y,), weight * size, stabilizer)
            for fixed, weight, acting in terms
            for y, size, stabilizer in (
                _conjugation_orbits(acting, group)[0] if fixed else classes)
        ]
    return terms


def _count_into(plan, group, budget: _Budget, classes=None) -> int:
    """Homomorphisms into ``group``, a subgroup of Sym(n) with its table.

    One kernel call runs every term of the orbit split, weighted by its
    orbit sizes, with the group's classes as the class lookup.
    ``classes`` is ``_conjugation_orbits(group.elements, group)``, if the
    caller has it already.
    """
    orbits, orbit_of = classes or _conjugation_orbits(group.elements, group)
    terms = [(fixed, weight) for fixed, weight, _ in _split(plan, group, orbits)]
    return budget.search(plan, group, terms, orbit_of)[0]


def _prepared(p: FinitePresentation, n: int, budget: int):
    """(plan, Sym(n), Sym(n)'s ``_conjugation_orbits``, budget) of a count;
    the degree is checked before anything is built."""
    _check_degree(n)
    plan = _compiled(p)
    budget = _Budget(budget)
    sym = _kernel.symmetric_group(n)
    return plan, sym, _conjugation_orbits(sym.elements, sym), budget


def count_total(p: FinitePresentation, n: int,
                budget: int = DEFAULT_BUDGET) -> int:
    """Total homomorphisms into Sym(n)."""
    plan, sym, classes, budget = _prepared(p, n, budget)
    return _count_into(plan, sym, budget, classes)


def _orbit_count(homs, stabilizer, group):
    """Orbits of ``stabilizer`` conjugating the hom set ``homs``.

    ``homs`` are tuples of element indices of the
    :class:`~borrays._homsearch_py.Group` ``group``, and ``stabilizer``
    lists elements of ``group``.  Each new homomorphism is conjugated by
    every element, which marks its whole orbit seen; a conjugate outside
    ``homs`` raises IntegrityError.
    """
    mul, inv = group.mul, group.inv
    hom_set = set(homs)
    seen = set()
    orbits = 0
    for hom in homs:
        if hom in seen:
            continue
        orbits += 1
        for h in stabilizer:
            row, h_inv = mul[h], inv[h]
            conj = tuple([mul[row[x]][h_inv] for x in hom])  # h x h^-1
            if conj not in hom_set:
                raise IntegrityError("hom set is not conjugation-closed")
            seen.add(conj)
    return orbits


def _enumerate(plan, sym, classes, budget: _Budget) -> HomClassCount:
    """Enumeration's class count; ``nodes`` is its own share of ``budget``."""
    start = budget.spent
    n = len(sym.perms[0])
    orbits, orbit_of = classes
    split = _split(plan, sym, orbits)
    # Under a trivial S each extension is its own orbit, and the term's
    # weight is n!/|S| = n!: one kernel call only counts these extensions.
    free, _ = budget.search(
        plan, sym, [(fixed, 1) for fixed, _, s in split if len(s) == 1], orbit_of)
    held = [term for term in split if len(term[2]) > 1]
    _, homs = budget.search(plan, sym, [(fixed, 1) for fixed, _, _ in held],
                            orbit_of, collect=True)
    total, count = factorial(n) * free, free
    for (_, weight, stabilizer), found in zip(held, homs):
        total += weight * len(found)
        count += _orbit_count(found, stabilizer, sym)
    return HomClassCount(n, total, count, "enumerate", budget.spent - start)


def _burnside(plan, sym, classes, budget: _Budget) -> HomClassCount:
    """Burnside's class count; ``nodes`` is its own share of ``budget``."""
    start = budget.spent
    n = len(sym.perms[0])
    total = _count_into(plan, sym, budget, classes)
    acc = total + sum(
        size * _count_into(plan, sym.subgroup(centralizer), budget)
        for _, size, centralizer in classes[0][1:])
    if acc % factorial(n):
        raise IntegrityError("Burnside sum is not divisible by n!")
    return HomClassCount(n, total, acc // factorial(n), "burnside",
                         budget.spent - start)


def count_classes_enumerate(p: FinitePresentation, n: int,
                            budget: int = DEFAULT_BUDGET) -> HomClassCount:
    """Class count by explicit orbits of the orbit split's stabilizers.

    Every orbit of Sym(n) on the homomorphisms meets exactly one term
    (y1, y2) of the split, and there it is one orbit of the term's
    stabilizer S = C(y1) ∩ C(y2) on the homomorphisms extending (y1, y2).
    So the extensions of the terms with a non-trivial S are collected, by
    one kernel call, and their S-orbits counted term by term.
    """
    return _enumerate(*_prepared(p, n, budget))


def count_classes_burnside(p: FinitePresentation, n: int,
                           budget: int = DEFAULT_BUDGET) -> HomClassCount:
    """Class count by Burnside average over conjugacy-class representatives.

    A homomorphism is fixed by conjugation with pi iff every generator
    image commutes with pi, i.e. iff it maps into the centralizer of pi.
    The terms come from the orbit split's orbit-stabilizer routine, with
    Sym(n) conjugating itself: each class's first element, its size and
    its centralizer.  The identity's class comes first, and its
    centralizer is Sym(n), so its term is the total; its split reuses
    these classes.
    """
    return _burnside(*_prepared(p, n, budget))


def count_classes_both(p: FinitePresentation, n: int,
                       budget: int = DEFAULT_BUDGET
                       ) -> tuple[HomClassCount, HomClassCount]:
    """(enumeration, Burnside) class counts, which must agree.

    Both search one plan and one table of Sym(n), and ``budget`` caps their
    nodes together: enumeration runs first, then Burnside on what is left.
    Each ``nodes`` is that method's share.  Counts that differ in classes
    or total raise IntegrityError."""
    prepared = _prepared(p, n, budget)
    e, b = _enumerate(*prepared), _burnside(*prepared)
    differ = " and ".join(
        name for name, x, y in (("classes", e.class_count, b.class_count),
                                ("total", e.total_homs, b.total_homs))
        if x != y)
    if differ:
        raise IntegrityError(
            f"methods disagree on {differ}: enumerate classes "
            f"{e.class_count} total {e.total_homs} vs burnside classes "
            f"{b.class_count} total {b.total_homs}"
        )
    return e, b
