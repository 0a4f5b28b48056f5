"""Annular strand diagrams for tangle blocks in a thickened 2-sphere.

A diagram records, per strand, the ordered list of signed-crossing passages
met while traversing the strand from the inner boundary sphere to the outer
one, together with the cyclic order of strand endpoints on each boundary.
The model is purely combinatorial: no planar embedding is stored or checked
beyond the structural invariants enforced by :func:`validate`.

Crossing sign convention: a sign is the int 1 or -1 (JSON ``true`` and
``1.0`` are refused), and +1 means the under-strand crosses right-to-left
beneath the over-strand when looking along the over-strand's orientation.
This is the convention under which the builtin ``A`` diagram yields its
standard presentation (see :mod:`borrays.presentations`), with the
under-arc conjugated as ``out = over^-1 * in * over`` at a +1 crossing.
"""

import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple

__all__ = [
    "Passage",
    "Violation",
    "AnnularDiagram",
    "builtin",
    "BUILTIN_NAMES",
    "MAX_EPS_STRANDS",
    "bar",
    "star",
    "concat",
    "forget",
    "validate",
    "is_sign",
    "normalize",
    "from_braid",
    "to_json",
    "from_json",
]

OVER = "o"
UNDER = "u"


class Passage(NamedTuple):
    crossing: int
    role: str  # "o" or "u"


class Violation(NamedTuple):
    kind: str
    message: str


@dataclass(frozen=True)
class AnnularDiagram:
    """Immutable combinatorial model of an n-strand block diagram.

    strands[i] lists the passages of strand i+1, inner boundary to outer.
    ``signs`` maps crossing id to +-1; it is stored as a read-only view of
    a copy of the mapping given, so a diagram can be shared.
    ``inner_order``/``outer_order`` give the counterclockwise cyclic order
    of strand indices (1-based) on the two boundary spheres.
    """

    n_strands: int
    strands: tuple
    signs: Mapping = field(hash=False)
    inner_order: tuple
    outer_order: tuple

    def __post_init__(self):
        object.__setattr__(self, "signs", MappingProxyType(dict(self.signs)))

    def __reduce__(self):
        # A mapping proxy cannot be pickled; rebuild from a plain dict.
        return type(self), (self.n_strands, self.strands, dict(self.signs),
                            self.inner_order, self.outer_order)

    @property
    def crossing_count(self) -> int:
        return len(self.signs)

    def strand(self, k: int):
        """Passages of strand k (1-based)."""
        return self.strands[k - 1]


def _mk(n_strands, strands, signs, inner_order, outer_order) -> AnnularDiagram:
    return AnnularDiagram(
        n_strands=n_strands,
        strands=tuple(tuple(Passage(*p) for p in s) for s in strands),
        signs=signs,
        inner_order=tuple(inner_order),
        outer_order=tuple(outer_order),
    )


def is_sign(x):
    return type(x) is int and x in (1, -1)


def _brief(value):
    """``repr(value)`` if short, else its type and size: a bad value read
    from a file may be huge, and its message stays one short line."""
    text = repr(value)
    if len(text) <= 40:
        return text
    if hasattr(value, "__len__"):
        return f"<{type(value).__name__} of length {len(value)}>"
    return f"<{type(value).__name__} of {len(text)} characters>"


def validate(d: AnnularDiagram):
    """Return a list of Violation records; empty iff the diagram is valid."""
    out = []
    n = _brief(d.n_strands)
    if d.n_strands < 1:
        out.append(Violation("bad-strand-count", f"n_strands={n} < 1"))
    if len(d.strands) != d.n_strands:
        out.append(
            Violation(
                "bad-strand-count",
                f"{len(d.strands)} passage lists for n_strands={n}",
            )
        )
    for order, side in ((d.inner_order, "inner"), (d.outer_order, "outer")):
        # The length test first: a huge n_strands must not build a huge list.
        if (len(order) != d.n_strands
                or sorted(order) != list(range(1, d.n_strands + 1))):
            kind = (
                "duplicate-boundary"
                if len(set(order)) != len(order)
                else "bad-boundary"
            )
            out.append(Violation(
                kind, f"{side}_order {_brief(list(order))} is not a permutation"))
    seen = {}  # crossing id -> list of roles
    for si, strand in enumerate(d.strands, start=1):
        for p in strand:
            if p.role not in (OVER, UNDER):
                out.append(
                    Violation("bad-role", f"strand {si}: role {_brief(p.role)}")
                )
            if p.crossing not in d.signs:
                out.append(
                    Violation(
                        "unknown-crossing",
                        f"strand {si} references crossing {_brief(p.crossing)} "
                        "with no sign",
                    )
                )
            seen.setdefault(p.crossing, []).append(p.role)
    for c, sign in d.signs.items():
        if not is_sign(sign):
            out.append(Violation(
                "bad-sign", f"crossing {_brief(c)} has sign {_brief(sign)}"))
        roles = sorted(seen.get(c, []))
        if roles != [OVER, UNDER]:
            kind = "dangling-crossing" if len(roles) != 2 else "role-mismatch"
            out.append(Violation(
                kind, f"crossing {_brief(c)} has passage roles {_brief(roles)}"))
    return out


def _require_valid(d: AnnularDiagram):
    """ValueError naming the first violation and how many more there are."""
    violations = validate(d)
    if violations:
        more = len(violations) - 1
        raise ValueError(
            f"invalid diagram: {violations[0].message}"
            + (f"; and {more} more" if more else "")
        )


def bar(d: AnnularDiagram) -> AnnularDiagram:
    """Reflection across the projection plane: switch every crossing."""
    return _mk(
        d.n_strands,
        [[(p.crossing, UNDER if p.role == OVER else OVER) for p in s] for s in d.strands],
        {c: -s for c, s in d.signs.items()},
        d.inner_order,
        d.outer_order,
    )


def star(d: AnnularDiagram) -> AnnularDiagram:
    """Radial flip (inversion across the intermediate sphere).

    Boundary orders swap, each strand is traversed in the opposite radial
    direction, the z-order of branches at each crossing is unchanged, and
    the planar orientation reversal negates every crossing sign.
    """
    return _mk(
        d.n_strands,
        [list(reversed(s)) for s in d.strands],
        {c: -s for c, s in d.signs.items()},
        d.outer_order,
        d.inner_order,
    )


def concat(first: AnnularDiagram, *rest: AnnularDiagram) -> AnnularDiagram:
    """Glue each diagram's outer boundary to the next one's inner boundary.

    One pass over the blocks; the result, crossing ids included, is that
    of gluing them pairwise from the left, and one block gives an equal
    diagram.
    """
    blocks = (first,) + rest
    strands = [[(p.crossing, p.role) for p in s] for s in first.strands]
    signs = dict(first.signs)
    top = max(signs, default=0)
    for d1, d2 in zip(blocks, blocks[1:]):
        if first.n_strands != d2.n_strands:
            raise ValueError(
                f"cannot concatenate: {first.n_strands} strands vs {d2.n_strands}"
            )
        if d1.outer_order != d2.inner_order:
            raise ValueError(
                "cannot concatenate: outer boundary order "
                f"{list(d1.outer_order)} does not match inner boundary order "
                f"{list(d2.inner_order)}"
            )
        shift = top + 1 - min(d2.signs, default=0)
        for strand, s2 in zip(strands, d2.strands):
            strand.extend((p.crossing + shift, p.role) for p in s2)
        signs.update({c + shift: s for c, s in d2.signs.items()})
        if d2.signs:
            top = max(d2.signs) + shift
    return _mk(first.n_strands, strands, signs, first.inner_order,
               blocks[-1].outer_order)


def forget(d: AnnularDiagram, k: int) -> AnnularDiagram:
    """Remove strand k (1-based) and every crossing it participates in."""
    if type(k) is not int or not 1 <= k <= d.n_strands:
        raise ValueError(f"strand index {_brief(k)} out of range 1..{d.n_strands}")
    if d.n_strands < 2:
        raise ValueError("cannot forget the only strand")
    dead = {p.crossing for p in d.strands[k - 1]}
    renum = {s: (s if s < k else s - 1) for s in range(1, d.n_strands + 1) if s != k}
    strands = [
        [(p.crossing, p.role) for p in s if p.crossing not in dead]
        for i, s in enumerate(d.strands, start=1)
        if i != k
    ]
    signs = {c: s for c, s in d.signs.items() if c not in dead}
    inner = [renum[s] for s in d.inner_order if s != k]
    outer = [renum[s] for s in d.outer_order if s != k]
    return _mk(d.n_strands - 1, strands, signs, inner, outer)


def normalize(d: AnnularDiagram) -> AnnularDiagram:
    """Relabel crossing ids by first appearance along strand 1, 2, ...

    Used for structural equality tests; two diagrams are equal up to
    crossing renaming iff their normalizations are equal.
    """
    relabel = {}
    for s in d.strands:
        for p in s:
            if p.crossing not in relabel:
                relabel[p.crossing] = len(relabel) + 1
    return _mk(
        d.n_strands,
        [[(relabel[p.crossing], p.role) for p in s] for s in d.strands],
        {relabel[c]: s for c, s in d.signs.items()},
        d.inner_order,
        d.outer_order,
    )


def from_braid(n_strands: int, moves) -> AnnularDiagram:
    """Build a diagram from a braid-like move list.

    Each move is ``(j, over_side, sign)``: the strands currently at angular
    positions j and j+1 (1-based) cross, with the strand on side
    ``over_side`` ("l" or "r") passing over, then swap positions.  Strand i
    starts at inner position i.
    """
    if type(n_strands) is not int:
        raise ValueError(f"braid strand count {_brief(n_strands)} is not an int")
    at = list(range(1, n_strands + 1))  # position -> strand
    strands = [[] for _ in range(n_strands)]
    signs = {}
    for cid, (j, over_side, sign) in enumerate(moves, start=1):
        if type(j) is not int or not 1 <= j < n_strands:
            raise ValueError(f"braid position {j} out of range")
        if over_side not in ("l", "r"):
            raise ValueError(
                f"braid move {cid}: over side {over_side!r} is not 'l' or 'r'")
        left, right = at[j - 1], at[j]
        over, under = (left, right) if over_side == "l" else (right, left)
        strands[over - 1].append((cid, OVER))
        strands[under - 1].append((cid, UNDER))
        signs[cid] = sign
        at[j - 1], at[j] = right, left
    inner = list(range(1, n_strands + 1))
    return _mk(n_strands, strands, signs, inner, at)


# Builtin A, the Borromean block: six positive crossings, each strand
# dipping under the other two strands' middle arcs, wired so that the
# Wirtinger presentation is the standard one for this block (strands x,
# y, z with arcs x1..x3 etc., crossing relations y2 x2 = x1 y2,
# x2 y3 = y2 x2, x2 z2 = z1 x2, z2 x3 = x2 z2, z2 y2 = y1 z2,
# y2 z3 = z2 y2).  The order of the two over-passages on strand 2's
# middle arc is reversed relative to strands 1 and 3; that ordering is
# what makes the wiring planar-realizable (its mirror then has the same
# homomorphism counts as the block itself).
_A_STRANDS = (
    ((1, UNDER), (2, OVER), (3, OVER), (4, UNDER)),  # x
    ((5, UNDER), (6, OVER), (1, OVER), (2, UNDER)),  # y
    ((3, UNDER), (4, OVER), (5, OVER), (6, UNDER)),  # z
)

# The fixed blocks are values, built once and shared by every ``builtin``
# call; dirac is one full twist on three strands, the square of the
# half-twist braid.
_A = _mk(3, _A_STRANDS, {c: 1 for c in range(1, 7)}, (1, 2, 3), (1, 2, 3))
_HALF_TWIST = [(1, "l", 1), (2, "l", 1), (1, "l", 1)]
_BUILTINS = {"A": _A, "Ab": bar(_A), "As": star(_A), "Abs": bar(star(_A)),
             "dirac": from_braid(3, _HALF_TWIST * 2)}

BUILTIN_NAMES = ("A", "Ab", "As", "Abs", "eps1", "eps2", "eps3", "dirac")

# Largest N accepted in "epsN"; a larger block is an input error, not a
# request to build millions of strands.
MAX_EPS_STRANDS = 1000


def _canonical_int(text):
    """The int ``text`` spells if ``str`` of it gives ``text`` back, else
    None: no "+", leading zero, space, "_" or non-ASCII digit."""
    try:
        n = int(text)
    except ValueError:
        return None
    return n if str(n) == text else None


def builtin(name: str) -> AnnularDiagram:
    """Return one of the hardcoded block diagrams.

    "A" is the Borromean block; "Ab", "As", "Abs" its bar/star transforms;
    "epsN" the trivial N-strand block for 1 <= N <= MAX_EPS_STRANDS (1000);
    "dirac" the full-twist block.  A larger N raises ValueError.  Every
    block but epsN is one shared read-only value.
    """
    if name in _BUILTINS:
        return _BUILTINS[name]
    n = _canonical_int(name[3:]) if name.startswith("eps") else None
    if n is not None and n > MAX_EPS_STRANDS:
        raise ValueError(
            f"builtin {name!r}: epsN takes at most {MAX_EPS_STRANDS} strands"
        )
    if n is not None and n >= 1:
        order = range(1, n + 1)
        return _mk(n, [[] for _ in order], {}, order, order)
    raise ValueError(
        f"unknown builtin diagram {name!r}; valid names are: "
        + ", ".join(BUILTIN_NAMES)
        + f" (epsN for 1 <= N <= {MAX_EPS_STRANDS})"
    )


def to_json(d: AnnularDiagram) -> str:
    obj = {
        "n_strands": d.n_strands,
        "strands": [[{"c": p.crossing, "role": p.role} for p in s] for s in d.strands],
        "signs": {str(c): s for c, s in d.signs.items()},
        "inner_order": list(d.inner_order),
        "outer_order": list(d.outer_order),
    }
    return json.dumps(obj, indent=2)


def _typed(value, kind, name):
    """``value`` if it is a ``kind`` (booleans are not ints), else ValueError.

    The error names the type it got, not the value, which may be huge.
    """
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(
            f"malformed diagram JSON: {name} must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def _sign_key(key):
    """The crossing id a ``signs`` key names, spelled as ``to_json`` writes
    it; any other spelling could name a crossing twice."""
    c = _canonical_int(key)
    if c is None:
        raise ValueError(
            f"malformed diagram JSON: signs key {_brief(key)} is not a "
            "canonical integer"
        )
    return c


def from_json(text: str) -> AnnularDiagram:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("malformed diagram JSON: nested too deeply") from None
    obj = _typed(doc, dict, "the document")
    try:
        strands = [
            [
                (_typed(_typed(p, dict, "passage")["c"], int, "passage c"),
                 _typed(p["role"], str, "passage role"))
                for p in _typed(s, list, "strand")
            ]
            for s in _typed(obj["strands"], list, "strands")
        ]
        signs = {
            _sign_key(c): s
            for c, s in _typed(obj["signs"], dict, "signs").items()
        }
        orders = [
            [_typed(k, int, f"{side} entry") for k in _typed(obj[side], list, side)]
            for side in ("inner_order", "outer_order")
        ]
        d = _mk(_typed(obj["n_strands"], int, "n_strands"), strands, signs, *orders)
    except KeyError as exc:
        raise ValueError(f"malformed diagram JSON: missing field {exc}") from exc
    _require_valid(d)
    return d
