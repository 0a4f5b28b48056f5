"""Equivalence and chirality of eventually periodic block sequences.

A multiray built as an infinite concatenation of blocks from
{A, Ab, As, Abs} is determined up to the relevant equivalences by any
tail of its block sequence.  Two such multirays admit an
orientation-preserving equivalence iff the sequences have identical
tails up to a shift, either directly or after applying bar-star to one
of them; they admit an orientation-reversing equivalence iff the same
holds after applying bar or star alone.  A sequence is achiral iff it is
tail-equivalent to its own bar or its own star transform.

Only eventually periodic sequences are handled: tail comparison then
reduces to cyclic-rotation equality of minimal period words.
"""

from dataclasses import dataclass
from typing import Optional

from .labels import ALL_LABELS, BlockLabel, parse_label

__all__ = [
    "EventuallyPeriodicSeq",
    "TailMatch",
    "EquivalenceReport",
    "value_at",
    "transform",
    "tails_equal",
    "equivalence",
    "achiral",
    "periodic_form_achiral",
    "parse_sequence",
    "format_sequence",
]

_OPS = {
    "bar": lambda lab: lab.bar(),
    "star": lambda lab: lab.star(),
    "barstar": lambda lab: lab.barstar(),
}


@dataclass(frozen=True)
class EventuallyPeriodicSeq:
    """Infinite sequence: finite preperiod, then a repeated period word."""

    preperiod: tuple
    period: tuple

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be nonempty")
        for lab in self.preperiod + self.period:
            if not isinstance(lab, BlockLabel):
                raise TypeError(f"sequence entries must be BlockLabel, got {lab!r}")


@dataclass(frozen=True)
class TailMatch:
    """Result of one tail comparison; shift/start form the witness."""

    holds: bool
    shift: Optional[int] = None
    start: Optional[int] = None


@dataclass(frozen=True)
class EquivalenceReport:
    cond1: TailMatch  # identical tails
    cond2: TailMatch  # tails equal after bar-star on the second sequence
    cond3: TailMatch  # tails equal after bar on the second sequence
    cond4: TailMatch  # tails equal after star on the second sequence

    @property
    def op_equivalent(self) -> bool:
        """An orientation-preserving equivalence exists."""
        return self.cond1.holds or self.cond2.holds

    @property
    def or_equivalent(self) -> bool:
        """An orientation-reversing equivalence exists."""
        return self.cond3.holds or self.cond4.holds

    @property
    def equivalent(self) -> bool:
        return self.op_equivalent or self.or_equivalent


def value_at(s: EventuallyPeriodicSeq, i: int) -> BlockLabel:
    """The i-th block, 1-based."""
    if type(i) is not int or i < 1:
        raise ValueError(f"index must be an int >= 1, got {i!r}")
    if i <= len(s.preperiod):
        return s.preperiod[i - 1]
    return s.period[(i - len(s.preperiod) - 1) % len(s.period)]


def transform(s: EventuallyPeriodicSeq, op: str) -> EventuallyPeriodicSeq:
    """Apply bar, star, or barstar to every entry."""
    try:
        f = _OPS[op]
    except KeyError:
        raise ValueError(
            f"unknown transform {op!r}; expected one of {sorted(_OPS)}"
        ) from None
    return EventuallyPeriodicSeq(
        tuple(f(lab) for lab in s.preperiod),
        tuple(f(lab) for lab in s.period),
    )


def _minimal_period(word):
    """Shortest w with word = w^k, via the border (failure) function."""
    m = len(word)
    fail = [0] * m
    k = 0
    for i in range(1, m):
        while k and word[i] != word[k]:
            k = fail[k - 1]
        if word[i] == word[k]:
            k += 1
        fail[i] = k
    p = m - fail[m - 1]
    return word[:p] if m % p == 0 else word


_CHAR = {lab: str(i) for i, lab in enumerate(ALL_LABELS)}


def _letters(word) -> str:
    """The word as a string, one character per label."""
    return "".join(map(_CHAR.__getitem__, word))


def _tail_word(s: EventuallyPeriodicSeq):
    """(minimal period word w, L) with value_at(s, i) = w[(i-L-1) mod |w|]
    for all i > L, where L = len(preperiod)."""
    return _minimal_period(s.period), len(s.preperiod)


def tails_equal(s: EventuallyPeriodicSeq, t: EventuallyPeriodicSeq) -> TailMatch:
    """Do s and t have identical tails up to an index shift?

    True iff there are n and N >= 1 with value_at(s, i) = value_at(t, i + n)
    for all i >= N; equivalently, iff the minimal period words agree up to
    cyclic rotation.  Minimal period words are primitive (not a proper
    power), so at most one rotation offset matches, and one substring
    search of w_s in w_t w_t finds it in time linear in the period.  The
    witness reports the smallest |n| (ties toward nonnegative n) and a
    valid N.
    """
    w_s, ls = _tail_word(s)
    w_t, lt = _tail_word(t)
    p = len(w_s)
    if p != len(w_t):
        return TailMatch(False)
    # The offset m with w_s[k] == w_t[(k + m) mod p] for all k.
    m = _letters(w_t + w_t).find(_letters(w_s))
    if m < 0:
        return TailMatch(False)
    # Every shift congruent to r mod p works; take r or r - p, the nearer
    # to 0, and r on a tie.
    r = (m - ls + lt) % p
    n = r if 2 * r <= p else r - p
    start = max(1, ls + 1, lt + 1 - n)
    return TailMatch(True, n, start)


def equivalence(s: EventuallyPeriodicSeq, t: EventuallyPeriodicSeq) -> EquivalenceReport:
    """Evaluate the four tail conditions governing equivalence."""
    return EquivalenceReport(
        cond1=tails_equal(s, t),
        cond2=tails_equal(s, transform(t, "barstar")),
        cond3=tails_equal(s, transform(t, "bar")),
        cond4=tails_equal(s, transform(t, "star")),
    )


def achiral(s: EventuallyPeriodicSeq):
    """Is s equivalent to its own mirror?

    Returns (verdict, condition, witness): condition is "bar" or "star"
    (the transform realizing the match) and witness its TailMatch, or
    (False, None, None).
    """
    for op in ("bar", "star"):
        match = tails_equal(s, transform(s, op))
        if match.holds:
            return True, op, match
    return False, None, None


def periodic_form_achiral(s: EventuallyPeriodicSeq) -> bool:
    """Does some tail of s read C bar(C) C bar(C) ... or C star(C) ... ?

    Searches words C up to the minimal tail period in length; a longer C
    cannot generate a shorter-period tail.
    """
    w, _ = _tail_word(s)
    p = len(w)
    for r in range(p):
        rot = w[r:] + w[:r]

        def tail_at(idx):
            return rot[idx % p]

        for length in range(1, p + 1):
            c = tuple(tail_at(i) for i in range(length))
            for op in ("bar", "star"):
                f = _OPS[op]
                u = c + tuple(f(lab) for lab in c)
                # Two periodic words agreeing this long agree forever.
                horizon = 2 * length + p
                if all(u[i % len(u)] == tail_at(i) for i in range(horizon)):
                    return True
    return False


def parse_sequence(text: str) -> EventuallyPeriodicSeq:
    """Parse "pre: <labels> ; per: <labels>" ("pre:" part optional)."""
    parts = [p.strip() for p in text.split(";")]
    pre: tuple = ()
    if len(parts) == 1:
        per_part = parts[0]
    elif len(parts) == 2:
        pre_part, per_part = parts
        if not pre_part.lower().startswith("pre:"):
            raise ValueError(
                f"expected 'pre: <labels>' before ';', got {pre_part!r}"
            )
        pre = tuple(parse_label(w) for w in pre_part[4:].split())
    else:
        raise ValueError("sequence must have at most one ';'")
    if not per_part.lower().startswith("per:"):
        raise ValueError(f"expected 'per: <labels>', got {per_part!r}")
    period = tuple(parse_label(w) for w in per_part[4:].split())
    return EventuallyPeriodicSeq(pre, period)


def format_sequence(s: EventuallyPeriodicSeq) -> str:
    per = "per: " + " ".join(lab.name for lab in s.period)
    if s.preperiod:
        return "pre: " + " ".join(lab.name for lab in s.preperiod) + " ; " + per
    return per
