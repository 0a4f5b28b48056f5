"""The four benchmark workloads and the independent checks of their outputs.

Each workload is a list of :class:`Case` objects: one ``borrays`` argv list
and what its output must satisfy.  A seed fixes the list.  The checks never
use the program's own earlier output.  They use the paper's published
values, identities that hold for every input (H1 = Z^2 for a 3-strand
block word), facts known by construction (t built from s by a known shift
and transform), and a brute-force tail oracle for short periods.

This module imports nothing from ``borrays``, so the references stay
independent of the code under test.
"""

import math
import random
import re
from dataclasses import dataclass, field

__all__ = ["Case", "WORKLOADS", "build", "check"]


@dataclass
class Case:
    """One command and the facts its output must show."""

    argv: list
    kind: str  # a key of _CHECKS
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# paper-tables: the ROADMAP's end-to-end runs, checked against the paper.

EPS3_CLASSES = (1, 4, 11, 43, 161)
A_CLASSES = (1, 4, 11, 47, 193)
PRODUCT_SYM4 = 63
PRODUCT_SYM5 = {"A": 342, "Ab": 342, "As": 354, "Abs": 330}
# One product into Sym(5) keeps a pass near 15 s on the pure kernel; A·As
# has the value that differs from its neighbours.
PAPER_SYM5_PRODUCT = "As"
REALIZED = 96  # of 384 candidate diffeomorphism types


def _homcount(expr, n, classes, total=None, method="burnside"):
    argv = ["homcount", "--expr", expr, "--sym", str(n)]
    if method != "burnside":
        argv += ["--method", method]
    methods = ("enumerate", "burnside") if method == "both" else (method,)
    return Case(argv, "homcount",
                {"n": n, "classes": classes, "total": total, "methods": methods})


def paper_tables(rng, tiny):
    top = 3 if tiny else 5
    cases = []
    for n in range(1, top + 1):
        # eps3 presents the free group F2, so it has (n!)^2 homs.
        cases.append(_homcount("eps3", n, EPS3_CLASSES[n - 1], math.factorial(n) ** 2))
        cases.append(_homcount("A", n, A_CLASSES[n - 1]))
    if not tiny:
        for x in PRODUCT_SYM5:
            cases.append(_homcount(f"A {x}", 4, PRODUCT_SYM4))
        x = PAPER_SYM5_PRODUCT
        cases.append(_homcount(f"A {x}", 5, PRODUCT_SYM5[x]))
        cases.append(Case(["groupoid"], "groupoid-table"))
    cases.append(Case(["groupoid", "--emit", "list"], "groupoid-list"))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# enumerate-crosscheck: full search, every hom collected, then _orbit_count.

ENUMERATE_SYM4 = {
    "eps3": 43, "dirac": 43, "A": 47, "Ab": 47, "As": 47, "Abs": 47,
    "A A": 63, "A Ab": 63, "A As": 63, "A Abs": 63,
}


def enumerate_crosscheck(rng, tiny):
    if tiny:
        # eps3 and dirac both present F2; A has 11 classes at Sym(3) too.
        cases = [_homcount(e, 3, 11, method="enumerate") for e in ("eps3", "dirac", "A")]
    else:
        cases = [_homcount(e, 4, c, 576 if e == "eps3" else None, "enumerate")
                 for e, c in ENUMERATE_SYM4.items()]
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# block-words: long mixed words through diagrams, presentation, ordering,
# Smith normal form; the (A Ab As Abs)^k prefixes hit the kernel's cliff.

BLOCKS = ("A", "Ab", "As", "Abs", "dirac", "eps3")
CROSSINGS = {"A": 6, "Ab": 6, "As": 6, "Abs": 6, "dirac": 6, "eps3": 0}
# Every word holds each block equally often, in seeded order, so all seeds
# do about the same work.  At these lengths ordering (_compiled) and Smith
# normal form each take a visible share of a pass; Smith form grows about
# as the cube of the length (14 s at 200 blocks).
WORD_LENGTHS = (48, 54, 60, 66, 72, 78)
PREFIX = "A Ab As Abs"
PREFIX_POWERS = (1, 2, 3)  # k = 4 takes 13 s on its own
# Tietze output grows exponentially and, at 8 blocks, varies a hundredfold
# with block order, so the 8-block word is fixed: PREFIX twice (~170k
# letters).  The seeded 6-block words hold each block once.
SIMPLIFY_SEEDED = 2


def _block_word(rng, length):
    blocks = [BLOCKS[i % len(BLOCKS)] for i in range(length)]
    rng.shuffle(blocks)
    return blocks


def _present(blocks, simplify):
    argv = ["present", "--expr", " ".join(blocks), "--abelianization"]
    expect = {}
    if simplify:
        argv.append("--simplify")
    else:
        # One arc per strand plus one per under-crossing; one relator per
        # crossing plus the inner vertex relation.
        crossings = sum(CROSSINGS[b] for b in blocks)
        expect = {"generators": 3 + crossings, "relators": crossings + 1}
    return Case(argv, "present", expect)


def block_words(rng, tiny):
    lengths = (6, 12) if tiny else WORD_LENGTHS
    powers = PREFIX_POWERS[:1] if tiny else PREFIX_POWERS
    cases = []
    for length in lengths:
        blocks = _block_word(rng, length)
        # |Hom(G, Sym(2))| = |Hom(H1, Z/2)| = 4, and Sym(2) is abelian.
        cases.append(_homcount(" ".join(blocks), 2, 4, 4))
        cases.append(_present(blocks, simplify=False))
    for k in powers:
        cases.append(_homcount(" ".join([PREFIX] * k), 3, None, 36, "both"))
    for k in powers[:2]:
        cases.append(_present(PREFIX.split() * k, simplify=True))
    for _ in range(SIMPLIFY_SEEDED):
        cases.append(_present(_block_word(rng, len(BLOCKS)), simplify=True))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# classify: sequences and cli only.

LABELS = ("A", "Ab", "As", "Abs")
TRANSFORMS = {
    "id": {x: x for x in LABELS},
    "barstar": {"A": "Abs", "Ab": "As", "As": "Ab", "Abs": "A"},
    "bar": {"A": "Ab", "Ab": "A", "As": "Abs", "Abs": "As"},
    "star": {"A": "As", "As": "A", "Ab": "Abs", "Abs": "Ab"},
}
# The classifier's conditions compare s with t, barstar(t), bar(t), star(t).
CONDITIONS = ("id", "barstar", "bar", "star")
SHORT_CLASSIFY, SHORT_ACHIRAL = 600, 400
MAX_PERIOD, MAX_PREPERIOD = 8, 5
# The paper's alternating family A^m Ab^m.  Rotation matching is quadratic
# in the period, so these calls set the latency tail.
FAMILY_M = (40, 80, 120, 160, 200, 240, 280, 320)
ORACLE_MAX_LCM = 64


def _apply(op, word):
    return tuple(TRANSFORMS[op][x] for x in word)


def _rotate(word, r):
    r %= len(word)
    return word[r:] + word[:r]


def _seq_text(pre, per):
    text = "per: " + " ".join(per)
    return "pre: " + " ".join(pre) + " ; " + text if pre else text


def _random_word(rng, lo, hi):
    return tuple(rng.choice(LABELS) for _ in range(rng.randint(lo, hi)))


def _random_seq(rng):
    per = _random_word(rng, 1, MAX_PERIOD)
    if len(per) <= MAX_PERIOD // 2 and rng.random() < 0.25:
        per = per * 2  # a period that is not minimal
    return _random_word(rng, 0, MAX_PREPERIOD), per


def _classify(s, t, known=None):
    return Case(["classify", "--s1", _seq_text(*s), "--s2", _seq_text(*t)],
                "classify", {"s": s, "t": t, "known": known or {}})


def _achiral(s, known=None):
    return Case(["achiral", "--s", _seq_text(*s)], "achiral",
                {"s": s, "known": known})


def classify(rng, tiny):
    n_classify, n_achiral = (12, 8) if tiny else (SHORT_CLASSIFY, SHORT_ACHIRAL)
    cases = []
    for i in range(n_classify):
        s = _random_seq(rng)
        if i % 2:
            cases.append(_classify(s, _random_seq(rng)))
        else:
            # t's tail, after op, is a rotation of s's tail.
            op = rng.choice(CONDITIONS)
            per = _rotate(_apply(op, s[1]), rng.randrange(len(s[1])))
            t = (_random_word(rng, 0, MAX_PREPERIOD), per)
            cases.append(_classify(s, t, {op: True}))
    for i in range(n_achiral):
        if i % 2:
            cases.append(_achiral(_random_seq(rng)))
        else:
            # C op(C) repeated is its own op-transform shifted by |C|.
            c = _random_word(rng, 1, MAX_PERIOD // 2)
            per = c + _apply(rng.choice(("bar", "star")), c)
            cases.append(_achiral((_random_word(rng, 0, MAX_PREPERIOD), per), True))
    family = (2, 3) if tiny else FAMILY_M
    for j, m in enumerate(family):
        per = ("A",) * m + ("Ab",) * m
        pre = _random_word(rng, 0, MAX_PREPERIOD)
        cases.append(_achiral((pre, per), True))
        # bar(A^m Ab^m) is a rotation of it; barstar and star change letters.
        shifted = (_random_word(rng, 0, MAX_PREPERIOD), _rotate(per, rng.randrange(2 * m)))
        cases.append(_classify((pre, per), shifted,
                               {"id": True, "barstar": False, "bar": True, "star": False}))
        starred = (shifted[0], _apply("star", shifted[1]))
        cases.append(_classify((pre, per), starred,
                               {"id": False, "barstar": True, "bar": False, "star": True}))
        # Minimal periods 2m and 2m' differ, so no condition holds.
        m2 = family[(j + 1) % len(family)]
        other = ((), ("A",) * m2 + ("Ab",) * m2)
        cases.append(_classify((pre, per), other, dict.fromkeys(CONDITIONS, False)))
    rng.shuffle(cases)
    return cases


WORKLOADS = {
    "paper-tables": paper_tables,
    "enumerate-crosscheck": enumerate_crosscheck,
    "block-words": block_words,
    "classify": classify,
}


def build(workload, seed, tiny=False):
    """The seeded case list of one workload."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), tiny)


# ---------------------------------------------------------------------------
# Checks.  Each returns None when the output is right, else a reason.

HOM_LINE = re.compile(
    r"^.*  Sym\((\d+)\)  classes: (\d+)  total: (\d+)  method: (\w+)$")
ABEL_LINE = re.compile(r"^abelianization: rank (\d+), torsion \[(.*)\]$")
WITNESS = re.compile(r"^yes \(shift n=(-?\d+), from index N=(\d+)\)$")
COND_PREFIX = ("cond1 identical tails:", "cond2 tails equal after bar-star:",
               "cond3 tails equal after bar:", "cond4 tails equal after star:")


def check(case, rc, out):
    """Reason the output of ``case`` is wrong, or None."""
    if rc != 0:
        return f"exit code {rc}"
    return _CHECKS[case.kind](case.expect, out.splitlines())


def _check_homcount(expect, lines):
    rows = [HOM_LINE.match(line) for line in lines]
    if len(rows) != len(expect["methods"]) or not all(rows):
        return f"unexpected output {lines!r}"
    got = [(int(r[1]), int(r[2]), int(r[3]), r[4]) for r in rows]
    if [g[3] for g in got] != list(expect["methods"]):
        return f"methods {[g[3] for g in got]}"
    if len({g[1:3] for g in got}) != 1:
        return f"methods disagree: {got}"
    n, classes, total, _ = got[0]
    if n != expect["n"]:
        return f"degree {n}"
    if expect["classes"] is not None and classes != expect["classes"]:
        return f"classes {classes}, expected {expect['classes']}"
    if expect["total"] is not None and total != expect["total"]:
        return f"total {total}, expected {expect['total']}"
    return None


def _exponent_sums(relator_lines, generators):
    index = {g: i for i, g in enumerate(generators)}
    rows = []
    for line in relator_lines:
        row = [0] * len(generators)
        for token in line.split():
            inverse = token[0].isupper()
            row[index[token[0].lower() + token[1:]]] += -1 if inverse else 1
        rows.append(row)
    return rows


def _rank_mod(rows, p):
    rows = [[x % p for x in row] for row in rows]
    rank, cols = 0, len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _check_present(expect, lines):
    if len(lines) < 2 or not lines[0].startswith("gens: "):
        return "no generator line"
    abel = ABEL_LINE.match(lines[-1])
    if not abel:
        return "no abelianization line"
    # A 3-strand block word has H1 = Z^2: rank 2 and no torsion.
    if int(abel[1]) != 2 or abel[2].strip():
        return f"abelianization {lines[-1]!r}, expected rank 2, torsion []"
    generators = lines[0][len("gens: "):].split(",")
    relators = lines[1:-1]
    if "generators" in expect:
        if len(generators) != expect["generators"] or len(relators) != expect["relators"]:
            return f"{len(generators)} generators, {len(relators)} relators"
        return None
    # Simplified: the printed relators must themselves present H1 = Z^2,
    # i.e. rank 2 over every field; test a few primes.
    try:
        rows = _exponent_sums(relators, generators)
    except KeyError as exc:
        return f"relator uses unknown generator {exc}"
    for p in (2, 3, 5, 7, 1_000_003):
        if len(generators) - _rank_mod(rows, p) != 2:
            return f"simplified relators do not give H1 = Z^2 (mod {p})"
    return None


def _check_groupoid_table(expect, lines):
    # Each non-empty cell (A3 or C) holds three component permutations.  The
    # other 288 of the 384 types are the excluded closure; the CLI exits 3
    # unless it has exactly that size.
    cells = sum(line.split().count("A3") + line.split().count("C") for line in lines[2:])
    if len(lines) != 10 or 3 * cells != REALIZED:
        return f"{cells} realized cells in a {len(lines)}-line table"
    return None


def _check_groupoid_list(expect, lines):
    if len(set(lines)) != REALIZED or len(lines) != REALIZED:
        return f"{len(lines)} realized types listed"
    return None


def _value(seq, i):
    pre, per = seq
    return pre[i - 1] if i <= len(pre) else per[(i - len(pre) - 1) % len(per)]


def _tails_match(s, t, n, start):
    """Does value(s, i) == value(t, i + n) hold for every i >= start?"""
    if start < 1 or start + n < 1:
        return False
    # Past both preperiods both sides repeat with period lcm, so one
    # more full lcm window decides the rest.
    end = max(start, len(s[0]) + 1, len(t[0]) + 1 - n) + math.lcm(len(s[1]), len(t[1]))
    return all(_value(s, i) == _value(t, i + n) for i in range(start, end))


def _oracle(s, t):
    """Brute force: some shift makes the tails of s and t agree."""
    period = math.lcm(len(s[1]), len(t[1]))
    if period > ORACLE_MAX_LCM:
        return None
    start = len(s[0]) + len(t[0]) + 1
    return any(_tails_match(s, t, n, start) for n in range(period))


def _transformed(op, seq):
    return _apply(op, seq[0]), _apply(op, seq[1])


def _check_match(text, s, t, truth):
    """Check one "yes (shift ...)"/"no" verdict; truth may be None."""
    if text == "no":
        return "condition reported false but holds" if truth else None
    witness = WITNESS.match(text)
    if not witness:
        return f"verdict {text!r}"
    if truth is False:
        return "condition reported true but fails"
    if not _tails_match(s, t, int(witness[1]), int(witness[2])):
        return f"witness {text!r} is wrong"
    return None


def _check_classify(expect, lines):
    s, t = expect["s"], expect["t"]
    if len(lines) != 9:
        return f"{len(lines)} output lines"
    holds = []
    for prefix, op, line in zip(COND_PREFIX, CONDITIONS, lines[2:6]):
        if not line.startswith(prefix):
            return f"line {line!r}"
        other = _transformed(op, t)
        truth = _oracle(s, other)
        known = expect["known"].get(op)
        if truth is None:
            truth = known
        elif known is not None and known != truth:
            return f"benchmark construction of {op} disagrees with the oracle"
        if truth is None:
            return f"no reference for {op}"
        reason = _check_match(line[len(prefix):].strip(), s, other, truth)
        if reason:
            return f"{op}: {reason}"
        holds.append(truth)
    op_eq, or_eq = holds[0] or holds[1], holds[2] or holds[3]
    want = [f"orientation-preserving equivalent: {str(op_eq).lower()}",
            f"orientation-reversing equivalent:  {str(or_eq).lower()}",
            f"equivalent: {str(op_eq or or_eq).lower()}"]
    if lines[6:] != want:
        return f"summary {lines[6:]!r}"
    return None


def _check_achiral(expect, lines):
    s = expect["s"]
    truths = {op: _oracle(s, _transformed(op, s)) for op in ("bar", "star")}
    if None in truths.values():
        truth = expect["known"]
    else:
        truth = truths["bar"] or truths["star"]
        if expect["known"] is not None and expect["known"] != truth:
            return "benchmark construction disagrees with the oracle"
    if truth is None:
        return "no reference"
    if len(lines) < 2 or lines[1] != f"achiral: {str(truth).lower()}":
        return f"verdict {lines[1:2]!r}, expected {truth}"
    if not truth:
        return None if len(lines) == 2 else "witness for a chiral sequence"
    m = re.match(r"^matches own (bar|star) transform: (.*)$", lines[2] if len(lines) == 3 else "")
    if not m:
        return "no witness line"
    return _check_match(m[2], s, _transformed(m[1], s), truths[m[1]])


_CHECKS = {
    "homcount": _check_homcount,
    "present": _check_present,
    "groupoid-table": _check_groupoid_table,
    "groupoid-list": _check_groupoid_list,
    "classify": _check_classify,
    "achiral": _check_achiral,
}
