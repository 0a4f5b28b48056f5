"""The 96/288 closures against brute force, their structure and outputs."""

import hashlib

import pytest

import helpers
from borrays import cli
from borrays.groupoid import (
    A3,
    C3,
    IDENTITY_PERM,
    DiffeoType,
    excluded_closure,
    realized_closure,
    type_compose,
    type_inverse,
)
from borrays.labels import A, ALL_LABELS


def test_excluded_is_the_two_sided_closure_under_realized():
    # Brute force: close the 12 seeds under inverse and under composition
    # with every realized type on either side, as the docstring argues.
    realized = realized_closure()
    found = {DiffeoType(b1, b2, 1, 1, IDENTITY_PERM)
             for b1 in ALL_LABELS for b2 in ALL_LABELS if b1 != b2}
    todo = list(found)
    while todo:
        t = todo.pop()
        steps = [type_inverse(t)]
        for r in realized:
            steps += [type_compose(r, t), type_compose(t, r)]
        for u in steps:
            if u is not None and u not in found:
                found.add(u)
                todo.append(u)
    assert found == excluded_closure(realized)


def test_closures_equal_the_worklist_oracle():
    realized = realized_closure()
    assert realized == helpers.groupoid_closure_oracle(
        helpers.groupoid_generators())
    seeds = {DiffeoType(b1, b2, 1, 1, IDENTITY_PERM)
             for b1 in ALL_LABELS for b2 in ALL_LABELS if b1 != b2}
    assert excluded_closure(realized) == helpers.groupoid_closure_oracle(seeds)


def test_every_hom_set_holds_6_realized_and_18_excluded_types():
    realized = realized_closure()
    excluded = excluded_closure(realized)
    for d in ALL_LABELS:
        for c in ALL_LABELS:
            assert sum(t.domain == d and t.codomain == c for t in realized) == 6
            assert sum(t.domain == d and t.codomain == c for t in excluded) == 18


def test_realized_self_maps_of_a_are_a_copy_of_s3():
    at_a = {t for t in realized_closure() if t.domain == t.codomain == A}
    assert {(t.orientation, t.boundary, t.perm) for t in at_a} == (
        {(1, 1, p) for p in A3} | {(1, -1, p) for p in C3})
    # A group, on which the perm is a bijection onto Sym(3) that respects
    # composition: a copy of S3.
    assert {type_compose(s, t) for s in at_a for t in at_a} == at_a


# SHA-256 of the four groupoid outputs: list order and JSON key order
# included.
@pytest.mark.parametrize("argv, digest", [
    (("groupoid",),
     "b19871310845dd2ef5e1578903950a7215d850a117e0b11f6155b652df3d35da"),
    (("groupoid", "--emit", "list"),
     "79218fea1989a278208c518b0c4bed323337d119a30ba9323ccf34c874b9ee59"),
    (("--json", "groupoid"),
     "9106ca10fb46b32e122b4612147add201cf3c5557e85456784885f2713cd933e"),
    (("--json", "groupoid", "--emit", "list"),
     "a44fcb11c5b02ef5a0724e3287a24f2abc02776e710652e9aea11d0819b1566e"),
], ids=["table2", "list", "json-table2", "json-list"])
def test_groupoid_output_bytes(capsys, argv, digest):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
