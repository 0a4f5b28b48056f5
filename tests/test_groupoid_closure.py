"""The one closure rule: inverse and left composition with a generator."""

import hashlib

import pytest

from borrays import cli, groupoid
from borrays.groupoid import (
    IDENTITY_PERM,
    DiffeoType,
    excluded_closure,
    realized_closure,
    type_compose,
    type_inverse,
)
from borrays.labels import ALL_LABELS


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


def test_every_closure_composition_is_defined(monkeypatch):
    results = []

    def compose(beta, alpha):
        results.append(type_compose(beta, alpha))
        return results[-1]

    monkeypatch.setattr(groupoid, "type_compose", compose)
    excluded_closure(realized_closure())
    # 96 realized and 288 excluded types, each composed with the six
    # generators whose domain is its codomain.
    assert len(results) == (96 + 288) * 6
    assert None not in results


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
