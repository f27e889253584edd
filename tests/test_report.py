"""Report plumbing: witnesses, merging, truthiness."""

import random

import pytest

from hopfrb.report import (VerificationReport, first_failure, first_row_failure, labelled,
                           merge_reports)


def test_passing_and_failing():
    ok = VerificationReport.passing("assoc", identities_checked=9)
    assert ok.ok and bool(ok)
    assert ok.stats["identities_checked"] == 9
    bad = VerificationReport.failing("assoc", {"indices": [1, 2]}, identities_checked=3)
    assert not bad.ok and not bool(bad)
    assert bad.witness == {"indices": [1, 2]}


def test_failing_requires_witness():
    with pytest.raises(ValueError):
        VerificationReport(status="fail")
    with pytest.raises(ValueError):
        VerificationReport(status="maybe")


def test_merge_keeps_first_failure_and_all_parts():
    parts = {
        "a": VerificationReport.passing(identities_checked=4),
        "b": VerificationReport.failing("ident_b", {"x": 1}, identities_checked=2),
        "c": VerificationReport.failing("c", {"y": 2}, identities_checked=1),
    }
    merged = merge_reports(parts)
    assert not merged.ok
    assert merged.identity == "b.ident_b"
    assert merged.witness == {"x": 1}
    assert set(merged.details) == {"a", "b", "c"}
    assert merged.details["c"]["status"] == "fail"
    assert merged.stats["identities_checked"] == 7


def test_merge_all_passing():
    merged = merge_reports({"a": VerificationReport.passing(identities_checked=2)})
    assert merged.ok
    assert merged.details["a"]["status"] == "pass"
    assert merged.stats["identities_checked"] == 2


def test_first_failure_counts_and_witnesses_the_first_mismatch():
    rep = first_failure("ident", iter([((0,), 1, 1), ((1,), 2, 3), ((2,), 4, 5)]))
    assert not rep.ok
    assert rep.identity == "ident"
    assert rep.witness == {"identity": "ident", "indices": [1], "lhs": 2, "rhs": 3}
    assert rep.stats["identities_checked"] == 2
    ok = first_failure("ident", [((i,), i, i) for i in range(5)])
    assert ok.ok and ok.identity == "ident"
    assert ok.stats["identities_checked"] == 5
    assert first_failure("ident", []).stats["identities_checked"] == 0


def test_first_failure_named_cases_and_formatter():
    formatted = []

    def witness(identity, indices, lhs, rhs):
        formatted.append(indices)
        return {"identity": identity, "at": list(indices), "sides": f"{lhs} vs {rhs}"}

    cases = [(("left", 0), 1, 1), (("right", 0), 1, 1), (("right", 1), 1, 2), (("left", 1), 0, 1)]
    rep = first_failure("both", cases, witness)
    assert rep.identity == "right"
    assert rep.witness == {"identity": "right", "at": [1], "sides": "1 vs 2"}
    assert rep.stats["identities_checked"] == 3
    assert formatted == [(1,)]  # only the failing case is formatted


def test_json_shape():
    bad = VerificationReport.failing("ident", {"lhs": "1", "rhs": "0"})
    obj = bad.to_json()
    assert obj["status"] == "fail"
    assert obj["identity"] == "ident"
    assert obj["witness"]["lhs"] == "1"


def expand(rows):
    return [(indices + (c,), left, right)
            for indices, lhs, rhs in rows for c, (left, right) in enumerate(zip(lhs, rhs))]


def test_first_row_failure_equals_first_failure_on_the_expanded_cases():
    rng = random.Random(17)
    kinds = {"equal": 0, "first": 0, "middle": 0, "last": 0, "named": 0}
    for _ in range(400):
        width = rng.randrange(1, 7)
        rows = []
        for r in range(rng.randrange(5)):
            lhs = tuple(rng.randrange(4) for _ in range(width))
            rhs = list(lhs)
            kind = rng.choice(("equal", "equal", "first", "middle", "last"))
            if kind != "equal":
                at = {"first": 0, "middle": width // 2, "last": width - 1}[kind]
                for c in [at] + rng.sample(range(width), rng.randrange(width)):
                    rhs[c] += 1 + rng.randrange(2)
            indices = (r, rng.randrange(3))
            if rng.random() < 0.3:
                indices = (rng.choice(("left", "right")),) + indices
                kinds["named"] += 1
            kinds[kind] += 1
            rows.append((indices, lhs, tuple(rhs)))
        for witness in (None, labelled([list("abcdef")] * 3)):
            if witness and any(isinstance(ix[0], str) for ix, _, _ in rows):
                continue
            got = first_row_failure("ident", iter(rows), witness)
            want = first_failure("ident", expand(rows), witness)
            assert got.to_json() == want.to_json()
    assert min(kinds.values()) > 50
