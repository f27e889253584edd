"""Structured pass/fail verdicts for identity checkers.

Every checker in this package returns a VerificationReport instead of a bare
bool, so a failing identity always carries a witness (which basis elements,
which identity, both sides as exact scalar strings) and a passing run carries
counters for how much work was done.  first_failure is the one loop that
decides an identity case by case and builds the witness of a failing case.
first_row_failure decides the same cases a row at a time: a Cayley-table
checker gathers both sides of a whole row into tuples (with C-level
operator.itemgetter), one tuple comparison settles a row that holds, and only
a row that differs is scanned for its first failing case, so its verdict,
witness and count are those of first_failure over the expanded cases.
decide_on runs either of them on the generators of an identity that they
decide, and on every index once that fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    status: str  # "pass" or "fail"
    identity: str = ""
    witness: dict | None = None
    stats: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    # the indices a passing decide_on report was decided at, when it was
    # reduced to them (None: every index); not part of the JSON
    generators: list | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.status not in ("pass", "fail"):
            raise ValueError(f"status must be pass or fail, not {self.status!r}")
        # a failure with no witness is useless downstream; forbid it early
        if self.status == "fail" and self.witness is None:
            raise ValueError("a failing report needs a witness")

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def __bool__(self) -> bool:
        return self.ok

    @classmethod
    def passing(cls, identity: str = "", **stats) -> "VerificationReport":
        return cls(status="pass", identity=identity, stats=dict(stats))

    @classmethod
    def failing(cls, identity: str, witness: dict, **stats) -> "VerificationReport":
        return cls(status="fail", identity=identity, witness=dict(witness), stats=dict(stats))

    def to_json(self) -> dict:
        out = {"status": self.status}
        if self.identity:
            out["identity"] = self.identity
        if self.witness is not None:
            out["witness"] = self.witness
        if self.stats:
            out["stats"] = self.stats
        if self.details:
            out["details"] = self.details
        return out


def _plain_witness(identity: str, indices, lhs, rhs) -> dict:
    return {"identity": identity, "indices": list(indices), "lhs": lhs, "rhs": rhs}


def first_failure(identity: str, cases, witness=None) -> VerificationReport:
    """Decide an identity case by case and witness the first case that breaks.

    cases yields (indices, lhs, rhs) triples, and a case holds when lhs == rhs.
    A checker that decides several identities in one pass starts each case's
    indices with the name of its identity; other cases belong to ``identity``.
    Only the failing case is formatted: by default as {"identity", "indices",
    "lhs", "rhs"}, else as witness(identity, indices, lhs, rhs).  A passing
    report is named ``identity``; either report counts the cases it decided.
    """
    checked = 0
    for checked, (indices, lhs, rhs) in enumerate(cases, 1):
        if lhs != rhs:
            return _failing(identity, indices, lhs, rhs, witness, checked)
    return VerificationReport.passing(identity, identities_checked=checked)


def first_row_failure(identity: str, rows, witness=None) -> VerificationReport:
    """first_failure over cases that come a row at a time.

    rows yields (indices, lhs, rhs) with lhs and rhs equal-length tuples; a
    row stands for the cases (indices + (c,), lhs[c], rhs[c]) in order of c.
    The report (status, identity, witness, count) is the one first_failure
    gives on those expanded cases.
    """
    checked = 0
    for indices, lhs, rhs in rows:
        if lhs != rhs:
            for c, (left, right) in enumerate(zip(lhs, rhs)):
                if left != right:
                    return _failing(identity, indices + (c,), left, right, witness,
                                    checked + c + 1)
        checked += len(lhs)
    return VerificationReport.passing(identity, identities_checked=checked)


def decide_on(decider, identity: str, cases, chosen, n: int,
              witness=None) -> VerificationReport:
    """decider (first_failure or first_row_failure) over cases(chosen): an
    identity decided at the indices in chosen only, which the caller has
    shown to decide it at every index in range(n).

    A failure there is a failure at every index as well.  It reruns
    cases(range(n)), as does chosen None, so that a failing report (witness
    and count) is the one every index gives.  A report that passes on chosen
    keeps it as its generators, for a caller that reduces a later identity
    on the same set.
    """
    if chosen is not None:
        rep = decider(identity, cases(chosen), witness)
        if rep.ok:
            rep.generators = list(chosen)
        if rep.ok or len(chosen) == n:
            return rep
    return decider(identity, cases(range(n)), witness)


def _failing(identity: str, indices, lhs, rhs, witness, checked: int) -> VerificationReport:
    name = identity
    if indices and isinstance(indices[0], str):
        name, indices = indices[0], indices[1:]
    w = (witness or _plain_witness)(name, indices, lhs, rhs)
    return VerificationReport.failing(name, w, identities_checked=checked)


def show(x, labels=()) -> str:
    """Witness text of a scalar, a sparse vector or a sparse tensor.

    A dict prints as (c)*label terms in ascending key order, a tuple key as
    the labels of its legs joined by (x), and an empty dict as 0; anything
    else prints by str.
    """
    if not isinstance(x, dict):
        return str(x)
    terms = []
    for k in sorted(x):
        name = "(x)".join(labels[i] for i in k) if isinstance(k, tuple) else labels[k]
        terms.append(f"({x[k]})*{name}")
    return " + ".join(terms) or "0"


def labelled(labels: list, shown=()):
    """first_failure formatter for every witness whose sides print as text.

    labels holds one label list for each of the leading index positions it
    names: basis elements, or the terms and binomials of the family's
    hypotheses.  Both sides print by show over the labels shown.
    """
    def witness(identity, indices, lhs, rhs) -> dict:
        return {"identity": identity, "indices": list(indices),
                "lhs": show(lhs, shown), "rhs": show(rhs, shown),
                "labels": [names[i] for names, i in zip(labels, indices)]}
    return witness


def merge_reports(parts: dict[str, VerificationReport]) -> VerificationReport:
    """Combine named sub-reports: fail with the first failing part, else pass.

    The per-part verdicts are kept under ``details`` either way, and the
    merged count of identities checked is the sum of the parts' counts.
    """
    details = {name: r.to_json() for name, r in parts.items()}
    checked = sum(r.stats.get("identities_checked", 0) for r in parts.values())
    for name, r in parts.items():
        if not r.ok:
            ident = name
            if r.identity and r.identity != name:
                ident = f"{name}.{r.identity}"
            out = VerificationReport.failing(
                identity=ident,
                witness=r.witness or {},
                identities_checked=checked,
            )
            out.details = details
            return out
    out = VerificationReport.passing(identities_checked=checked)
    out.details = details
    return out
