"""Failing verdicts keep their witnesses: every status, failing identity and
witness dict matches tests/data/witnesses.json byte for byte, and every
witness has one schema.

Regenerate the file with tools/make_witnesses.py only when a change means
to alter a witness, and say so where the change is described."""

import importlib.util
import json
from pathlib import Path

from hopfrb.cli import _antipode_order_report
from hopfrb.constructions import group_algebra, taft
from hopfrb.rb_group import GroupTable
from hopfrb.scalars import FieldCtx

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "witnesses.json"


def load_tool():
    spec = importlib.util.spec_from_file_location("make_witnesses",
                                                  ROOT / "tools" / "make_witnesses.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_witnesses_match_golden_file():
    got = load_tool().witnesses()
    want = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(want)
    for name in want:
        assert (json.dumps(got[name], sort_keys=True)
                == json.dumps(want[name], sort_keys=True)), name


def test_every_witness_has_one_schema():
    def verdicts(v: dict):
        yield v
        for part in v.get("parts", {}).values():
            yield from verdicts(part)

    found = [v for entry in json.loads(GOLDEN.read_text()).values() for v in verdicts(entry)
             if v["status"] == "fail"]
    for H in (group_algebra(GroupTable.cyclic(3), FieldCtx.rationals()),
              taft(3, FieldCtx.cyclotomic(3))):
        found.append(_antipode_order_report(H).to_json())
    assert len(found) > 250
    required = {"identity", "indices", "lhs", "rhs"}
    for v in found:
        w = v["witness"]
        assert required <= set(w) <= required | {"labels"}, v
        assert w["identity"] == v["identity"].split(".")[-1], v
