"""Failing verdicts keep their witnesses: every status, failing identity and
witness dict matches tests/data/witnesses.json byte for byte.

Regenerate the file with tools/make_witnesses.py only when a change means
to alter a witness, and say so where the change is described."""

import importlib.util
import json
from pathlib import Path

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
