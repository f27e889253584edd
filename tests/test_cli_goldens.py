"""The hopfrb command line keeps its output: every command of
tools/make_cli_goldens.py prints exactly the bytes stored in tests/data/cli/.

Regenerate the files with that tool only when a change means to alter the
output, and say so where the change is described."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli"


def load_tool():
    spec = importlib.util.spec_from_file_location("make_cli_goldens",
                                                  ROOT / "tools" / "make_cli_goldens.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_cli_outputs_match_golden_files():
    got = load_tool().outputs()
    assert sorted(got) == sorted(p.name for p in GOLDEN.iterdir())
    for name, text in got.items():
        assert text.encode() == (GOLDEN / name).read_bytes(), name
