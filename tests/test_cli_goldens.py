"""The hopfrb command line keeps its output: every command of
tools/make_cli_goldens.py prints exactly the bytes stored in tests/data/cli/,
and tools/make_fixtures.py writes exactly the bytes stored in fixtures/.

Regenerate the files with those tools only when a change means to alter the
output, and say so where the change is described."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli"
FIXTURES = ROOT / "fixtures"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def assert_files_match(got: dict, directory: Path) -> None:
    assert sorted(got) == sorted(p.name for p in directory.iterdir())
    for name, text in got.items():
        assert text.encode() == (directory / name).read_bytes(), name


def test_cli_outputs_match_golden_files():
    assert_files_match(load_tool("make_cli_goldens").outputs(), GOLDEN)


def test_fixtures_match_their_tool():
    # the Hopf, action and bracket codecs write these files
    assert_files_match(load_tool("make_fixtures").outputs(), FIXTURES)
