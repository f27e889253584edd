"""Command line interface, driven in process through main(argv)."""

import hashlib
import itertools
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import hopfrb
from hopfrb import constructions
from hopfrb.cli import _antipode_order_report, build_parser, main
from hopfrb.constructions import group_algebra, sweedler_h4, taft
from hopfrb.hopf_core import (MAX_DIM, HopfData, LinearMap, check_hopf, hopf_from_json,
                              hopf_to_json)
from hopfrb.report import merge_reports
from hopfrb.rb_group import GroupTable
from hopfrb.rb_lie import lie_from_json, lie_to_json, sl2
from hopfrb.scalars import FieldCtx

from helpers import counting

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_verify_h4(capsys):
    code, payload = run(capsys, "verify", "--construction", "h4")
    assert code == 0
    assert payload["status"] == "pass"
    assert payload["dim"] == 4
    assert payload["details"]["antipode_order_4"]["status"] == "pass"
    assert payload["details"]["antipode_order_4"]["stats"]["identities_checked"] == 2


def test_verify_h4_char_2_is_bad_input(capsys):
    code = main(["verify", "--construction", "h4", "--field", "F2"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_verify_group_algebra_fixture(capsys):
    code, payload = run(capsys, "verify", "--construction", "group-algebra",
                        "--group", str(FIXTURES / "s3.json"))
    assert code == 0
    assert payload["dim"] == 6


def test_verify_taft(capsys):
    code, payload = run(capsys, "verify", "--construction", "taft",
                        "--m", "3", "--field", "Q(z3)")
    assert code == 0
    assert payload["dim"] == 9
    assert payload["details"]["hypotheses"]["status"] == "pass"


def test_verify_family_pass_and_fail(capsys):
    code, payload = run(capsys, "verify", "--construction", "family",
                        "--field", "F3", "--m", "2", "--zeta", "-1", "--l", "6")
    assert code == 0
    assert payload["dim"] == 12
    # {4 choose 2} at zeta = -1 is 2, nonzero over Q, so the l = 4 member
    # fails its hypothesis check
    code, payload = run(capsys, "verify", "--construction", "family",
                        "--m", "2", "--zeta", "-1", "--l", "4")
    assert code == 1
    assert payload["status"] == "fail"
    assert payload["identity"].startswith("top_binomials")
    assert payload["witness"]["labels"] == ["{4 choose 2}"]


@pytest.mark.parametrize("argv, code", [
    (["--construction", "taft", "--m", "3", "--field", "Q(z3)"], 0),
    (["--construction", "family", "--field", "F3", "--m", "2", "--zeta", "-1", "--l", "6"], 0),
    (["--construction", "family", "--m", "2", "--zeta", "-1", "--l", "4"], 1),
], ids=["taft", "family", "failing-hypotheses"])
def test_verify_builds_the_algebra_once(monkeypatch, capsys, argv, code):
    calls = counting(monkeypatch, constructions, "_family_algebra")
    assert run(capsys, "verify", *argv)[0] == code
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["aut", "verify"])
def test_family_dimension_is_capped_before_any_product(monkeypatch, capsys, command):
    calls = counting(monkeypatch, constructions, "_family_algebra")
    argv = [command, "--construction", "taft", "--m", "17", "--field", "Q(z17)"]
    err = expect_input_error(capsys, *argv, *(["--grid", "1"] if command == "aut" else []))
    assert f"dimension 289 exceeds cap {MAX_DIM}" in err
    assert calls == []


def test_enum_rb_z3(capsys):
    code, payload = run(capsys, "enum-rb", "--group", str(FIXTURES / "z3.json"))
    assert code == 0
    assert payload["count"] == 3
    assert payload["assignments"] > 0
    for row in payload["operators"]:
        assert row["skew_brace"] == "pass"
        assert row["derived_group"] == "pass"
        assert row["lemma"] == "pass"
    maps = {tuple(row["map"]) for row in payload["operators"]}
    assert (0, 0, 0) in maps


def test_enum_rb_outputs_with_no_golden_keep_their_bytes(tmp_path, capsys):
    # the full stdout on groups where branching once per automorphism orbit
    # prunes most of the search: the digest of every line but the
    # assignment count, so a change to any operator or status shows, and
    # the count itself, which moves with the search's cuts alone
    S3 = GroupTable.symmetric(3)
    groups = {"S3xS3": GroupTable.direct_product(S3, S3), "S4": GroupTable.symmetric(4),
              "Z2xS4": GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.symmetric(4))}
    pinned = {  # (group, weight): (assignments, digest of the other lines)
        ("S3xS3", 1): (29343, "8d94fe5ff85505fdbcfd01f2a9122cd24ee683d7423dc08baa4297182307c200"),
        ("S3xS3", -1): (29343, "30fbc16e4b8515bd70ebc600b01c9dd91625515978e583fcb57d4c5d4189640d"),
        ("Z2xS4", 1): (99025, "86df45431fd176f47a3720267cb44a6716592cef8afc31fe7089a82ba522bd8a"),
        ("S4", 1): (6406, "c0cb7bad2e222b2c5cf57546aad2f53112468a1fc549b2389b517a4a238bf601"),
        ("S4", -1): (6406, "da70854bebe0d79cff8832d152f04111163be9af500f178457d34900d44b8de5"),
    }
    for (name, weight), (assignments, digest) in pinned.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(groups[name].to_json()))
        assert main(["enum-rb", "--group", str(path), f"--weight={weight}"]) == 0
        out = capsys.readouterr().out
        count = f'  "assignments": {assignments},\n'
        assert out.count(count) == 1, (name, weight)
        rest = out.replace(count, "")
        assert hashlib.sha256(rest.encode()).hexdigest() == digest, (name, weight)


def test_enum_rb_output_is_reproducible(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code = main(["enum-rb", "--group", str(FIXTURES / "z4.json"),
                     "--weight", "-1", "--out", str(path)])
        assert code == 0
    assert capsys.readouterr().out == ""
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["weight"] == -1


def test_enum_rb_cap(capsys):
    code = main(["enum-rb", "--group", str(FIXTURES / "s3.json"), "--cap", "5"])
    assert code == 3
    assert "cap exceeded" in capsys.readouterr().err


def test_check_rrb_fixture(capsys):
    path = str(FIXTURES / "h4-rrb-exact-factorization.json")
    code, payload = run(capsys, "check-rrb", "--input", path)
    assert code == 0
    code, payload = run(capsys, "check-rrb", "--input", path, "--full")
    assert code == 0
    assert payload["details"]["condition_4_rb"]["status"] == "pass"


def test_check_rrb_corrupted_names_the_condition(tmp_path, capsys):
    obj = json.loads((FIXTURES / "h4-rrb-exact-factorization.json").read_text())
    obj["B"][0][2] = "1"  # B(x) picks up a unit component
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, payload = run(capsys, "check-rrb", "--input", str(bad))
    assert code == 1
    assert payload["identity"].startswith("condition_1")


def test_check_rrb_missing_file(capsys):
    assert main(["check-rrb", "--input", "does-not-exist.json"]) == 2


def test_aut_h4(capsys):
    code, payload = run(capsys, "aut", "--construction", "h4",
                        "--grid", "1,-1,2,1/3,5")
    assert code == 0
    assert payload["count"] == 5
    assert all(hit["k"] == 1 for hit in payload["hits"])


def test_aut_bad_grid_term_is_input_error(capsys):
    code = main(["aut", "--construction", "h4", "--field", "Q", "--grid", "5z"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'5z'" in err


def test_check_lie(tmp_path, capsys):
    lie = tmp_path / "sl2.json"
    lie.write_text(json.dumps(lie_to_json(sl2(FieldCtx.rationals()))))
    code, payload = run(capsys, "check-lie", "--input", str(lie))
    assert code == 0
    assert payload["dim"] == 3

    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps([["0"] * 3 for _ in range(3)]))
    code, payload = run(capsys, "check-lie", "--input", str(lie),
                        "--b", str(zero), "--weight", "1")
    assert code == 0

    ident = tmp_path / "id.json"
    ident.write_text(json.dumps([["1" if i == j else "0" for j in range(3)]
                                 for i in range(3)]))
    code, payload = run(capsys, "check-lie", "--input", str(lie),
                        "--b", str(ident), "--weight", "0")
    assert code == 1
    assert payload["identity"].startswith("rb_weight")


def test_check_lie_weight_needs_an_operator(capsys):
    # a weight without --b checks nothing, so it is bad input, valid or not
    sl2_path, op = str(FIXTURES / "sl2.json"), str(FIXTURES / "sl2-minus-identity.json")
    for weight in ("abc", "1"):
        code = main(["check-lie", "--input", sl2_path, f"--weight={weight}"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), weight
        assert err.startswith("error: ") and "--b" in err, err
    assert main(["check-lie", "--input", sl2_path, "--b", op, "--weight=abc"]) == 2
    capsys.readouterr()
    # with --b the weight is 0 unless given: B = -id has weight 1, not 0
    code, payload = run(capsys, "check-lie", "--input", sl2_path, "--b", op)
    assert (code, payload["identity"]) == (1, "rb_weight.rb_lie_weight")
    code, payload = run(capsys, "check-lie", "--input", sl2_path, "--b", op, "--weight", "1")
    assert code == 0


def test_check_group_rb_map(capsys):
    code, payload = run(capsys, "check-group-rb",
                        "--group", str(FIXTURES / "z3.json"), "--map", "0,0,0")
    assert code == 0
    assert payload["weight"] == 1
    assert payload["details"]["lemma"]["status"] == "pass"
    assert payload["details"]["derived_group"]["status"] == "pass"

    code, payload = run(capsys, "check-group-rb",
                        "--group", str(FIXTURES / "z3.json"), "--map", "0,1,1")
    assert code == 1
    assert payload["identity"].startswith("rb")


def test_check_group_rb_general_weight(capsys):
    images = ",".join(["0"] * 21)
    code, payload = run(capsys, "check-group-rb",
                        "--group", str(FIXTURES / "f21.json"),
                        "--map", images, "--weight", "2")
    assert code == 0
    assert payload["weight"] == 2


def test_consecutive_calls_share_one_parser(tmp_path, capsys):
    # main() builds its parser once per process, and no value of one call
    # reaches the next: each output is that of a call on a fresh parser
    s3 = str(FIXTURES / "s3.json")
    listing = tmp_path / "ops.json"
    assert main(["enum-rb", "--group", s3, "--weight", "-1", "--out", str(listing)]) == 0
    op = tmp_path / "op.json"
    op.write_text(json.dumps(json.loads(listing.read_text())["operators"][-1]))
    calls = [["enum-rb", "--group", s3, "--weight", "-1"],
             ["check-group-rb", "--group", s3, "--operator", str(op)],
             ["check-group-rb", "--group", s3, "--map", "0,0,0,0,0,0"]]
    capsys.readouterr()
    in_turn = [(main(argv), capsys.readouterr()) for argv in calls]
    assert build_parser() is build_parser()
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append((main(argv), capsys.readouterr()))
    assert in_turn == fresh
    # the weight comes from the operator file, then from the default
    weights = [json.loads(out.out)["weight"] for _, out in in_turn]
    assert weights == [-1, -1, 1] and [code for code, _ in in_turn] == [0, 0, 0]


def test_check_group_rb_operator_file(tmp_path, capsys):
    listing = tmp_path / "ops.json"
    code = main(["enum-rb", "--group", str(FIXTURES / "z2.json"),
                 "--out", str(listing)])
    assert code == 0
    capsys.readouterr()
    first = json.loads(listing.read_text())["operators"][0]
    op = tmp_path / "op.json"
    op.write_text(json.dumps(first))
    code, payload = run(capsys, "check-group-rb",
                        "--group", str(FIXTURES / "z2.json"),
                        "--operator", str(op))
    assert code == 0


def test_an_operator_file_must_name_the_group_it_is_checked_on(tmp_path, capsys):
    # Z2's zero map read on Z3's table would be a different operator; a
    # file or a group with no name is checked as before
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"group": "Z2", "weight": 1, "map": [0, 0, 0]}))
    err = expect_input_error(capsys, "check-group-rb", "--group", str(FIXTURES / "z3.json"),
                             "--operator", str(op))
    assert err == "error: the operator file is for group 'Z2', the group file is 'Z3'\n"
    unnamed = tmp_path / "z3.json"
    unnamed.write_text(json.dumps({"table": [[(a + b) % 3 for b in range(3)]
                                             for a in range(3)]}))
    for group, name in ((FIXTURES / "z3.json", ""), (unnamed, "Z2")):
        op.write_text(json.dumps({"group": name, "weight": -1, "map": [0, 0, 0]}))
        # the weight comes from --weight, then from the file, then 1
        for flag, weight in (([], -1), (["--weight", "1"], 1)):
            code, payload = run(capsys, "check-group-rb", "--group", str(group),
                                "--operator", str(op), *flag)
            assert (code, payload["weight"]) == (0, weight), (group, name, flag)


def test_tsv_formats(capsys):
    code = main(["enum-rb", "--group", str(FIXTURES / "z2.json"),
                 "--format", "tsv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split("\t")
    assert header[0] == "map"
    assert len(lines) == 1 + 2

    code = main(["verify", "--construction", "h4", "--format", "tsv"])
    assert code == 0
    out = capsys.readouterr().out
    assert "status\tpass" in out


def counted_runs(tmp_path) -> list:
    """CLI verdicts that each merge several parts."""
    lie = tmp_path / "sl2.json"
    lie.write_text(json.dumps(lie_to_json(sl2(FieldCtx.rationals()))))
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps([["0"] * 3 for _ in range(3)]))
    return [
        ("verify", "--construction", "h4"),
        ("verify", "--construction", "taft", "--m", "3", "--field", "Q(z3)"),
        ("verify", "--construction", "family", "--field", "F3", "--m", "2", "--zeta", "-1",
         "--l", "2"),
        ("check-group-rb", "--group", str(FIXTURES / "z3.json"), "--map", "0,0,0"),
        ("check-lie", "--input", str(lie), "--b", str(zero), "--weight", "1"),
    ]


def test_top_level_counts_are_sums_of_parts(tmp_path, capsys):
    for argv in counted_runs(tmp_path):
        code, payload = run(capsys, *argv)
        assert code == 0, argv
        total = payload["stats"]["identities_checked"]
        parts = sum(d.get("stats", {}).get("identities_checked", 0)
                    for d in payload["details"].values())
        assert total > 0, argv
        assert total == parts, argv


def test_every_part_reports_a_count(tmp_path, capsys):
    for argv in counted_runs(tmp_path):
        code, payload = run(capsys, *argv)
        assert code == 0, argv
        for name, part in payload["details"].items():
            assert part.get("stats", {}).get("identities_checked", 0) > 0, (argv, name)


def test_antipode_order_failures_keep_their_witness():
    # S^2 = id in a group algebra; S^4 != id in the Taft algebra with m = 3
    rep = _antipode_order_report(group_algebra(GroupTable.cyclic(3), FieldCtx.rationals()))
    assert (rep.identity, rep.witness) == ("antipode_order_4", {
        "identity": "antipode_order_4", "indices": [], "lhs": "S^2 = id", "rhs": "S^2 != id",
        "labels": []})
    rep = _antipode_order_report(taft(3, FieldCtx.cyclotomic(3)))
    assert (rep.identity, rep.witness) == ("antipode_order_4", {
        "identity": "antipode_order_4", "indices": [], "lhs": "S^4 != id", "rhs": "S^4 = id",
        "labels": []})


# ---------------------------------------------------------------------------
# explicit zero coefficients: the sparse kernel filters zeros only where sums
# can make them, so every reader must drop the zeros an input spells out


ZERO_SPELLINGS = ["0", 0, "0/3", "-0"]


def with_zero_terms(rows: list, heads: dict, terms: dict, rng) -> list:
    """Table rows (mult, delta or phi) with explicit zero terms: one more
    term in every row at an index the row lacks, and a row of one zero term
    for every pair the table lacks.  heads and terms map the index names of
    a row and of a term to their ranges."""
    indices = list(itertools.product(*map(range, terms.values())))

    def zero_term(idx):
        return {**dict(zip(terms, idx)), "c": rng.choice(ZERO_SPELLINGS)}

    out = []
    for row in rows:
        ts = list(row["terms"])
        taken = {tuple(t[k] for k in terms) for t in ts}
        free = [idx for idx in indices if idx not in taken]
        if free:
            ts.insert(rng.randrange(len(ts) + 1), zero_term(rng.choice(free)))
        out.append(dict(row, terms=ts))
    have = {tuple(row[k] for k in heads) for row in rows}
    out += [{**dict(zip(heads, idx)), "terms": [zero_term(rng.choice(indices))]}
            for idx in itertools.product(*map(range, heads.values())) if idx not in have]
    return out


def respelled_zeros(dense: list, rng) -> list:
    """A dense vector or matrix with each "0" spelled another way."""
    if isinstance(dense[0], list):
        return [respelled_zeros(row, rng) for row in dense]
    return [rng.choice(ZERO_SPELLINGS) if c == "0" else c for c in dense]


def hopf_with_zeros(obj: dict, rng) -> dict:
    dim = obj["dim"]
    return dict(obj, unit=respelled_zeros(obj["unit"], rng),
                antipode=respelled_zeros(obj["antipode"], rng),
                mult=with_zero_terms(obj["mult"], {"i": dim, "j": dim}, {"k": dim}, rng),
                delta=with_zero_terms(obj["delta"], {"i": dim}, {"j": dim, "k": dim}, rng))


def verify_bytes(H) -> str:
    """The report of verify on H, as the h4 construction prints it."""
    rep = merge_reports({"hopf": check_hopf(H), "antipode_order_4": _antipode_order_report(H)})
    return json.dumps(rep.to_json(), indent=2, sort_keys=True)


@pytest.mark.parametrize("name", ["h4", "k[S3]"])
def test_explicit_zero_coefficients_change_no_verify_report(name):
    Q = FieldCtx.rationals()
    H = sweedler_h4(Q) if name == "h4" else group_algebra(GroupTable.symmetric(3), Q)
    rng = random.Random(12)
    mutant = hopf_to_json(H)
    mutant["mult"][-1]["terms"][0]["c"] = "2"
    for obj in (hopf_to_json(H), mutant):
        want = verify_bytes(hopf_from_json(obj))
        for _ in range(3):
            zeroed = hopf_from_json(hopf_with_zeros(obj, rng))
            assert zeroed.algebra.mult == hopf_from_json(obj).algebra.mult
            assert verify_bytes(zeroed) == want
    # the antipode as dense rows of zero scalars that are not ctx.zero
    zero = Q.one - Q.one
    assert zero is not Q.zero
    rows = [[c if not c.is_zero else zero for c in row] for row in H.antipode.to_rows()]
    S = LinearMap.from_rows(Q, rows)
    assert S.cols == H.antipode.cols
    assert verify_bytes(HopfData(H.algebra, H.coalgebra, S)) == verify_bytes(H)


def test_explicit_zero_coefficients_change_no_check_rrb_report(tmp_path, capsys):
    obj = json.loads((FIXTURES / "h4-rrb-exact-factorization.json").read_text())
    corrupted = json.loads(json.dumps(obj))
    corrupted["B"][0][2] = "1"
    rng = random.Random(13)
    for data in (obj, corrupted):
        plain, zeroed = tmp_path / "plain.json", tmp_path / "zeroed.json"
        plain.write_text(json.dumps(data))
        dim_g, dim_h = data["G"]["dim"], data["H"]["dim"]
        zeroed.write_text(json.dumps(dict(
            data, H=hopf_with_zeros(data["H"], rng), G=hopf_with_zeros(data["G"], rng),
            phi=with_zero_terms(data["phi"], {"g": dim_g, "h": dim_h}, {"i": dim_h}, rng),
            B=respelled_zeros(data["B"], rng))))
        for full in ((), ("--full",)):
            outs = []
            for path in (plain, zeroed):
                code = main(["check-rrb", "--input", str(path), *full])
                outs.append((code, capsys.readouterr().out))
            assert outs[0] == outs[1]
            assert outs[0][0] == (0 if data is obj else 1)


def expect_input_error(capsys, *argv) -> str:
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2, (argv, err)
    assert err.startswith("error: "), err
    return err


@pytest.mark.parametrize("argv, message", [
    (["verify", "--construction", "taft"], "--m is required for taft"),
    (["aut", "--construction", "family", "--m", "2", "--grid", "0"],
     "--m, --zeta and --l are required for family"),
    (["verify", "--construction", "group-algebra"], "--group FILE is required for group-algebra"),
    (["check-group-rb", "--group", str(FIXTURES / "s3.json")],
     "one of --map or --operator is required"),
], ids=["taft", "family", "group-algebra", "check-group-rb"])
def test_missing_flags_are_input_errors(capsys, argv, message):
    assert expect_input_error(capsys, *argv) == f"error: {message}\n"


@pytest.mark.parametrize("argv, flag, construction", [
    (["aut", "--construction", "taft", "--m", "2", "--zeta", "5", "--l", "9", "--grid", "1"],
     "zeta", "taft"),
    (["aut", "--construction", "h4", "--f", "0,1", "--grid", "1"], "f", "h4"),
    (["verify", "--construction", "h4", "--l", "7"], "l", "h4"),
    (["verify", "--construction", "taft", "--m", "3", "--field", "Q(z3)",
      "--group", str(FIXTURES / "s3.json")], "group", "taft"),
    (["verify", "--construction", "family", "--field", "F3", "--m", "2", "--zeta=-1",
      "--l", "6", "--group", str(FIXTURES / "s3.json")], "group", "family"),
    (["verify", "--construction", "group-algebra", "--group", str(FIXTURES / "s3.json"),
      "--m", "4"], "m", "group-algebra"),
], ids=["aut-taft-zeta", "aut-h4-f", "verify-h4-l", "verify-taft-group", "verify-family-group",
        "verify-group-algebra-m"])
def test_unread_construction_flags_are_input_errors(capsys, argv, flag, construction):
    err = expect_input_error(capsys, *argv)
    assert err == f"error: --{flag} is not read by --construction {construction}\n"


def test_check_group_rb_reads_one_of_map_and_operator(tmp_path, capsys):
    # --map would leave --operator unread, whether its file exists or not
    s3 = str(FIXTURES / "s3.json")
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"group": "S3", "map": [0, 1, 2, 4, 3, 5], "weight": 1}))
    for operator in (str(tmp_path / "missing.json"), str(op)):
        err = expect_input_error(capsys, "check-group-rb", "--group", s3,
                                 "--map", "0,0,0,0,0,0", "--operator", operator)
        assert err == "error: give one of --map or --operator, not both\n"


def test_aut_lists_a_repeated_grid_value_once(capsys):
    # the grid echo is the parsed input; the search takes each value once
    for argv, grid, c in [
        (["--construction", "h4", "--grid", "1,2/2,1"], ["1", "1", "1"], ["0", "1"]),
        (["--construction", "family", "--field", "F3", "--m", "2", "--zeta=-1", "--l", "6",
          "--grid", "1,4,0"], ["1", "1", "0"], ["0", "1", "0", "0", "0", "0"]),
    ]:
        code, payload = run(capsys, "aut", *argv)
        assert code == 0
        assert payload == {"construction": argv[1], "grid": grid, "count": 1,
                           "hits": [{"k": 1, "c": c}]}


def test_zero_denominators_are_input_errors(tmp_path, capsys):
    # a literal whose denominator is 0 in its field, in a file or a flag
    sl2 = json.loads((FIXTURES / "sl2.json").read_text())
    sl2["brackets"][0]["terms"][0]["c"] = "1/0"
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(sl2))
    sl2_file, b_file = (str(FIXTURES / name) for name in ("sl2.json", "sl2-minus-identity.json"))
    for argv, literal, field in [
        (["check-lie", "--input", str(path)], "1/0", "Q"),
        (["verify", "--construction", "family", "--field", "F3", "--m", "2", "--zeta=-1",
          "--l", "6", "--f", "0,0,1/3"], "1/3", "F3"),
        (["check-lie", "--input", sl2_file, "--b", b_file, "--weight", "1/0"], "1/0", "Q"),
        (["aut", "--construction", "h4", "--grid", "1,1/0"], "1/0", "Q"),
        (["verify", "--construction", "family", "--field", "Q(z3)", "--m", "3", "--zeta", "1/0",
          "--l", "2"], "1/0", "Q(z3)"),
    ]:
        err = expect_input_error(capsys, *argv)
        assert err == f"error: denominator of {literal} is 0 in {field}\n", (argv, err)


def test_group_tables_take_integers_only(tmp_path, capsys):
    for table in ([["a"]], [[0.0, 1.0], [1.0, 0.0]], [[False, True], [True, False]]):
        path = tmp_path / "group.json"
        path.write_text(json.dumps({"table": table}))
        zero_map = ",".join("0" * len(table))
        err = expect_input_error(capsys, "check-group-rb", "--group", str(path), "--map", zero_map)
        assert "integers" in err


def test_operator_images_are_not_truncated(tmp_path, capsys):
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"group": "Z3", "weight": 1, "map": [0, 1.7, 2]}))
    err = expect_input_error(capsys, "check-group-rb", "--group", str(FIXTURES / "z3.json"),
                             "--operator", str(op))
    assert "integers" in err


def test_check_rrb_names_an_action_entry_out_of_range(tmp_path, capsys):
    obj = json.loads((FIXTURES / "h4-rrb-exact-factorization.json").read_text())
    extra = json.loads(json.dumps(obj))
    extra["phi"].append({"g": 99, "h": 0, "terms": [{"i": 0, "c": "1"}]})
    stray = json.loads(json.dumps(obj))
    stray["phi"][1]["terms"][0]["i"] = 57
    for bad, entry in ((extra, "(99,0)"), (stray, "57")):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        err = expect_input_error(capsys, "check-rrb", "--input", str(path))
        assert entry in err, err


def test_json_integer_fields_are_not_truncated(tmp_path, capsys):
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"group": "Z3", "weight": 1.7, "map": [0, 0, 0]}))
    err = expect_input_error(capsys, "check-group-rb", "--group", str(FIXTURES / "z3.json"),
                             "--operator", str(op))
    assert "weight" in err

    obj = json.loads((FIXTURES / "h4-rrb-exact-factorization.json").read_text())
    edits = [
        lambda o: o["phi"][1]["terms"][0].__setitem__("i", 1.9),
        lambda o: o["phi"][1].__setitem__("g", True),
        lambda o: o["phi"][1].__setitem__("h", "1"),
        lambda o: o["H"].__setitem__("dim", 4.0),
        lambda o: o["H"]["mult"][0].__setitem__("j", 0.0),
        lambda o: o["G"]["mult"][0]["terms"][0].__setitem__("k", "0"),
        lambda o: o["G"]["delta"][2].__setitem__("i", 2.5),
        lambda o: o["G"]["delta"][2]["terms"][0].__setitem__("j", False),
    ]
    for edit in edits:
        bad = json.loads(json.dumps(obj))
        edit(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        err = expect_input_error(capsys, "check-rrb", "--input", str(path))
        assert "must be an integer" in err, err


def test_json_booleans_are_not_scalars(tmp_path, capsys):
    # true once read as the scalar 1, which the h4 counit and unit products hold
    obj = json.loads((FIXTURES / "h4-rrb-exact-factorization.json").read_text())
    edits = [
        lambda o: o["H"]["counit"].__setitem__(0, True),
        lambda o: o["H"]["mult"][0]["terms"][0].__setitem__("c", True),
        lambda o: o["G"]["counit"].__setitem__(2, False),
    ]
    for edit in edits:
        bad = json.loads(json.dumps(obj))
        edit(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        err = expect_input_error(capsys, "check-rrb", "--input", str(path))
        assert "cannot parse scalar" in err, err


def test_lie_files_are_validated(tmp_path, capsys):
    good = lie_to_json(sl2(FieldCtx.prime(5)))
    assert good["brackets"][0]["terms"][0]["c"] == {"p": 5, "value": 3}  # [e, h] = -2e
    edits = {
        "must be an integer": [
            lambda o: o.__setitem__("dim", "3"),
            lambda o: o["brackets"][0].__setitem__("i", 1.0),
            lambda o: o["brackets"][0]["terms"][0].__setitem__("k", 0.5),
            lambda o: o["brackets"][0]["terms"][0]["c"].__setitem__("value", 2.0),
        ],
        "at least 1": [lambda o: o.update(dim=0, brackets=[], labels=[])],
        "labels": [lambda o: o.__setitem__("labels", ["e", "h"])],
        "out of range": [lambda o: o["brackets"][0].__setitem__("j", 3),
                         lambda o: o["brackets"][0]["terms"][0].__setitem__("k", -1)],
    }
    for words, fns in edits.items():
        for edit in fns:
            bad = json.loads(json.dumps(good))
            edit(bad)
            path = tmp_path / "lie.json"
            path.write_text(json.dumps(bad))
            err = expect_input_error(capsys, "check-lie", "--input", str(path))
            assert words in err, err

    lie = tmp_path / "sl2.json"
    lie.write_text(json.dumps(lie_to_json(sl2(FieldCtx.rationals()))))
    small = tmp_path / "b.json"
    small.write_text(json.dumps([["1", "0"], ["0", "1"]]))
    err = expect_input_error(capsys, "check-lie", "--input", str(lie), "--b", str(small))
    assert "B maps dim 2 to dim 2" in err


def test_lie_dimension_is_capped(tmp_path, capsys):
    # rejected while the file is read, before a d^3 Jacobi loop could start
    big = {"field": "Q", "dim": MAX_DIM + 1, "brackets": []}
    with pytest.raises(ValueError, match=f"dimension {MAX_DIM + 1} exceeds cap {MAX_DIM}"):
        lie_from_json(big)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(big))
    err = expect_input_error(capsys, "check-lie", "--input", str(path))
    assert "exceeds cap" in err


@pytest.mark.parametrize("argv", [
    ["check-lie", "--input", str(FIXTURES / "sl2.json"), "--field", "F5"],
    ["check-rrb", "--input", str(FIXTURES / "h4-rrb-exact-factorization.json"), "--jobs", "4"],
    ["check-group-rb", "--group", str(FIXTURES / "z3.json"), "--map", "0,0,0", "--cap", "1"],
    ["verify", "--construction", "h4", "--jobs", "2"],
    ["enum-rb", "--group", str(FIXTURES / "s3.json"), "--jobs", "2"],
    ["aut", "--construction", "h4", "--grid", "0,1", "--jobs", "2"],
])
def test_subcommands_reject_shared_flags_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_cli_loads_no_process_pool():
    # every search runs in this process, so nothing starts a worker pool
    code = ("import sys, hopfrb.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(hopfrb.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"


def readme_commands() -> list:
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return [shlex.split(line)[1:] for line in section.splitlines() if line.startswith("hopfrb ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # from the repository root, where the README's fixture paths resolve
    monkeypatch.chdir(ROOT)
    commands = readme_commands()
    assert len(commands) == 11
    for argv in commands:
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(tmp_path / "out.json")
        code = main(argv)
        assert code in (0, 1), (argv, capsys.readouterr().err)


@pytest.mark.parametrize("argv, content, message", [
    (["enum-rb", "--group"], [1, 2], "group must be an object, not an array"),
    (["check-lie", "--input"], [], "Lie algebra must be an object, not an array"),
    (["check-rrb", "--input"], {"H": 3}, "H must be an object or a string, not 3"),
    (["check-group-rb", "--group", str(FIXTURES / "z3.json"), "--operator"], [],
     "operator must be an object, not an array"),
    (["check-group-rb", "--map", "0,1", "--group"], {}, "group has no field 'table'"),
    (["check-group-rb", "--map", "0,1", "--group"], {"table": [[0, 1], [1, 0]], "name": 5},
     "name must be a string, not 5"),
], ids=["enum-rb", "check-lie", "check-rrb", "operator", "no-table", "name"])
def test_malformed_files_name_the_field(tmp_path, capsys, argv, content, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    assert expect_input_error(capsys, *argv, str(path)) == f"error: {message}\n"


def json_nodes(value, path=()):
    """Every (path, node) of a JSON value, the root first."""
    yield path, value
    if isinstance(value, (dict, list)):
        for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from json_nodes(child, path + (key,))


def edited(value, path, new=None):
    """A copy of value with the node at path replaced by new, or deleted when
    new is None."""
    out = json.loads(json.dumps(value))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if new is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return out


def malformed(base, rng, count: int) -> list:
    """Wrong inputs made from the valid JSON value base: the top level as
    each JSON type or empty, then count seeded edits below it, each a key
    that is not optional deleted, a node replaced by a value that no field
    takes (1.5 or true), or a container by the other kind of container.
    Each is (the key that the error must name or None, the input)."""
    optional = {"name", "order", "identity", "labels", "group"}
    edits = []
    for path, node in list(json_nodes(base))[1:]:
        named = path[-1] if isinstance(path[-1], str) else None
        edits += [(named, path, 1.5), (named, path, True)]
        if isinstance(node, (dict, list)):
            edits.append((named, path, [] if isinstance(node, dict) else {}))
        if named is not None and named not in optional:
            edits.append((named, path, None))
    top = [(None, other) for other in ([], [1, 2], {}, 5, "x", None)]
    return top + [(named, edited(base, path, new))
                  for named, path, new in rng.sample(edits, min(count, len(edits)))]


def test_malformed_files_are_input_errors(tmp_path, capsys):
    # every subcommand and file flag: exit 2 and one line that names the
    # field, never a traceback; the whole suite also runs under python -O
    rng = random.Random(26)
    s3, z3, sl2_file = (str(FIXTURES / name) for name in ("s3.json", "z3.json", "sl2.json"))
    rrb = json.loads((FIXTURES / "h4-rrb-exact-factorization.json").read_text())
    path, side = tmp_path / "input.json", tmp_path / "side.json"
    # (valid base, command on the input file, whether the edits go to the
    # Hopf file that a check-rrb input names as its H)
    flags = [
        (s3, lambda f: ["enum-rb", "--group", f], False),
        (s3, lambda f: ["check-group-rb", "--group", f, "--map", "0,0,0,0,0,0"], False),
        ({"group": "Z3", "weight": 1, "map": [0, 0, 0]},
         lambda f: ["check-group-rb", "--group", z3, "--operator", f], False),
        (s3, lambda f: ["verify", "--construction", "group-algebra", "--group", f], False),
        (rrb, lambda f: ["check-rrb", "--input", f], False),
        (rrb["H"], lambda f: ["check-rrb", "--input", f], True),
        (sl2_file, lambda f: ["check-lie", "--input", f], False),
        (str(FIXTURES / "sl2-minus-identity.json"),
         lambda f: ["check-lie", "--input", sl2_file, "--b", f, "--weight", "1"], False),
    ]
    runs = 0
    for base, argv, in_side in flags:
        if isinstance(base, str):
            base = json.loads(Path(base).read_text())
        for named, bad in malformed(base, rng, 40):
            top, hopf = (dict(rrb, H=side.name), bad) if in_side else (bad, rrb["H"])
            path.write_text(json.dumps(top))
            side.write_text(json.dumps(hopf))
            err = expect_input_error(capsys, *argv(str(path)))
            assert err.count("\n") == 1 and "Traceback" not in err, err
            if named is not None:
                # a coefficient c of the wrong type is named as the scalar it is not
                assert (f"{named} must be" in err or f"no field {named!r}" in err
                        or named == "c" and "cannot parse scalar" in err), (named, err)
            runs += 1
    # the operator and matrix files have 15 and 27 edits in all
    assert runs == 6 * 46 + (6 + 15) + (6 + 27)


def test_deeply_nested_files_are_input_errors(tmp_path, capsys):
    # the decoder recurses once per level; every subcommand and file flag,
    # check-rrb's H and G paths too: exit 2 and one line that names the file
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    rrb = json.loads((FIXTURES / "h4-rrb-exact-factorization.json").read_text())
    for side in ("H", "G"):
        (tmp_path / f"{side}.json").write_text(json.dumps(dict(rrb, **{side: deep.name})))
    d, z3, sl2_file = str(deep), str(FIXTURES / "z3.json"), str(FIXTURES / "sl2.json")
    for argv in (["enum-rb", "--group", d],
                 ["check-group-rb", "--group", d, "--map", "0"],
                 ["check-group-rb", "--group", z3, "--operator", d],
                 ["verify", "--construction", "group-algebra", "--group", d],
                 ["check-rrb", "--input", d],
                 ["check-rrb", "--input", str(tmp_path / "H.json")],
                 ["check-rrb", "--input", str(tmp_path / "G.json")],
                 ["check-lie", "--input", d],
                 ["check-lie", "--input", sl2_file, "--b", d]):
        err = expect_input_error(capsys, *argv)
        assert err == f"error: {d} nests too deeply to decode\n", (argv, err)
