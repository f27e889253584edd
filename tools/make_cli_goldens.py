"""Regenerate tests/data/cli/, the golden outputs of the hopfrb command line.

Each file holds the exact standard output of one command: check-group-rb on
a passing operator and on a near miss of it (one image changed) at weights 1
and -1 on S3 and D8 and weight 2 on F21, and enum-rb on S3 (weight 1), D8
(weights 1 and -1), F21 (weight 2), Z2^3 (weight 1), Z4xZ2 (weights 1 and
-1) and S3xZ2 (weight -1), verify on h4 over
Q, the Taft algebra m = 3 over Q(z3), the group algebra of S3 and a family
whose hypotheses fail (m = 3, zeta = z3, l = 2), and check-rrb on the h4
exact-factorization fixture (with and without --full) and on a copy whose
operator is B(h) = e(h)g, a coalgebra map with B(1) = g, aut over exact
grids on h4, the Taft algebra m = 3 and the curled F3 family (grid values
spelled as 2/2 and 4 among them), and check-lie on the sl2 fixture, alone
and with its weight-1 operator.  The JSON carries every status, witness and
count, so a change to any of them shows.
tests/test_cli_goldens.py reruns every command and compares byte for byte.

Run from the repository root:  python3 tools/make_cli_goldens.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from hopfrb import cli
from hopfrb.rb_group import GroupTable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "tests", "data", "cli")
FIXTURES = os.path.join(ROOT, "fixtures")

# file name -> (input file or None, command arguments after it, expected
# exit code); check-rrb and check-lie read their file from --input, the
# others from --group
CASES = {
    "check-group-rb-S3-w1-pass.json": ("S3", ["check-group-rb", "--map", "0,3,4,4,3,0"], 0),
    "check-group-rb-S3-w1-near.json": ("S3", ["check-group-rb", "--map", "0,3,4,4,3,1"], 1),
    "check-group-rb-S3-w-1-pass.json": ("S3", ["check-group-rb", "--weight=-1",
                                               "--map", "0,3,4,3,4,0"], 0),
    "check-group-rb-S3-w-1-near.json": ("S3", ["check-group-rb", "--weight=-1",
                                               "--map", "0,3,4,3,4,2"], 1),
    "check-group-rb-D8-w1-pass.json": ("D8", ["check-group-rb", "--map", "0,1,1,0,4,5,5,4"], 0),
    "check-group-rb-D8-w1-near.json": ("D8", ["check-group-rb", "--map", "0,1,1,0,4,5,5,6"], 1),
    "check-group-rb-D8-w-1-pass.json": ("D8", ["check-group-rb", "--weight=-1",
                                               "--map", "0,1,1,4,4,5,5,0"], 0),
    "check-group-rb-D8-w-1-near.json": ("D8", ["check-group-rb", "--weight=-1",
                                               "--map", "0,1,1,4,4,5,2,0"], 1),
    "check-group-rb-F21-w2-pass.json": (
        "F21", ["check-group-rb", "--weight", "2",
                "--map", "0,1,2,15,4,5,9,7,8,3,10,11,18,13,14,12,16,17,6,19,20"], 0),
    "check-group-rb-F21-w2-near.json": (
        "F21", ["check-group-rb", "--weight", "2",
                "--map", "0,1,2,15,4,5,9,7,8,3,10,11,18,13,14,12,16,17,6,19,0"], 1),
    "enum-rb-S3-w1.json": ("S3", ["enum-rb"], 0),
    "enum-rb-D8-w1.json": ("D8", ["enum-rb"], 0),
    "enum-rb-D8-w-1.json": ("D8", ["enum-rb", "--weight=-1"], 0),
    "enum-rb-F21-w2.json": ("F21", ["enum-rb", "--weight", "2"], 0),
    "enum-rb-Z2xZ2xZ2-w1.json": ("Z2^3", ["enum-rb"], 0),
    "enum-rb-Z4xZ2-w1.json": ("Z4xZ2", ["enum-rb"], 0),
    "enum-rb-Z4xZ2-w-1.json": ("Z4xZ2", ["enum-rb", "--weight=-1"], 0),
    "enum-rb-S3xZ2-w-1.json": ("S3xZ2", ["enum-rb", "--weight=-1"], 0),
    "verify-h4-Q.json": (None, ["verify", "--construction", "h4", "--field", "Q"], 0),
    "verify-taft3-Qz3.json": (None, ["verify", "--construction", "taft", "--m", "3",
                                     "--field", "Q(z3)"], 0),
    "verify-group-algebra-S3-Q.json": ("S3", ["verify", "--construction", "group-algebra",
                                              "--field", "Q"], 0),
    "verify-family-m3-l2-Qz3.json": (None, ["verify", "--construction", "family", "--m", "3",
                                            "--zeta", "z3", "--l", "2", "--field", "Q(z3)"], 1),
    "check-rrb-h4.json": ("h4-rrb", ["check-rrb"], 0),
    "check-rrb-h4-full.json": ("h4-rrb", ["check-rrb", "--full"], 0),
    "check-rrb-h4-unit-g.json": ("h4-rrb-unit-g", ["check-rrb"], 1),
    "aut-h4-Q.json": (None, ["aut", "--construction", "h4", "--field", "Q",
                             "--grid", "0,1,-1,2/2,1/3,5"], 0),
    "aut-taft3-Qz3.json": (None, ["aut", "--construction", "taft", "--m", "3",
                                  "--field", "Q(z3)", "--grid", "0,1,z3,2/2*z3^2"], 0),
    "aut-family-curled-F3.json": (None, ["aut", "--construction", "family", "--field", "F3",
                                         "--m", "2", "--zeta=-1", "--l", "6", "--f", "0,0,1",
                                         "--grid", "0,4"], 0),
    "check-lie-sl2.json": ("sl2", ["check-lie"], 0),
    "check-lie-sl2-rb-w1.json": ("sl2", ["check-lie", "--b",
                                         os.path.join(FIXTURES, "sl2-minus-identity.json"),
                                         "--weight", "2/2"], 0),
}


def input_files(directory: str) -> dict:
    """Input name -> file: S3, F21 and h4-rrb from fixtures/; D8, Z2^3,
    Z4xZ2, S3xZ2 and h4-rrb-unit-g written into directory."""
    Z2 = GroupTable.cyclic(2)
    built = {"D8": GroupTable.metacyclic(4, 2, 3),
             "Z2^3": GroupTable.direct_product(GroupTable.direct_product(Z2, Z2), Z2),
             "Z4xZ2": GroupTable.direct_product(GroupTable.cyclic(4), Z2),
             "S3xZ2": GroupTable.direct_product(GroupTable.symmetric(3), Z2)}
    paths = {"S3": os.path.join(FIXTURES, "s3.json"), "F21": os.path.join(FIXTURES, "f21.json"),
             "h4-rrb": os.path.join(FIXTURES, "h4-rrb-exact-factorization.json"),
             "sl2": os.path.join(FIXTURES, "sl2.json")}
    for name, G in built.items():
        paths[name] = os.path.join(directory, name.replace("^", "") + ".json")
        with open(paths[name], "w") as fh:
            json.dump({"name": name, "table": [list(r) for r in G.table]}, fh)
    with open(paths["h4-rrb"]) as fh:
        rrb = json.load(fh)
    # B(h) = e(h)g: the row of g (basis index 1) is the counit of H
    rrb["B"] = [["0"] * 4, rrb["H"]["counit"], ["0"] * 4, ["0"] * 4]
    paths["h4-rrb-unit-g"] = os.path.join(directory, "h4-rrb-unit-g.json")
    with open(paths["h4-rrb-unit-g"], "w") as fh:
        json.dump(rrb, fh)
    return paths


def outputs() -> dict:
    """File name -> the standard output of its command."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = input_files(tmp)
        for fname, (name, args, want) in CASES.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                flag = "--input" if args[0] in ("check-rrb", "check-lie") else "--group"
                where = [] if name is None else [flag, paths[name]]
                code = cli.main([args[0], *where, *args[1:]])
            if code != want:
                raise RuntimeError(f"{fname}: exit {code}, expected {want}")
            out[fname] = buf.getvalue()
    return out


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    for fname, text in outputs().items():
        with open(os.path.join(OUT, fname), "w") as fh:
            fh.write(text)
    print(f"wrote {len(CASES)} files to {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
