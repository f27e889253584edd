"""The four workloads: seeded inputs, one job per verdict, and known answers.

Each build_* function takes a Bench (work directory plus seeded random
source) and returns the jobs of one round.  Every input is made here, before
the first timed job; a job's run() is the program call alone and its check()
compares the result with the known answer, returning None or the reason it
is wrong.

The program is reached through hopfrb.cli.main and public library calls,
always looked up on the module at call time so that tracer.Tracer can
replace them.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import hopfrb.cli as cli
from hopfrb import constructions as cons
from hopfrb import hopf_core as hc
from hopfrb import rb_group as rg
from hopfrb import rb_hopf as rh
from hopfrb import rb_lie as rl
from hopfrb import scalars as sc

import groups

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIXTURES = os.path.join(ROOT, "fixtures")


class Job:
    __slots__ = ("label", "run", "check", "candidates")

    def __init__(self, label: str, run, check, candidates: int = 0):
        self.label = label
        self.run = run
        self.check = check
        self.candidates = candidates   # automorphism candidates the job tries


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


class Bench:
    """Per-run state shared by the build_* functions."""

    def __init__(self, workdir: str, rng):
        self.workdir = workdir
        self.rng = rng
        self.out = os.path.join(workdir, "out.json")
        self.bytes_out = 0   # output written by CLI jobs
        self.aut_hits = 0    # automorphisms reported by aut jobs
        self.known = load_json(os.path.join(HERE, groups.KNOWN_FILE))
        self.tables = groups.group_tables(ROOT)
        for name, t in self.tables.items():
            if groups.table_digest(t) != self.known["groups"][name]["table_sha256"]:
                raise RuntimeError(f"known answers do not match the {name} table; "
                                   "rerun perfbench/make_known.py")

    def write_json(self, name: str, obj) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def group_file(self, name: str) -> str:
        return self.write_json(f"group-{name}.json", groups.to_json(self.tables[name], name))

    def operators(self, name: str, weight: int) -> dict:
        return self.known["operators"][f"{name}@{weight}"]

    def cli_job(self, label: str, argv: list, expect, candidates: int = 0) -> Job:
        """A hopfrb command; expect(exit_code, payload) judges its output."""
        argv = list(argv) + ["--out", self.out]

        def run():
            return cli.main(argv)

        def check(code):
            self.bytes_out += os.path.getsize(self.out)
            with open(self.out) as fh:
                payload = json.load(fh)
            os.remove(self.out)
            return expect(code, payload)

        return Job(label, run, check, candidates)


def expect_report(ok: bool, dim: int | None = None):
    """Exit 0 with status pass, or exit 1 with a witness."""
    def expect(code, payload):
        want = "pass" if ok else "fail"
        if code != (0 if ok else 1) or payload.get("status") != want:
            return f"exit {code}, status {payload.get('status')}, expected {want}"
        if not ok and payload.get("witness") is None:
            return "failure without a witness"
        if dim is not None and payload.get("dim") != dim:
            return f"dim {payload.get('dim')}, expected {dim}"
        return None
    return expect


def report_is(ok: bool, identities=None):
    """Check a library VerificationReport against the known verdict."""
    def check(rep):
        if rep.ok != ok:
            return f"status {rep.status}, expected {'pass' if ok else 'fail'}"
        if not ok and rep.witness is None:
            return "failure without a witness"
        if identities is not None and rep.identity not in identities:
            return f"failed at {rep.identity}, expected one of {sorted(identities)}"
        return None
    return check


def flag(name: str, value) -> str:
    """--name=value, so that values such as -1 are never read as options."""
    return f"--{name}={value}"


# ---------------------------------------------------------------------------
# hopf-verify


# mutation kinds with their draw weights and the identities a mutant of that
# kind must fail at (None: any failure with a witness)
MUTANT_KINDS = (
    ("antipode", 0.4, {"antipode.antipode_left", "antipode.antipode_right"}),
    ("counit", 0.3, {"coalgebra.counit_left", "coalgebra.counit_right"}),
    ("mult", 0.15, None),
    ("delta", 0.15, None),
)
RATIONAL_SHIFTS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3)]


def json_is_zero(c) -> bool:
    if isinstance(c, str):
        return Fraction(c) == 0
    if "coeffs" in c:
        return not any(Fraction(x) for x in c["coeffs"])
    return c["value"] % c["p"] == 0


def json_shift(c, d):
    """The serialized scalar c plus d; d is an int for prime fields."""
    if isinstance(c, str):
        return str(Fraction(c) + d)
    if "coeffs" in c:
        coeffs = list(c["coeffs"])
        coeffs[0] = str(Fraction(coeffs[0]) + d)
        return {**c, "coeffs": coeffs}
    return {**c, "value": (c["value"] + d) % c["p"]}


def mutant_sites(obj: dict) -> dict:
    """Entries whose change provably breaks an axiom (see known_answers rules)."""
    dim = obj["dim"]
    eps = [not json_is_zero(c) for c in obj["counit"]]
    unit = [i for i, c in enumerate(obj["unit"]) if not json_is_zero(c)]
    u = unit[0] if len(unit) == 1 else None
    return {
        "antipode": [(r, c) for r in range(dim) for c in range(dim)],
        "counit": [(k,) for k in range(dim)],
        "mult": [(e, t) for e, entry in enumerate(obj["mult"])
                 for t, term in enumerate(entry["terms"])
                 if eps[term["k"]] or u in (entry["i"], entry["j"])],
        "delta": [(e, t) for e, entry in enumerate(obj["delta"])
                  for t, term in enumerate(entry["terms"])
                  if eps[term["j"]] or eps[term["k"]]],
    }


def mutate(obj: dict, kind: str, site: tuple, d) -> dict:
    out = json.loads(json.dumps(obj))
    if kind == "antipode":
        r, c = site
        out["antipode"][r][c] = json_shift(out["antipode"][r][c], d)
    elif kind == "counit":
        out["counit"][site[0]] = json_shift(out["counit"][site[0]], d)
    else:
        e, t = site
        term = out[kind][e]["terms"][t]
        term["c"] = json_shift(term["c"], d)
    return out


def draw_mutants(rng, base: dict, prime: bool, count: int, kinds=MUTANT_KINDS) -> list:
    sites = mutant_sites(base)
    kinds = [k for k in kinds if sites[k[0]]]
    shifts = [1, -1] if prime else RATIONAL_SHIFTS
    seen: set = set()
    out = []
    while len(out) < count:
        kind, _, expected = rng.choices(kinds, weights=[k[1] for k in kinds])[0]
        site = rng.choice(sites[kind])
        d = rng.choice(shifts)
        if (kind, site, d) in seen:
            continue
        seen.add((kind, site, d))
        out.append((kind, site, d, expected, mutate(base, kind, site, d)))
    return out


def build_hopf_verify(b: Bench) -> list[Job]:
    jobs = []
    fixed = [("h4", ["--construction", "h4"], 4)]
    for m in range(2, 6):
        fixed.append((f"taft m={m}", ["--construction", "taft", "--m", str(m),
                                      "--field", f"Q(z{m})"], m * m))
    family = ["--construction", "family", "--field", "F3", "--m", "2", flag("zeta", -1),
              "--l", "6"]
    fixed.append(("F3 family", family, 12))
    fixed.append(("F3 family curled", family + ["--f", "0,0,1"], 12))
    for name in ("s3", "z4", "f21"):
        path = os.path.join(FIXTURES, f"{name}.json")
        fixed.append((f"group algebra {name}", ["--construction", "group-algebra",
                                                "--group", path], len(load_json(path)["table"])))
    for label, argv, dim in fixed:
        jobs.append(b.cli_job(f"verify {label}", ["verify"] + argv, expect_report(True, dim)))

    Q, F3 = sc.parse_field("Q"), sc.parse_field("F3")
    s3 = rg.group_from_json(load_json(os.path.join(FIXTURES, "s3.json")))
    z4 = rg.group_from_json(load_json(os.path.join(FIXTURES, "z4.json")))
    minus1 = F3.from_int(-1)
    counit_only = [k for k in MUTANT_KINDS if k[0] == "counit"]
    # base algebra, mutants per round, kinds.  Six fixed inputs cost more than
    # any mutant.  Below them, the Taft m=3 counit mutants each run the full
    # algebra, bialgebra and antipode checks, so they cost alike and hold
    # verdict_s.p90; the s3 and Taft m=2 mutants, also alike, hold p50.
    bases = [
        ("h4", cons.sweedler_h4(Q), 8, MUTANT_KINDS),
        ("taft m=2", cons.taft(2, sc.parse_field("Q(z2)")), 10, MUTANT_KINDS),
        ("taft m=3", cons.taft(3, sc.parse_field("Q(z3)")), 12, counit_only),
        ("F3 family", cons.family(cons.FamilyParams(2, minus1, 6, None), F3), 8, MUTANT_KINDS),
        ("F3 family curled",
         cons.family(cons.FamilyParams(2, minus1, 6, [F3.zero, F3.zero, F3.one]), F3), 7,
         MUTANT_KINDS),
        ("group algebra s3", cons.group_algebra(s3, Q), 40, MUTANT_KINDS),
        ("group algebra z4", cons.group_algebra(z4, Q), 5, MUTANT_KINDS),
    ]
    for name, H, count, kinds in bases:
        base = hc.hopf_to_json(H)
        prime = H.ctx.name().startswith("F")
        for kind, site, d, expected, obj in draw_mutants(b.rng, base, prime, count, kinds):
            jobs.append(Job(f"mutant {name} {kind} {site} {d}",
                            lambda obj=obj: hc.check_hopf(hc.hopf_from_json(obj)),
                            report_is(False, expected)))
    return jobs


# ---------------------------------------------------------------------------
# rb-enum


def expect_enumeration(known: dict, weight: int):
    def expect(code, payload):
        if code != 0:
            return f"exit {code}"
        rows = payload["operators"]
        if payload["count"] != known["count"] or len(rows) != known["count"]:
            return f"count {payload['count']}, expected {known['count']}"
        if groups.digest(row["map"] for row in rows) != known["sha256"]:
            return "operator list differs from the known list"
        keys = ("skew_brace", "derived_group", "lemma") if weight == 1 else (
            "skew_brace", "derived_group")
        for row in rows:
            for key in keys:
                if row.get(key) != "pass":
                    return f"{key} {row.get(key)} for {row['map']}"
        return None
    return expect


def expect_operators(known: dict):
    def check(ops):
        if len(ops) != known["count"] or groups.digest(ops) != known["sha256"]:
            return f"{len(ops)} operators, expected {known['count']} (or a different list)"
        return None
    return check


def operator_verdicts_pass(reports):
    for name, rep in zip(("circ_from_rrb", "derived_group", "lemma_checks"), reports):
        if not rep.ok:
            return f"{name} fails at {rep.identity}"
    return None


def build_rb_enum(b: Bench) -> list[Job]:
    rng = b.rng
    jobs = []
    # both weights where the per-operator verdicts are cheap, one weight where
    # they cost more than 0.3 s (B -> B(a^-1) maps one set onto the other)
    plan = [(name, w) for name in ("S3", "D8", "Z4xZ2") for w in (1, -1)]
    plan += [("S3xZ2", -1), ("Z2^3", 1), ("F21", 2)]
    paths = {name: b.group_file(name) for name in ("S3", "D8", "Z4xZ2", "S3xZ2", "Z2^3",
                                                    "Z3", "Z4", "S3xS3")}
    paths["F21"] = os.path.join(FIXTURES, "f21.json")
    for name, w in plan:
        jobs.append(b.cli_job(f"enum-rb {name} weight {w}",
                              ["enum-rb", "--group", paths[name], flag("weight", w)],
                              expect_enumeration(b.operators(name, w), w)))

    for name in ("S3xS3", "Z2xS4"):
        G = rg.group_from_json(groups.to_json(b.tables[name], name))
        jobs.append(Job(f"enumerate_rb {name}", lambda G=G: rg.enumerate_rb(G, 1),
                        expect_operators(b.operators(name, 1))))

    G = rg.group_from_json(groups.to_json(b.tables["S3xS3"], "S3xS3"))
    star = rg.power_star(G, 1)
    for text in rng.sample(b.operators("S3xS3", 1)["maps"], 10):
        B = groups.decode_map(text)
        jobs.append(Job(f"operator verdicts S3xS3 {text}",
                        lambda B=B: (rg.circ_from_rrb(G, star, B)[1], rg.derived_group(G, B)[1],
                                     rg.lemma_checks(G, B)),
                        operator_verdicts_pass))

    # single maps: near misses of known operators (one image changed), known
    # operators, and uniform random maps on the small groups.  The S3xS3 near
    # misses are the middle of the round, so verdict_s.p50 falls among them.
    def map_job(name: str, w: int, kind: str) -> Job:
        known = b.operators(name, w)["maps"]
        n = len(b.tables[name])
        if kind == "random":
            B = tuple(rng.randrange(n) for _ in range(n))
        else:
            B = list(groups.decode_map(rng.choice(known)))
            if kind == "near miss":
                x = rng.randrange(n)
                B[x] = (B[x] + rng.randrange(1, n)) % n
            B = tuple(B)
        return b.cli_job(f"check-group-rb {name} weight {w} {kind} {groups.encode_map(B)}",
                         ["check-group-rb", "--group", paths[name],
                          "--map", ",".join(map(str, B)), flag("weight", w)],
                         expect_report(groups.encode_map(B) in known))

    specs = [("S3xS3", 1, "near miss", 60), ("S3xS3", 1, "known", 10),
             ("F21", 2, "near miss", 3), ("F21", 2, "known", 3),
             ("S3", 1, "random", 1), ("Z4", -1, "random", 1), ("Z3", 1, "random", 1)]
    for name, w, kind, count in specs:
        jobs += [map_job(name, w, kind) for _ in range(count)]
    return jobs


# ---------------------------------------------------------------------------
# aut-search


Q_POOL = ["0", "1", "-1", "2", "-2", "1/2", "1/3", "-1/3", "5", "3/4", "-7"]
GRID_POOLS = {"Q": Q_POOL, "Q(z2)": Q_POOL,
              "Q(z3)": Q_POOL + ["z3", "-z3", "2*z3", "1 + z3", "1/2*z3"],
              "Q(z4)": Q_POOL + ["z4", "-z4", "2*z4", "1 + z4", "1/3*z4"]}
F3_SPELLINGS = {0: ["0", "3", "-3"], 1: ["1", "4", "-2"], 2: ["2", "-1", "1/2"]}


def aut_candidates(m: int, l: int, grid_size: int) -> int:
    """family_aut_search tries every grid value at each degree q = k (mod m)."""
    return sum(grid_size ** len([q for q in range(1, l) if q % m == k % m])
               for k in range(m))


def expect_aut_hits(b: Bench, ctx, l: int, grid: list, zero: list):
    """Hits are exactly k = 1 with c_1 a nonzero grid value and c_q = 0 else."""
    want = [v for v, z in zip(grid, zero) if not z]

    def expect(code, payload):
        if code != 0:
            return f"exit {code}"
        hits = payload["hits"]
        b.aut_hits += len(hits)
        if payload["count"] != len(want) or len(hits) != len(want):
            return f"{payload['count']} hits, expected {len(want)}"
        for hit, v in zip(hits, want):
            c = [sc.parse_scalar(x, ctx) for x in hit["c"]]
            if (hit["k"] != 1 or len(c) != l or c[1] != sc.parse_scalar(v, ctx)
                    or any(not x.is_zero for q, x in enumerate(c) if q != 1)):
                return f"hit {hit}, expected k = 1 and c_1 = {v}"
        return None
    return expect


def build_aut_search(b: Bench) -> list[Job]:
    rng = b.rng
    family = ["--construction", "family", "--field", "F3", "--m", "2", flag("zeta", -1),
              "--l", "6"]
    # label, arguments, field, m, l, grid size, jobs per round.  The counts put
    # verdict_s.p50 inside the h4 family and verdict_s.p90 inside Taft m=3.
    specs = [
        ("h4", ["--construction", "h4"], "Q", 2, 2, 5, 76),
        ("taft m=2", ["--construction", "taft", "--m", "2"], "Q(z2)", 2, 2, 4, 10),
        ("taft m=3", ["--construction", "taft", "--m", "3"], "Q(z3)", 3, 3, 1, 14),
        ("taft m=4", ["--construction", "taft", "--m", "4"], "Q(z4)", 4, 4, 2, 1),
        ("F3 family", family, "F3", 2, 6, 2, 1),
        ("F3 family curled", family + ["--f", "0,0,1"], "F3", 2, 6, 2, 1),
    ]
    jobs = []
    for label, argv, field, m, l, size, count in specs:
        ctx = sc.parse_field(field)
        for _ in range(count):
            if field == "F3":
                # zero must be on the grid, or no candidate has c_3 = c_5 = 0
                values = [0, rng.choice((1, 2))]
                rng.shuffle(values)
                grid = [rng.choice(F3_SPELLINGS[v]) for v in values]
                zero = [v == 0 for v in values]
            else:
                grid = rng.sample(GRID_POOLS[field], size)
                zero = [v == "0" for v in grid]
            text = ",".join(grid)
            jobs.append(b.cli_job(f"aut {label} grid {text}",
                                  ["aut"] + argv + ["--field", field, flag("grid", text)],
                                  expect_aut_hits(b, ctx, l, grid, zero),
                                  aut_candidates(m, l, size)))
    return jobs


# ---------------------------------------------------------------------------
# relative-rb


def perm_indices(n: int, members) -> list[int]:
    """Positions, in groups.symmetric(n) numbering, of the given permutations."""
    index = {p: i for i, p in enumerate(groups.permutations(n))}
    return sorted(index[tuple(p)] for p in members)


def cyclic_closure(p: tuple) -> list[tuple]:
    out, q = [], tuple(range(len(p)))
    while True:
        out.append(q)
        q = tuple(p[q[i]] for i in range(len(p)))
        if q == out[0]:
            return out


def build_relative_rb(b: Bench) -> list[Job]:
    rng = b.rng
    Q = sc.parse_field("Q")
    jobs = []
    fixture = os.path.join(FIXTURES, "h4-rrb-exact-factorization.json")
    for i in range(5):
        jobs.append(b.cli_job(f"check-rrb h4 fixture #{i}",
                              ["check-rrb", "--input", fixture, "--full"],
                              expect_report(True)))

    # S3 = <(0 1 2)> <(0 1)>;  S4 = Stab(3) <(0 1 2 3)>, i.e. S3 times Z4
    factorizations = [
        ("S3", 3, cyclic_closure((1, 2, 0)), cyclic_closure((1, 0, 2))),
        ("S4", 4, [p for p in groups.permutations(4) if p[3] == 3],
         cyclic_closure((1, 2, 3, 0))),
    ]
    for name, n, A, L in factorizations:
        G = rg.group_from_json(groups.to_json(b.tables[name], name))
        data = rh.exact_factorization_rrb(G, perm_indices(n, A), perm_indices(n, L), Q)
        jobs.append(Job(f"check_rrbo full {name}", lambda d=data: rh.check_rrbo(d, full=True),
                        report_is(True)))
        jobs.append(Job(f"check_hopf_brace {name}", lambda d=data: rh.check_hopf_brace(d),
                        report_is(True)))
        jobs.append(Job(f"check_hopf derived {name}",
                        lambda d=data: hc.check_hopf(rh.derived_hopf(d)), report_is(True)))

    # every weight-1 operator of S3 and Z4, and a seeded four of D8's 56: the
    # D8 ones are the only jobs between the S3 ones and S4, so verdict_s.p90
    # falls in the middle of the eight S3 ones
    for name, count in (("S3", None), ("Z4", None), ("D8", 4)):
        G = rg.group_from_json(groups.to_json(b.tables[name], name))
        maps = b.operators(name, 1)["maps"]
        for text in (maps if count is None else rng.sample(maps, count)):
            B = groups.decode_map(text)
            jobs.append(Job(f"grbo_check {name} {text}",
                            lambda G=G, B=B: rh.grbo_check(*rg.linearize_rb(G, B, Q)),
                            report_is(True)))

    g = rl.sl2(Q)
    sl2_path = b.write_json("sl2.json", rl.lie_to_json(g))
    cases = b.known["sl2_rb_weight"]["cases"]
    passing = [c for c in cases if c["ok"]]
    failing = [c for c in cases if not c["ok"]]
    picked = rng.sample(passing, 20) + rng.sample(failing, 53)
    rng.shuffle(picked)
    for i, case in enumerate(picked):
        rows = case["rows"]
        if i < 40:
            B = hc.LinearMap.from_json(rows, Q)
            lam = sc.parse_scalar(case["lambda"], Q)
            jobs.append(Job(f"check_rb_lie_weight sl2 {rows} {case['lambda']}",
                            lambda B=B, lam=lam: rl.check_rb_lie_weight(g, B, lam),
                            report_is(case["ok"])))
        else:
            path = b.write_json(f"sl2-op-{i}.json", rows)
            jobs.append(b.cli_job(f"check-lie sl2 {rows} {case['lambda']}",
                                  ["check-lie", "--input", sl2_path, "--b", path,
                                   flag("weight", case["lambda"])],
                                  expect_report(case["ok"])))
    return jobs


BUILD = {
    "hopf-verify": build_hopf_verify,
    "rb-enum": build_rb_enum,
    "aut-search": build_aut_search,
    "relative-rb": build_relative_rb,
}
