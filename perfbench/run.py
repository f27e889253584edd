"""hopfrb benchmark: time to an exact verdict, one closed-loop caller.

Run from the repository root:

    python3 perfbench/run.py --workload hopf-verify --seed 1 --seconds 25 --trace 0

Workloads: hopf-verify, rb-enum, aut-search, relative-rb (see workloads.py).
The seed draws one round of about 100 jobs (mutants, grids, operator
samples, maps).  The round runs again, in a fresh seeded order, while
another whole round fits in --seconds; at least one round always runs.  A
short job runs back to back until it has taken REPEAT_S.  Every verdict is
checked against perfbench/known_answers.json.

Times are host-normalized.  On a shared host the speed of all Python code
swings by a factor of two over tens of seconds, so a reference loop (fixed
Fraction and dict work, part of this file) is timed before and after every
job, and a job's time is reported as seconds * REF_S / reference time: the
seconds it would take on a host that runs the reference loop in REF_S.  Raw
seconds go to the summary line above the result.  A job's verdict time is
the median of its normalized runs; jobs_per_s is the number of jobs in a
round over the sum of their verdict times.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one round untraced,
the same round with spans around each layer's public functions, and the
round untraced again; it prints the per-layer metrics of the traced round
(raw seconds) and writes its spans to .perfbench/ under the repository root.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("hopf-verify", "rb-enum", "aut-search", "relative-rb")
SETUP_SAMPLES = 7        # set-ups per untraced run: this process plus six fresh ones
REPEAT_S = 0.02          # an untraced job repeats back to back until it has run this long
MAX_REPEATS = 8
REF_ITERATIONS = 500
REF_S = 0.002            # normalized times assume the reference loop takes this long
SHOWN_FAILURES = 5
# spans whose summed self time is a per-layer metric of its own
SELF_S = ("hopf_core.check_algebra", "hopf_core.check_coalgebra",
          "hopf_core.check_bialgebra_compat", "hopf_core.check_antipode",
          "hopf_core.is_algebra_morphism", "hopf_core.is_coalgebra_morphism",
          "constructions.family_hypotheses", "constructions.family_aut_search",
          "rb_group.enumerate_rb", "rb_group.circ_from_rrb", "rb_group.derived_group",
          "rb_group.lemma_checks", "rb_group.check_rb", "rb_hopf.check_rrbo",
          "rb_hopf.check_hopf_brace", "rb_hopf.derived_hopf", "rb_hopf.grbo_check",
          "rb_lie.check_rb_lie_weight", "rb_lie.check_lie", "report.merge_reports", "cli.main")
# constructions.build.self_s sums these
BUILDS = ("constructions.taft", "constructions.family", "constructions.group_algebra",
          "constructions.sweedler_h4")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it as JSON and exit")
    return p.parse_args(argv)


def reference_s() -> float:
    """Seconds taken by the reference loop right now."""
    t0 = time.perf_counter()
    a, s, d = Fraction(3, 7), Fraction(0), {}
    for i in range(REF_ITERATIONS):
        s += a * Fraction(i % 13 + 1, 11)
        d[i % 17] = s
    return time.perf_counter() - t0


def normalized(seconds: float, refs) -> float:
    return seconds * REF_S / statistics.fmean(refs)


def setup(workload: str, seed: int, workdir: str):
    """Import hopfrb and build one round of inputs.  Returns jobs, the Bench,
    and the set-up time in raw and in normalized seconds."""
    reference_s()  # warm-up
    ref0 = reference_s()
    t0 = time.perf_counter()
    import workloads
    bench = workloads.Bench(workdir, random.Random(seed))
    jobs = workloads.BUILD[workload](bench)
    raw = time.perf_counter() - t0
    return jobs, bench, raw, normalized(raw, (ref0, reference_s()))


def setup_in_fresh_process(workload: str, seed: int) -> tuple[float, float]:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    out = json.loads(done.stdout.strip().splitlines()[-1])
    return out["raw_s"], out["setup_s"]


def run_job(job, on_return=None):
    """(seconds, reason): the time of job.run() alone, and why its result is
    wrong, or None.  on_return() is called as soon as job.run() is done."""
    t0 = time.perf_counter()
    try:
        raw = job.run()
    except Exception as exc:  # a job that raises is a bad job, not a crash
        dt = time.perf_counter() - t0
        reason = f"{type(exc).__name__}: {exc}"
    else:
        dt = time.perf_counter() - t0
        reason = None
    if on_return is not None:
        on_return()
    if reason is not None:
        return dt, reason
    try:
        return dt, job.check(raw)
    except Exception as exc:  # output the check cannot read is wrong output
        return dt, f"unreadable result, {type(exc).__name__}: {exc}"


def run_round(jobs, rng, tracer=None):
    """One pass over every job in seeded order.  Returns records (job index,
    seconds, normalized seconds, reason) and, when traced, the scalar
    operations done inside job.run().  Untraced, a short job runs up to
    MAX_REPEATS times back to back; traced, every job runs once."""
    order = list(range(len(jobs)))
    rng.shuffle(order)
    slots = []
    refs = [reference_s()]   # refs[k] just before slot k, refs[k + 1] just after
    calls = {"mul": 0, "add": 0}
    for i in order:
        runs = []
        if tracer is not None:
            tracer.job = i
            before = {op: box[0] for op, box in tracer.calls.items()}

            def on_return():
                for op in calls:
                    calls[op] += tracer.calls[op][0] - before[op]
            runs.append(run_job(jobs[i], on_return))
        else:
            spent = 0.0
            while len(runs) < MAX_REPEATS and spent < REPEAT_S:
                runs.append(run_job(jobs[i]))
                spent += runs[-1][0]
                if runs[-1][1] is not None:
                    break
        slots.append((i, runs))
        refs.append(reference_s())
    records = []
    for k, (i, runs) in enumerate(slots):
        # two reference timings on each side smooth out their own jitter
        near = refs[max(0, k - 1):k + 3]
        records += [(i, dt, normalized(dt, near), reason) for dt, reason in runs]
    return records, calls


def run_rounds(jobs, seconds: float, rng) -> list:
    """Whole rounds while another one fits in the time left; at least one."""
    rounds = []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        rounds.append(run_round(jobs, rng)[0])
        now = time.perf_counter()
        if now - start + (now - r0) > seconds:
            return rounds


def report_failures(jobs, records) -> int:
    bad = [(jobs[r[0]].label, r[-1]) for r in records if r[-1] is not None]
    for label, reason in bad[:SHOWN_FAILURES]:
        sys.stderr.write(f"bad job: {label}: {reason}\n")
    return len(bad)


def verdict_times(jobs, records) -> list[float]:
    """Per job, the median of its normalized runs."""
    runs = [[] for _ in jobs]
    for i, _, norm, _ in records:
        runs[i].append(norm)
    return [statistics.median(r) for r in runs]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(args, jobs, setup_raw: float, setup_norm: float) -> dict:
    samples = [(setup_raw, setup_norm)] + [setup_in_fresh_process(args.workload, args.seed)
                                           for _ in range(SETUP_SAMPLES - 1)]
    rounds = run_rounds(jobs, args.seconds, random.Random(args.seed))
    records = [r for rnd in rounds for r in rnd]
    verdict = verdict_times(jobs, records)
    failed = report_failures(jobs, records)
    n = len(records)
    raw_s = sum(r[1] for r in records)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {len(jobs)} jobs, "
          f"{n} runs taking {raw_s:.2f} s raw, {sum(r[2] for r in records):.2f} s "
          f"normalized; {len(jobs)} verdict samples; set-up raw s "
          f"{statistics.median(s[0] for s in samples):.3f} over {len(samples)} samples")
    return {
        "correct": failed == 0, "attempted": n, "failed": failed,
        "metrics": {
            "setup_s": metric(statistics.median(s[1] for s in samples), "s"),
            "jobs_per_s": metric(len(jobs) / sum(verdict), "1/s"),
            "verdict_s.p50": metric(statistics.median(verdict), "s"),
            "verdict_s.p90": metric(statistics.quantiles(verdict, n=10,
                                                         method="inclusive")[8], "s"),
            "ok_rate": metric((n - failed) / n, "ratio"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        },
    }


def traced(args, jobs, bench) -> dict:
    import micro
    from tracer import HOPF_CHECKERS, Tracer

    rng = random.Random(args.seed)
    tracer = Tracer()
    before, _ = run_round(jobs, rng)
    bench.bytes_out = bench.aut_hits = 0
    tracer.install()
    try:
        records, calls = run_round(jobs, rng, tracer)
    finally:
        tracer.uninstall()
    bytes_out, aut_hits = bench.bytes_out, bench.aut_hits
    after, _ = run_round(jobs, rng)
    failed = report_failures(jobs, before + records + after)
    # traced round over the untraced rounds around it, normalized
    overhead = sum(r[2] for r in records) / sum(verdict_times(jobs, before + after))

    st = tracer.self_times()
    candidates = sum(job.candidates for job in jobs)
    identities = tracer.identities_checked
    found = tracer.operators_found

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {name: metric(v, "ns")
               for name, v in micro.scalar_metrics(tracer.samples, rng).items()}
    metrics.update({f"{name}.self_s": metric(st.get(name, 0.0), "s") for name in SELF_S})
    metrics.update({
        "scalars.mul_calls": metric(calls["mul"], "count"),
        "scalars.add_calls": metric(calls["add"], "count"),
        "hopf_core.identities_checked": metric(identities, "count"),
        "hopf_core.identities_per_s": metric(
            ratio(identities, tracer.total_times(HOPF_CHECKERS)), "1/s"),
        "constructions.build.self_s": metric(sum(st.get(n, 0.0) for n in BUILDS), "s"),
        "constructions.aut_candidates": metric(candidates, "count"),
        "constructions.aut_hits": metric(aut_hits, "count"),
        "constructions.aut_hit_ratio": metric(ratio(aut_hits, candidates), "ratio"),
        "rb_group.operators_found": metric(found, "count"),
        "rb_group.operators_per_s": metric(
            ratio(found, tracer.total_times({"rb_group.enumerate_rb"})), "1/s"),
        "cli.bytes_out": metric(bytes_out, "bytes"),
        "trace.overhead_ratio": metric(overhead, "ratio"),
    })
    metrics.update({name: metric(v, "us") for name, v in micro.tensor_metrics(rng).items()})

    cross = crosscheck(jobs, tracer)
    write_spans(args, jobs, tracer, cross, overhead)
    for line in cross:
        sys.stderr.write(line + "\n")
    print(f"{args.workload} seed {args.seed} traced: one round of {len(jobs)} jobs, "
          f"{len(tracer.spans)} spans, tracing overhead x{overhead:.2f}")
    return {"correct": failed == 0, "attempted": len(before) + len(records) + len(after),
            "failed": failed, "metrics": metrics}


def crosscheck(jobs, tracer) -> list[str]:
    """The ROADMAP hand baseline next to the traced round's figures."""
    index = {job.label: {i} for i, job in enumerate(jobs)}
    lines = []
    taft5 = index.get("verify taft m=5")
    if taft5:
        parts = ", ".join(f"{name} {tracer.total_times({'hopf_core.check_' + name}, taft5):.2f}"
                          for name in ("algebra", "coalgebra", "bialgebra_compat", "antipode"))
        lines.append(f"check_hopf(taft(5)), traced s: {parts} "
                     "(ROADMAP: algebra 0.84, coalgebra 0.03, bialgebra 0.90, antipode 1.71)")
    for name, hand in (("S3xS3", 0.73), ("Z2xS4", 2.0)):
        label = f"enumerate_rb {name}"
        if label in index:
            s = tracer.total_times({"rb_group.enumerate_rb"}, index[label])
            lines.append(f"{label}, traced: {s:.2f} s (ROADMAP: {hand} s)")
    return lines


def write_spans(args, jobs, tracer, cross, overhead) -> None:
    """Spans of the traced round; a span's job is an index into jobs."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "jobs": [job.label for job in jobs],
                   "crosscheck": cross, "overhead_ratio": overhead,
                   "self_s": tracer.self_times(), "spans": tracer.to_json()}, fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hopfrb", "__init__.py")):
        sys.stderr.write(f"error: no hopfrb sources under {SRC}; run from a checkout\n")
        return 2
    if not os.path.isdir(os.path.join(ROOT, "fixtures")):
        sys.stderr.write("error: the repository's fixtures/ directory is missing\n")
        return 2
    sys.path[:0] = [SRC, HERE]
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        jobs, bench, setup_raw, setup_norm = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            result = {"raw_s": setup_raw, "setup_s": setup_norm}
        elif args.trace:
            result = traced(args, jobs, bench)
        else:
            result = untraced(args, jobs, setup_raw, setup_norm)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
