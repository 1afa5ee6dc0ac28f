"""conezeta benchmark: a seeded, closed-loop, single-client job stream.

    python3 perfbench/run.py --workload small_jobs --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports conezeta from ./src.
One client sends the next job when the previous one has finished, in one
process, with OpenMP/BLAS threads pinned to 1.  A block is the workload's
fixed number of whole passes over its job pool (pool.json `passes`); a run
holds at least one block, and more while another one fits in --seconds.
Each timing metric is the median over blocks of that block's value.  A
block holds the same jobs and the same number of samples on every machine
and commit, so a faster program gets more blocks, not a different
percentile.  Every answer is
checked against a reference that does not come from the reduction
(pool.json, made by make_references.py), and the report bytes of one job
are compared with those a fresh interpreter makes.

--trace 0 prints the end-to-end metrics; --trace 1 runs one block with
spans around every module boundary, writes the spans to .bench_out/ and
prints the per-layer metrics; the tracing overhead is measured against the
same block run untraced by a fresh interpreter.  The last line of stdout
is the result object; the line before it is a summary with the
environment, sample counts and any failures.
`--smoke` checks that a wrong reference is reported as a failure.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types

import jobs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
clock = time.perf_counter
# set before numpy is imported (conezeta imports it); child processes inherit
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# workload -> how one job runs
KINDS = {"small_jobs": "reduce", "superlattice": "reduce",
         "verify_direct": "verify", "known_defects": "reduce"}
SETUP_PROBES = 7
WARMUP = ("small_jobs", "z2")
PROBE_TIMEOUT_S = 120


class CheckoutError(Exception):
    """The checkout has no conezeta sources to benchmark."""


def import_conezeta():
    """conezeta's modules, imported from this checkout's src/ only."""
    if not os.path.isfile(os.path.join(SRC, "conezeta", "__init__.py")):
        raise CheckoutError("no conezeta sources under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import conezeta
    from conezeta import cli, derivation, exact, numeric, pipeline
    if not os.path.abspath(conezeta.__file__).startswith(SRC + os.sep):
        raise CheckoutError("conezeta imported from %s" % conezeta.__file__)
    return types.SimpleNamespace(
        cli=cli, pipeline=pipeline, numeric=numeric, exact=exact,
        derivation=derivation,
        serialise=lambda report: json.dumps(report, indent=1, sort_keys=True))


def setup_probe(workload, seed):
    """Seconds to import conezeta and build the first pass of the job list,
    in this (fresh) interpreter."""
    t0 = clock()
    import_conezeta()
    pool = jobs.load_pool()
    jobs.Draw(pool["workloads"][workload], seed).next_pass()
    return clock() - t0


def measure_setup(workload, seed):
    """Median of SETUP_PROBES fresh-interpreter set-ups."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def determinism_slot(pool, workload):
    det_id = pool["determinism"][workload]
    return next(s for s in pool["workloads"][workload] if s["id"] == det_id)


def report_probe(workload, seed):
    """Report bytes of the workload's determinism job, made in this (fresh)
    interpreter as the CLI prints them."""
    cz = import_conezeta()
    job = cz.cli.parse_job(determinism_slot(jobs.load_pool(), workload)["job"])
    report, _ = cz.cli.run_job(job, "reduce", seed=seed)
    return cz.serialise(report)


def other_hash_seed():
    """A PYTHONHASHSEED that differs from this interpreter's."""
    own = os.environ.get("PYTHONHASHSEED", "random")
    return str((int(own) + 1) % 2 ** 32) if own.isdigit() else "1"


class Runner:
    """Runs jobs of one workload kind; times reduce_cone_zeta on the way."""

    def __init__(self, cz, kind, seed, radius):
        self.cz, self.kind, self.seed, self.radius = cz, kind, seed, radius
        self.rule = None
        self.reduce_times = []
        inner = cz.cli.reduce_cone_zeta
        times = self.reduce_times

        def timed_reduce(*args, **kwargs):
            t0 = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                times.append(clock() - t0)
        self._orig = inner
        cz.cli.reduce_cone_zeta = timed_reduce

    def close(self):
        self.cz.cli.reduce_cone_zeta = self._orig

    def reduce_job(self, slot):
        return jobs.run_reduce_job(self.cz, slot, self.seed, clock,
                                   self.reduce_times)

    def calibrate(self, slot):
        """Runs `slot` through cli.run_job and records the arguments it
        passed to zexpr_zero_check and the tolerance of its report, the rule
        verify jobs then reduce and check by."""
        cli = self.cz.cli
        factory = cli.zexpr_zero_check
        made = []

        def recording(*args, **kwargs):
            made.append((args, kwargs))
            return factory(*args, **kwargs)
        cli.zexpr_zero_check = recording
        try:
            out = self.reduce_job(slot)
        finally:
            cli.zexpr_zero_check = factory
        if made and out.report is not None:
            tolerance = json.loads(out.report)["budgets"]["tolerance"]
            self.rule = made[-1] + (tolerance,)
        return out

    def run(self, slot):
        if self.kind == "verify":
            return jobs.run_verify_job(self.cz, slot, clock, self.radius,
                                       self.rule)
        return self.reduce_job(slot)


def stream(runner, draw, passes, on_job=None):
    """`passes` whole passes: (outcomes, wall)."""
    outcomes = []
    t0 = clock()
    for _ in range(passes):
        for slot in draw.next_pass():
            if on_job is not None:
                on_job(len(outcomes))
            outcomes.append(runner.run(slot))
    return outcomes, clock() - t0


def blocks(runner, draw, passes, seconds):
    """Blocks of `passes` passes, at least one, and more while another block
    as long as the last still ends within `seconds`: [(outcomes, wall)]."""
    out = []
    t0 = clock()
    while not out or clock() - t0 + out[-1][1] <= seconds:
        out.append(stream(runner, draw, passes))
    return out


def determinism(runner, pool, workload, outcomes):
    """Report bytes of the workload's determinism job through cli.run_job
    (from the timed run, else run here) against the bytes a fresh
    interpreter with another string-hash seed makes for the same job and
    seed, so that set or dict order that changes between processes shows."""
    slot = determinism_slot(pool, workload)
    first = next((o.report for o in outcomes
                  if o.slot["id"] == slot["id"] and o.report is not None),
                 None)
    if first is None:
        first = runner.reduce_job(slot).report
    hash_seed = other_hash_seed()
    cmd = [sys.executable, os.path.abspath(__file__), "--report-probe",
           "--workload", workload, "--seed", str(runner.seed)]
    probe = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                           timeout=PROBE_TIMEOUT_S,
                           env=dict(os.environ, PYTHONHASHSEED=hash_seed))
    det = {"job": slot["id"], "probe_hash_seed": hash_seed,
           "identical": (first is not None and probe.returncode == 0
                         and first == probe.stdout)}
    if probe.returncode != 0:
        det["probe_error"] = probe.stderr.strip().splitlines()[-1:]
    return det


def end_to_end(runs, setup_s):
    """Timing metrics are the median over blocks of each block's value; the
    others are taken over every job of the run."""
    outcomes = [o for block, _ in runs for o in block]
    answered = [o for o in outcomes if o.symbols is not None]
    correct = sum(o.ok for o in outcomes)

    def over_blocks(value):
        return statistics.median(value(block, wall) for block, wall in runs)

    def reduce_p50(block, _):
        times = [o.reduce_s for o in block if o.reduce_s is not None]
        return statistics.median(times) if times else 0.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (over_blocks(lambda b, w: sum(o.ok for o in b) / w),
                       "1/s"),
        "job_s.p50": (over_blocks(lambda b, _: statistics.median(
            o.seconds for o in b)), "s"),
        "job_s.tail": (over_blocks(lambda b, _: jobs.tail(
            [o.seconds for o in b])[0]), "s"),
        "reduce_s.p50": (over_blocks(reduce_p50), "s"),
        "pass_share": (correct / len(outcomes), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "symbols_per_job.mean": (statistics.fmean(o.symbols for o in answered)
                                 if answered else 0.0, "count"),
        "bound_digits.min": (min(jobs.digits(o.bound) for o in answered)
                             if answered else 0.0, "digits"),
        "verify_budget_digits.min": (min(jobs.digits(o.budget)
                                         for o in answered)
                                     if answered else 0.0, "digits"),
    }
    first = [o.seconds for o in runs[0][0]]
    extra = {"blocks": len(runs), "samples_per_block": len(first),
             "tail_percentile": jobs.tail(first)[1],
             "fail_share": 1.0 - correct / len(outcomes),
             "wall_s": [wall for _, wall in runs]}
    return metrics, extra


def per_layer(tracer, n_jobs, overhead_s):
    s = tracer.summary()
    calls, incl, own, counts = s["calls"], s["incl"], s["self"], tracer.counts

    def per_job(x):
        return x / n_jobs

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("numeric.eval_mzv", "numeric.zero_check", "exact.characters",
                 "polylog.multiply_factor", "polylog.integrate_P",
                 "polylog.regularize_limit", "rewrite.uni_factorize",
                 "rewrite.change_coordinates", "rewrite.reduce_to_univariate",
                 "rewrite.integral_expression", "rewrite.convergence_check",
                 "derivation.build_derived_sequences", "geometry.decompose",
                 "numeric.eval_cone_zeta", "numeric.eval_zexpr",
                 "cli.parse_job"):
        m[name + ".s"] = (per_job(incl[name]), "s/job")
    for name in ("numeric.eval_mzv", "numeric.zero_check",
                 "polylog.multiply_factor", "polylog.integrate_P"):
        m[name + ".calls"] = (per_job(calls[name]), "1/job")
    for name in ("exact.cyclo_mul", "exact.cyclo_add", "exact.character_eval",
                 "linalg.solve_consistent"):
        m[name + ".calls"] = (per_job(counts[name]), "1/job")
    m["numeric.eval_mzv.repeat_ratio"] = (
        ratio(counts["numeric.eval_mzv.repeats"], calls["numeric.eval_mzv"]),
        "ratio")
    m["numeric.zero_check.zero_ratio"] = (
        ratio(counts["numeric.zero_check.zero"], calls["numeric.zero_check"]),
        "ratio")
    for name in ("rewrite.uni_terms", "derivation.branches",
                 "geometry.pieces"):
        m[name] = (per_job(counts[name]), "1/job")
    m["numeric.lattice_points"] = (per_job(counts["numeric.lattice_points"]),
                                   "points/job")
    m["pipeline.execute_recipe.self_s"] = (
        per_job(own["pipeline.execute_recipe"]), "s/job")
    m["pipeline.reduce_cone_zeta.self_s"] = (
        per_job(own["pipeline.reduce_cone_zeta"]), "s/job")
    m["cli.report.s"] = (per_job(own["cli.run_job"] + incl["cli.report"]),
                         "s/job")
    for layer in tracing.SPANNED_LAYERS:
        m["layer.%s.self_s" % layer] = (per_job(s["layer_self"][layer]),
                                        "s/job")
    m["trace.reduce_s"] = (per_job(incl["pipeline.reduce_cone_zeta"]),
                           "s/job")
    m["trace.overhead_s"] = (per_job(overhead_s), "s/job")
    return m


def environment():
    import mpmath
    import numpy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "processes": 1, "clients": 1, "loop": "closed"}


def failures(outcomes):
    return [{"job": o.slot["id"], "error": o.error}
            for o in outcomes if not o.ok]


def untraced_block(workload, seed):
    """The result and summary of `--trace 0` with one block, run by a fresh
    interpreter: the same jobs in the same order from the same cold state
    (module caches included) as the traced block."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                         timeout=PROBE_TIMEOUT_S, check=True)
    summary, result = out.stdout.strip().splitlines()[-2:]
    return json.loads(result), json.loads(summary)["summary"]


def traced_stream(cz, runner, draw, passes, workload, seed, summary):
    """One traced block and the same block untraced in a fresh interpreter;
    per-layer metrics, the traced outcomes and the untraced result."""
    tracer = tracing.Tracer({"cli": cz.cli, "pipeline": cz.pipeline,
                             "numeric": cz.numeric, "exact": cz.exact,
                             "derivation": cz.derivation})
    serialise = cz.serialise
    tracer.install()
    cz.serialise = tracer.span("cli.report", serialise)

    def on_job(i):
        tracer.job = i
    try:
        outcomes, wall = stream(runner, draw, passes, on_job)
    finally:
        tracer.uninstall()
        cz.serialise = serialise
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "spans-%s-seed%d.jsonl" % (workload, seed))
    tracer.write(path)
    untraced, untraced_summary = untraced_block(workload, seed)
    untraced_wall = untraced_summary["wall_s"][0]
    summary.update(traced_wall_s=wall, untraced_wall_s=untraced_wall,
                   untraced_failures=untraced_summary["failures"],
                   spans=len(tracer.spans),
                   spans_file=os.path.relpath(path, ROOT))
    return (per_layer(tracer, len(outcomes), wall - untraced_wall),
            outcomes, untraced)


def run(args):
    kind = KINDS[args.workload]
    cz = import_conezeta()
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    pool = jobs.load_pool()
    draw = jobs.Draw(pool["workloads"][args.workload], args.seed)
    radius = pool["verify_radius"]
    passes = pool["passes"][args.workload]
    summary = {"workload": args.workload, "seed": args.seed, "kind": kind,
               "passes_per_block": passes,
               "verify_radius": radius if kind == "verify" else None,
               "env": environment()}
    runner = Runner(cz, kind, args.seed, radius)
    try:
        warm = runner.calibrate(next(s for s in pool["workloads"][WARMUP[0]]
                                     if s["id"] == WARMUP[1]))
        if args.trace:
            metrics, outcomes, untraced = traced_stream(
                cz, runner, draw, passes, args.workload, args.seed, summary)
        else:
            runs = blocks(runner, draw, passes, args.seconds)
            metrics, extra = end_to_end(runs, setup_s)
            outcomes = [o for block, _ in runs for o in block]
            summary.update(extra)
            untraced = {"attempted": 0}
        det = determinism(runner, pool, args.workload, outcomes)
    finally:
        runner.close()
    failed = failures([warm] + outcomes)
    if not det["identical"]:
        failed.append({"job": det["job"], "error": "report bytes differ"})
    failed += summary.get("untraced_failures", [])
    summary.update(jobs=len(outcomes), determinism=det, failures=failed)
    result = {"correct": not failed,
              "attempted": len(outcomes) + 2 + untraced["attempted"],
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps({"summary": summary}, sort_keys=True))
    print(json.dumps(result))
    return 0


def smoke():
    """A correct reference passes and a wrong one is reported as failed."""
    cz = import_conezeta()
    pool = jobs.load_pool()
    slot = next(s for s in pool["workloads"][WARMUP[0]]
                if s["id"] == WARMUP[1])
    wrong = dict(slot, ref=dict(slot["ref"], re=slot["ref"]["re"] + 1e-3))
    runner = Runner(cz, "reduce", 0, None)
    try:
        good, bad = runner.run(slot), runner.run(wrong)
    finally:
        runner.close()
    print(json.dumps({"right_ref_ok": good.ok, "wrong_ref_ok": bad.ok,
                      "wrong_ref_error": bad.error}))
    return 0 if good.ok and not bad.ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(KINDS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--report-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        if args.setup_probe:
            print(repr(setup_probe(args.workload, args.seed)))
            return 0
        if args.report_probe:
            sys.stdout.write(report_probe(args.workload, args.seed))
            return 0
        return run(args)
    except CheckoutError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
