"""Job pool, seeded draw, one-job runners and the answer check.

The pool (pool.json) lists, per workload, job documents in the CLI's job
format with a reference value that does not come from the reduction (see
make_references.py).  A run executes whole passes: every pass runs each slot
of the workload once, in an order drawn from the seed, and for a slot with a
complex character (modulus > 2) the seed also draws the character or its
conjugate.  A conjugate job costs the same work and its answer is the complex
conjugate of the stored reference, so every seed runs the same mix of work on
different inputs.
"""

import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_PATH = os.path.join(HERE, "pool.json")


def load_pool(path=POOL_PATH):
    with open(path) as fh:
        return json.load(fh)


def conjugate(slot):
    """The slot with the conjugate character and conjugate reference."""
    job = json.loads(json.dumps(slot["job"]))
    ch = job["character"]
    ch["exponents"] = [(-e) % ch["modulus"] for e in ch["exponents"]]
    ref = dict(slot["ref"], im=-slot["ref"]["im"])
    return {"id": slot["id"] + "~", "job": job, "ref": ref}


def has_conjugate(slot):
    ch = slot["job"].get("character")
    return ch is not None and ch["modulus"] > 2


class Draw:
    """Seeded stream of passes over one workload's slots."""

    def __init__(self, slots, seed):
        self.slots = slots
        self.rng = random.Random(seed)

    def next_pass(self):
        order = list(self.slots)
        self.rng.shuffle(order)
        return [conjugate(s) if has_conjugate(s) and self.rng.random() < 0.5
                else s for s in order]


def check_answer(value, bound, ref, tolerance):
    """(ok, budget applied) for a numeric answer against its reference, by
    cli.run_job's rule: max(tolerance, 4 * (sum of the error bounds))."""
    allowed = max(tolerance, 4 * (bound + ref["bound"]))
    diff = abs(value - complex(ref["re"], ref["im"]))
    return diff <= allowed, allowed


class Outcome:
    __slots__ = ("slot", "ok", "seconds", "reduce_s", "symbols", "bound",
                 "budget", "error", "report")

    def __init__(self, slot):
        self.slot = slot
        self.ok = False
        self.seconds = None
        self.reduce_s = None
        self.symbols = None
        self.bound = None
        self.budget = None
        self.error = None
        self.report = None


def run_reduce_job(cz, slot, seed, clock, reduce_times):
    """cli.parse_job then cli.run_job(mode="reduce"); the report is
    serialised as the CLI prints it.  `reduce_times` receives the duration
    of the reduce_cone_zeta call (appended by the timing wrapper)."""
    out = Outcome(slot)
    n0 = len(reduce_times)
    t0 = clock()
    try:
        job = cz.cli.parse_job(slot["job"])
        report, code = cz.cli.run_job(job, "reduce", seed=seed)
        out.report = cz.serialise(report)
    except Exception as e:  # a failed job is counted, never re-raised
        out.seconds = clock() - t0
        out.error = repr(e)
        return out
    out.seconds = clock() - t0
    if len(reduce_times) > n0:
        out.reduce_s = reduce_times[-1]
    num = report["numericSymbolic"]
    out.symbols = len(report["symbolicValue"])
    out.bound = num["bound"]
    out.ok, out.budget = check_answer(complex(num["re"], num["im"]),
                                      num["bound"], slot["ref"],
                                      report["budgets"]["tolerance"])
    if code != cz.cli.EXIT_PASS:
        out.ok, out.error = False, "exit code %d" % code
    elif not out.ok:
        out.error = "numericSymbolic misses the reference"
    return out


def run_verify_job(cz, slot, clock, radius, rule):
    """cli.parse_job, pipeline.reduce_cone_zeta, then
    numeric.verify_reduction at a fixed radius.  `rule` holds the arguments
    cli.run_job passed to zexpr_zero_check and the tolerance of its report
    (recorded by run.Runner.calibrate), so the zero check and the
    verification tolerance follow run_job's own rule.  Passes when the
    oracle's verdict is ok and the symbolic value matches the reference."""
    out = Outcome(slot)
    t0 = clock()
    try:
        zero_args, zero_kwargs, tolerance = rule
        job = cz.cli.parse_job(slot["job"])
        r0 = clock()
        result = cz.pipeline.reduce_cone_zeta(
            job["generators"], job["forms"], character=job["character"],
            check_zero=cz.numeric.zexpr_zero_check(*zero_args,
                                                   **zero_kwargs))
        out.reduce_s = clock() - r0
        v = cz.numeric.verify_reduction(
            result, job["generators"], job["forms"], job["character"],
            tolerance=tolerance, radius=radius)
    except Exception as e:
        out.seconds = clock() - t0
        out.error = repr(e)
        return out
    out.seconds = clock() - t0
    out.symbols = len(result.symbols())
    out.bound = v["symbolic_error"]
    out.budget = v["tolerance"]
    ok, _ = check_answer(v["symbolic"], v["symbolic_error"], slot["ref"],
                         tolerance)
    out.ok = bool(v["ok"]) and ok
    if not v["ok"]:
        out.error = "verify_reduction failed: difference %g > %g" % (
            v["difference"], v["tolerance"])
    elif not ok:
        out.error = "symbolic value misses the reference"
    return out


def digits(bound):
    """-log10 of an error bound; an exact zero reads as 17 digits."""
    return 17.0 if bound <= 0 else -math.log10(bound)


def tail(times):
    """(value, percentile): the highest rank with at least ten samples
    beyond it; below twenty samples that rank lies under the median, so the
    maximum is reported instead (percentile 100).  A run passes the same
    number of samples on every machine (run.blocks), so the percentile does
    not depend on speed."""
    s = sorted(times)
    n = len(s)
    if n < 20:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n
