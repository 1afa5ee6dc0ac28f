"""Command line interface: JSON jobs in, JSON reports out.

Commands:
    conezeta reduce <job.json>   symbolic reduction + numeric self-evaluation
    conezeta verify <job.json>   reduction plus comparison with direct summation

Flags: --precision <0..10>, --trace <path>, --seed <u64>, --max-pieces <n>;
they override the job's options block and are validated like it.
Exit codes: 0 pass, 2 verification fail, 3 validation error (a bad job, flag
value, trace path or command line, or more pieces than --max-pieces), 4
divergent, 5 internal error (a RuntimeError, AssertionError or ValueError
inside the reduction) or unsupported request (verify of a cone that is not
full-dimensional or of ambientDim above 2).
"""

import argparse
import json
import sys
from fractions import Fraction

from .exact import LatticeCharacter, rational_to_str, rational_from_str
from .geometry import Cone
from .linalg import dot, identity
from .pipeline import reduce_cone_zeta, PieceLimitExceeded
from .polylog import DivergentResult
from .numeric import (eval_zexpr, eval_cone_zeta, zexpr_zero_check,
                      DIRECT_MAX_DIM)

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 2
EXIT_VALIDATION = 3
EXIT_DIVERGENT = 4
EXIT_INTERNAL = 5


class ValidationError(Exception):
    pass


class UnsupportedJob(Exception):
    """A valid job that the requested command cannot process."""


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are validation errors, not argparse's exit status 2."""

    def error(self, message):
        raise ValidationError(message)


def _is_int(x):
    """A JSON integer: bool is a subclass of int, but not a number here."""
    return isinstance(x, int) and not isinstance(x, bool)


# (options key, flag, largest value): the tolerance stops at 1e-10, seed u64
_INT_OPTIONS = (("precision", "--precision", 10),
               ("seed", "--seed", 2 ** 64 - 1),
               ("maxPieces", "--max-pieces", None))


def _check_nonnegative(x, where, most=None):
    if not _is_int(x) or x < 0:
        raise ValidationError("%s must be a nonnegative integer" % where)
    if most is not None and x > most:
        raise ValidationError("%s must be at most %d" % (where, most))


def _expect_keys(obj, allowed, where):
    if not isinstance(obj, dict):
        raise ValidationError("%s must be a JSON object" % where)
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ValidationError("unknown fields in %s: %s"
                              % (where, sorted(unknown)))


def _matrix_rows(rows, m, where):
    """Rows of a nonempty matrix with m columns, each a JSON list."""
    if not isinstance(rows, list) or not rows:
        raise ValidationError("%s must be a nonempty matrix" % where)
    for row in rows:
        if not isinstance(row, list) or len(row) != m:
            raise ValidationError("%s rows must be lists of length "
                                  "ambientDim" % where)
    return rows


def _parse_rational(x, where):
    if _is_int(x):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return rational_from_str(x)
        except Exception:
            raise ValidationError("bad rational %r in %s" % (x, where))
    raise ValidationError("expected integer or \"p/q\" string in %s" % where)


def parse_job(doc):
    """Validate a job document; returns a dict of parsed fields."""
    _expect_keys(doc, {"ambientDim", "cone", "forms", "character", "options"},
                 "job")
    for key in ("ambientDim", "cone", "forms"):
        if key not in doc:
            raise ValidationError("missing field %r" % key)
    m = doc["ambientDim"]
    if not _is_int(m) or m < 1:
        raise ValidationError("ambientDim must be a positive integer")
    cone = doc["cone"]
    _expect_keys(cone, {"generators"}, "cone")
    parsed = []
    for row in _matrix_rows(cone.get("generators"), m, "cone.generators"):
        out_row = []
        for x in row:
            q = _parse_rational(x, "cone.generators")
            if q.denominator != 1:
                raise ValidationError("generators must be integer vectors")
            out_row.append(int(q))
        parsed.append(out_row)
    gens = parsed
    if not all(any(g) for g in gens):
        raise ValidationError("cone.generators must be nonzero vectors")
    C = Cone(gens)
    # independent generators span a pointed cone
    if len(C.generators) > C.dim and not C.is_pointed():
        raise ValidationError("cone must be pointed: it contains a line")
    fms = []
    for row in _matrix_rows(doc["forms"], m, "forms"):
        fms.append(tuple(_parse_rational(x, "forms") for x in row))
    warnings = []
    if "character" in doc and doc["character"] is not None:
        ch = doc["character"]
        _expect_keys(ch, {"modulus", "exponents"}, "character")
        N = ch.get("modulus")
        exps = ch.get("exponents")
        if not _is_int(N) or N < 1:
            raise ValidationError("character.modulus must be a positive "
                                  "integer")
        if (not isinstance(exps, list) or len(exps) != m
                or not all(_is_int(e) for e in exps)):
            raise ValidationError("character.exponents must be ambientDim "
                                  "integers")
        character = LatticeCharacter(identity(m), N, exps)
    else:
        warnings.append("missing character; defaulting to trivial")
        character = None
    options = doc.get("options")
    if options is None:
        options = {}
    _expect_keys(options, {"precision", "trace", "seed", "maxPieces"},
                 "options")
    for key, _, most in _INT_OPTIONS:
        if key in options:
            _check_nonnegative(options[key], "options." + key, most)
    if "trace" in options and not isinstance(options["trace"], str):
        raise ValidationError("options.trace must be a path string")
    # positivity of the forms on the closed cone (interior follows)
    for f in fms:
        vals = [dot(f, g) for g in gens]
        if any(v < 0 for v in vals) or all(v == 0 for v in vals):
            raise ValidationError("POSITIVITY: form %s is not positive on "
                                  "the cone interior" % (list(map(
                                      rational_to_str, f)),))
    return {"m": m, "generators": gens, "forms": fms,
            "character": character, "options": options, "warnings": warnings}


def _cyclo_json(c):
    return {"modulus": c.N,
            "coords": [rational_to_str(x) for x in c.coords]}


def _symbols_json(result):
    out = []
    for coeff, sym in result.symbols():
        entry = {"coefficient": _cyclo_json(coeff)}
        if sym is None:
            entry["symbol"] = None
        else:
            entry["symbol"] = {
                "ks": list(sym.ks),
                "eps": [{"order": e.order, "exp": e.exp} for e in sym.eps],
            }
        out.append(entry)
    return out


def _trace_json(trace):
    return {"steps": [{"rule": s["rule"],
                       "inputs": repr(s["inputs"]),
                       "outputs": repr(s["outputs"])}
                      for s in trace.steps]}


def run_job(job, mode, precision=None, trace_path=None, seed=0,
            max_pieces=None):
    """Execute a parsed job; returns (report dict, exit code)."""
    if mode == "verify" and job["m"] > DIRECT_MAX_DIM:
        raise UnsupportedJob("verify: direct summation supports ambientDim "
                             "<= %d, got %d" % (DIRECT_MAX_DIM, job["m"]))
    if mode == "verify" and Cone(job["generators"]).dim < job["m"]:
        raise UnsupportedJob("verify: direct summation needs a "
                             "full-dimensional cone")
    if trace_path is not None:
        # an unwritable trace path fails here, not after the reduction
        open(trace_path, "a").close()
    tol = 10.0 ** (-(precision if precision is not None else 6))
    result = reduce_cone_zeta(
        job["generators"], job["forms"], character=job["character"],
        check_zero=zexpr_zero_check(),
        max_pieces=max_pieces, collect_trace=trace_path is not None)
    sym = eval_zexpr(result.value)
    report = {
        "schemaVersion": SCHEMA_VERSION,
        "seed": seed,
        "warnings": job["warnings"],
        "symbolicValue": _symbols_json(result),
        "numericSymbolic": {"re": sym.value.real, "im": sym.value.imag,
                            "bound": sym.error},
        "numericDirect": None,
        "pass": None,
        "budgets": {"tolerance": tol},
        "stats": result.stats,
    }
    code = EXIT_PASS
    if mode == "verify":
        ref = eval_cone_zeta(job["generators"], job["forms"],
                             job["character"], radius=1000)
        diff = abs(sym.value - ref.value)
        budget = max(tol, 4 * (sym.error + ref.error))
        ok = diff <= budget
        report["numericDirect"] = {"re": ref.value.real, "im": ref.value.imag,
                                   "bound": ref.error}
        report["pass"] = bool(ok)
        report["budgets"]["difference"] = diff
        report["budgets"]["allowed"] = budget
        if not ok:
            code = EXIT_VERIFY_FAIL
    if trace_path is not None and result.trace is not None:
        with open(trace_path, "w") as fh:
            json.dump(_trace_json(result.trace), fh, indent=1, sort_keys=True)
    return report, code


def main(argv=None):
    ap = _ArgumentParser(prog="conezeta")
    ap.add_argument("command", choices=["reduce", "verify"])
    ap.add_argument("job", help="path to a JSON job file")
    ap.add_argument("--precision", type=int, default=None,
                    help="digits of verification tolerance (0-10, default 6)")
    ap.add_argument("--trace", default=None, metavar="PATH",
                    help="write the reduction trace to PATH")
    ap.add_argument("--seed", type=int, default=None,
                    help="seed recorded in the report (default 0)")
    ap.add_argument("--max-pieces", type=int, default=None)
    try:
        args = ap.parse_args(argv)
        for _, flag, most in _INT_OPTIONS:
            value = getattr(args, flag[2:].replace("-", "_"))
            if value is not None:
                _check_nonnegative(value, flag, most)
        # JSON is UTF-8 whatever the locale; a file that is not, or that
        # nests past the recursion limit, is a bad job like any other
        with open(args.job, encoding="utf-8") as fh:
            doc = json.load(fh)
        job = parse_job(doc)
    except (OSError, ValueError, RecursionError, ValidationError) as e:
        print(json.dumps({"error": "VALIDATION", "message": str(e)},
                         sort_keys=True))
        return EXIT_VALIDATION
    # command-line flags override the job's own options block
    opts = job["options"]
    precision = args.precision if args.precision is not None \
        else opts.get("precision")
    trace_path = args.trace if args.trace is not None else opts.get("trace")
    seed = args.seed if args.seed is not None else opts.get("seed", 0)
    max_pieces = args.max_pieces if args.max_pieces is not None \
        else opts.get("maxPieces")
    try:
        report, code = run_job(job, args.command, precision=precision,
                               trace_path=trace_path, seed=seed,
                               max_pieces=max_pieces)
    except DivergentResult as e:
        print(json.dumps({"error": "DIVERGENT", "message": str(e)},
                         sort_keys=True))
        return EXIT_DIVERGENT
    except (PieceLimitExceeded, OSError) as e:
        print(json.dumps({"error": "VALIDATION", "message": str(e)},
                         sort_keys=True))
        return EXIT_VALIDATION
    except UnsupportedJob as e:
        print(json.dumps({"error": "UNSUPPORTED", "message": str(e)},
                         sort_keys=True))
        return EXIT_INTERNAL
    except (RuntimeError, AssertionError, ValueError) as e:
        print(json.dumps({"error": "INTERNAL", "type": type(e).__name__,
                          "message": str(e)}, sort_keys=True))
        return EXIT_INTERNAL
    print(json.dumps(report, indent=1, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
