"""The benchmark's tracer (perfbench/tracing.py) wraps names and binds
arguments of the library from outside.  A renamed function or a dropped
argument would break every traced benchmark run without failing the
library's own tests, so this runs one traced reduction and one traced
direct-sum check and requires every hook to have fired."""

import importlib.util
import os

from conezeta import cli, derivation, exact, numeric, pipeline

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_hooks_fire_on_the_library():
    tracing = load_tracing()
    tracer = tracing.Tracer({"cli": cli, "pipeline": pipeline,
                             "numeric": numeric, "exact": exact,
                             "derivation": derivation})
    job = cli.parse_job({"ambientDim": 2,
                         "cone": {"generators": [[1, 0], [0, 1]]},
                         "forms": [[1, 0], [1, 1], [1, 1]],
                         "character": {"modulus": 2, "exponents": [1, 0]}})
    tracer.install()
    try:
        _, code = cli.run_job(job, "reduce")
        result = pipeline.reduce_cone_zeta(
            job["generators"], job["forms"], character=job["character"])
        numeric.verify_reduction(result, job["generators"], job["forms"],
                                 job["character"], radius=10)
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_PASS
    for name in ("numeric.lattice_points", "exact.cyclo_mul",
                 "linalg.solve_consistent"):
        assert tracer.counts[name] > 0, name
    calls = tracer.summary()["calls"]
    for name in ("pipeline.reduce_cone_zeta", "polylog.integrate_P",
                 "numeric.eval_cone_zeta"):
        assert calls[name] > 0, name
