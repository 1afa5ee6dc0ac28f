"""Tests of the benchmark itself: pool, draw, answer check, tracing, exits."""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import make_references  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def pool():
    return jobs.load_pool()


def test_every_job_has_an_independent_reference(pool):
    for name, slots in pool["workloads"].items():
        ids = [s["id"] for s in slots]
        assert len(ids) == len(set(ids))
        assert pool["determinism"][name] in ids
        for s in slots:
            ref = s["ref"]
            assert math.isfinite(ref["re"]) and math.isfinite(ref["im"])
            assert 0 < ref["bound"] < 1e-9
            assert "closed form" in ref["method"] or \
                "row summation" in ref["method"]


def test_draw_is_seeded_and_balanced(pool):
    slots = pool["workloads"]["small_jobs"]
    a, b = jobs.Draw(slots, 7), jobs.Draw(slots, 7)
    passes = [a.next_pass() for _ in range(3)]
    assert passes == [b.next_pass() for _ in range(3)]
    assert passes != [jobs.Draw(slots, 8).next_pass() for _ in range(3)]
    for p in passes:
        assert sorted(s["id"].rstrip("~") for s in p) == \
            sorted(s["id"] for s in slots)


def test_conjugate_job_has_conjugate_reference(pool):
    slot = next(s for s in pool["workloads"]["small_jobs"]
                if s["id"] == "li5_i")
    c = jobs.conjugate(slot)
    assert c["job"]["character"]["exponents"] == [3]
    assert c["ref"]["im"] == -slot["ref"]["im"]
    assert slot["job"]["character"]["exponents"] == [1]


def test_answer_check_uses_run_job_budget():
    ref = {"re": 1.0, "im": 0.0, "bound": 1e-15}
    assert jobs.check_answer(1.0 + 5e-7, 1e-12, ref, 1e-6) == (True, 1e-6)
    ok, allowed = jobs.check_answer(1.0 + 5e-7, 1e-6, ref, 1e-6)
    assert ok and allowed == pytest.approx(4e-6)
    assert not jobs.check_answer(1.0 + 2e-6, 1e-12, ref, 1e-6)[0]
    assert not jobs.check_answer(1.0 + 1e-9j * 1e4, 1e-12, ref, 1e-6)[0]


def test_smoke_reports_wrong_reference_as_failure():
    out = subprocess.run([sys.executable, RUN, "--smoke"], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["right_ref_ok"] and not res["wrong_ref_ok"]


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "small_jobs", "--seed", "0", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""


def test_tail_rule():
    assert jobs.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    times = [float(i) for i in range(1, 31)]
    value, pct = jobs.tail(times)
    assert value == 20.0 and sum(t > value for t in times) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_self_times_add_up_to_the_root_span():
    tr = tracing.Tracer({})
    # reduce [0, 10] > integrate [1, 4] > zero_check [2, 3]; recipe [5, 9]
    tr.spans = [["pipeline.reduce_cone_zeta", 0.0, 10.0, -1, 0],
                ["polylog.integrate_P", 1.0, 4.0, 0, 0],
                ["numeric.zero_check", 2.0, 3.0, 1, 0],
                ["pipeline.execute_recipe", 5.0, 9.0, 0, 0],
                ["pipeline.execute_recipe", 6.0, 7.0, 3, 0]]
    s = tr.summary()
    assert s["self"]["polylog.integrate_P"] == 2.0
    assert s["self"]["pipeline.execute_recipe"] == 4.0
    assert s["incl"]["pipeline.execute_recipe"] == 4.0
    assert s["self"]["pipeline.reduce_cone_zeta"] == 3.0
    assert s["incl"]["pipeline.reduce_cone_zeta"] == 10.0
    assert sum(s["layer_self"].values()) == 10.0


def test_tracer_install_is_undone():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from conezeta import cli, derivation, exact, numeric, pipeline
    mods = {"cli": cli, "pipeline": pipeline, "numeric": numeric,
            "exact": exact, "derivation": derivation}
    before = (cli.parse_job, pipeline.execute_recipe,
              exact.CycloNumber.__dict__["__mul__"], numeric.eval_mzv)
    tr = tracing.Tracer(mods)
    tr.install()
    try:
        assert cli.parse_job is not before[0]
        two = exact.CycloNumber.from_rational(2) * \
            exact.CycloNumber.from_rational(3)
        assert two.rational_value() == 6
        assert tr.counts["exact.cyclo_mul"] == 1
    finally:
        tr.uninstall()
    assert (cli.parse_job, pipeline.execute_recipe,
            exact.CycloNumber.__dict__["__mul__"], numeric.eval_mzv) == before


def test_lattice_points_follow_the_cutoffs():
    import inspect
    from types import SimpleNamespace

    def eval_cone_zeta(generators, forms, character=None, radius=400,
                       refine=2):
        pass
    b = inspect.signature(eval_cone_zeta).bind(
        [[1, 0], [0, 1]], [], SimpleNamespace(modulus=3), radius=50)
    b.apply_defaults()
    # u = 2*50 // 12 = 8; radii 24, 48, 96
    assert tracing.lattice_points(b) == 49 ** 2 + 97 ** 2 + 193 ** 2


def test_row_sum_matches_brute_force():
    mp = make_references.mp
    from fractions import Fraction as F
    with mp.workdps(20):
        forms = [[F(1), F(0)], [F(1), F(1)], [F(1), F(1)]]
        for t in (1, 4):
            row = make_references.row_sum(t, 1, 1, forms, 2, 1)
            brute = mp.nsum(lambda x: (-1) ** (int(x) - 1)
                            / (x * (x + t) ** 2), [1, mp.inf])
            assert abs(row - brute) < 1e-12
        assert abs(make_references.li(3, 1, 2) + 3 * mp.zeta(3) / 4) < 1e-15


def test_metric_names_match_benchmark_json():
    import run
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    class Done:
        slot = {"id": "x"}
        ok, seconds, reduce_s, symbols, bound, budget = (True, 1.0, 0.5, 3,
                                                         1e-10, 1e-6)
    e2e, _ = run.end_to_end([([Done()], 1.0)], 0.1)
    layer = run.per_layer(tracing.Tracer({}), 1, 0.0)
    assert [m["name"] for m in bench["end_to_end"]] == list(e2e)
    assert [m["name"] for m in bench["per_layer"]] == list(layer)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]
             + bench["per_layer"]}
    assert all(units[k] == u for k, (_, u) in {**e2e, **layer}.items())


class FixedRunner:
    """Answers every job at once, so only the block rule sets the count."""
    seed = 0

    def run(self, slot):
        out = jobs.Outcome(slot)
        out.ok, out.seconds = True, 0.0
        return out


def test_every_block_holds_the_same_jobs(pool):
    import run
    slots = pool["workloads"]["small_jobs"]
    one = run.blocks(FixedRunner(), jobs.Draw(slots, 3), 2, 0.0)
    assert len(one) == 1 and len(one[0][0]) == 2 * len(slots)
    many = run.blocks(FixedRunner(), jobs.Draw(slots, 3), 2, 0.05)
    assert len(many) > 1
    for block, _ in many:
        assert sorted(o.slot["id"].rstrip("~") for o in block) == \
            sorted(2 * [s["id"] for s in slots])


def test_other_hash_seed_differs(monkeypatch):
    import run
    monkeypatch.setenv("PYTHONHASHSEED", "1")
    assert run.other_hash_seed() == "2"
    monkeypatch.setenv("PYTHONHASHSEED", str(2 ** 32 - 1))
    assert run.other_hash_seed() == "0"
    monkeypatch.delenv("PYTHONHASHSEED")
    assert run.other_hash_seed() == "1"


def test_calibrate_records_run_job_rule(pool):
    import run
    cz = run.import_conezeta()
    runner = run.Runner(cz, "verify", 0, pool["verify_radius"])
    try:
        out = runner.calibrate(next(s for s in pool["workloads"]["small_jobs"]
                                    if s["id"] == "z2"))
    finally:
        runner.close()
    assert out.ok
    _, _, tolerance = runner.rule
    assert tolerance == json.loads(out.report)["budgets"]["tolerance"]
    assert cz.cli.zexpr_zero_check is cz.numeric.zexpr_zero_check
