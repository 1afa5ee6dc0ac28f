import json
import math
from fractions import Fraction

import pytest

from conezeta import cli
from conezeta.exact import CycloNumber
from conezeta.linalg import dot
from conezeta.numeric import zexpr_zero_check
from conezeta.polylog import ZExpression
from conezeta.cli import (main, parse_job, ValidationError, EXIT_PASS,
                          EXIT_VERIFY_FAIL, EXIT_VALIDATION, EXIT_DIVERGENT,
                          EXIT_INTERNAL)


def write_job(tmp_path, doc, name="job.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def zeta2_job():
    return {
        "ambientDim": 1,
        "cone": {"generators": [[1]]},
        "forms": [[1], [1]],
        "character": {"modulus": 1, "exponents": [0]},
    }


def alternating_job():
    return {
        "ambientDim": 1,
        "cone": {"generators": [[1]]},
        "forms": [[1], [1]],
        "character": {"modulus": 2, "exponents": [1]},
    }


class TestParseJob:
    def test_round_trip(self):
        job = parse_job(zeta2_job())
        assert job["m"] == 1
        assert job["generators"] == [[1]]
        assert len(job["forms"]) == 2
        assert not job["warnings"]

    def test_rational_strings(self):
        doc = zeta2_job()
        doc["forms"] = [["1/2"], [1]]
        job = parse_job(doc)
        assert dot(job["forms"][0], (2,)) == 1

    @pytest.mark.parametrize("doc,mode", [
        ({"ambientDim": 2, "cone": {"generators": [[1, 0], [1, 2]]},
          "forms": [["2/2", "0/3"], ["3/3", 1], [1, "4/4"]],
          "character": {"modulus": 2, "exponents": [1, 0]}}, "reduce"),
        ({"ambientDim": 1, "cone": {"generators": [[1]]},
          "forms": [["4/2"], ["1/1"]],
          "character": {"modulus": 2, "exponents": [1]}}, "verify"),
    ])
    def test_form_types_give_identical_reports(self, doc, mode):
        # forms reach the library as given, never normalized: the same job
        # with int, Fraction or parsed "p/q" coefficients reports the same
        job = parse_job(doc)
        ints = [tuple(int(x) for x in f) for f in job["forms"]]
        reports = []
        for forms in (ints, [tuple(map(Fraction, f)) for f in ints],
                      job["forms"]):
            report, code = cli.run_job(dict(job, forms=forms), mode)
            assert code == EXIT_PASS
            reports.append(json.dumps(report, sort_keys=True))
        assert reports[0] == reports[1] == reports[2]

    def test_unknown_field_rejected(self):
        doc = zeta2_job()
        doc["conjecture"] = True
        with pytest.raises(ValidationError):
            parse_job(doc)

    def test_unknown_nested_field_rejected(self):
        doc = zeta2_job()
        doc["character"]["parity"] = "odd"
        with pytest.raises(ValidationError):
            parse_job(doc)

    def test_missing_character_warns(self):
        doc = zeta2_job()
        del doc["character"]
        job = parse_job(doc)
        assert job["character"] is None
        assert any("character" in w for w in job["warnings"])

    def test_positivity_rejected(self):
        doc = zeta2_job()
        doc["forms"] = [[-1], [1]]
        with pytest.raises(ValidationError, match="POSITIVITY"):
            parse_job(doc)

    def test_fractional_generator_rejected(self):
        doc = zeta2_job()
        doc["cone"]["generators"] = [["1/2"]]
        with pytest.raises(ValidationError):
            parse_job(doc)

    @pytest.mark.parametrize("generators, named", [
        ([[1, 0], [0, 0], [1, 1]], "nonzero"),
        ([[1, 0], [-1, 0], [0, 1]], "pointed"),
        ([[1], [-1]], "pointed"),
    ], ids=["zero_generator", "half_plane", "line"])
    def test_cone_shape_rejected(self, generators, named):
        m = len(generators[0])
        doc = {"ambientDim": m, "cone": {"generators": generators},
               "forms": [[0] * (m - 1) + [1]] * 3}
        with pytest.raises(ValidationError, match=named):
            parse_job(doc)

    def test_bad_option_rejected(self):
        doc = zeta2_job()
        doc["options"] = {"precision": "high"}
        with pytest.raises(ValidationError):
            parse_job(doc)


# One malformed shape per entry: each edits a valid job document in place.
MALFORMED = {
    "cone_is_list": lambda d: d.update(cone=[[1]]),
    "generator_row_not_list": lambda d: d["cone"].update(generators=[1]),
    "form_row_not_list": lambda d: d.update(forms=[1, 1]),
    "character_not_object": lambda d: d.update(character=[2, [1]]),
    "options_not_object": lambda d: d.update(options=["seed"]),
    "fractional_exponent": lambda d: d["character"].update(exponents=[1.7]),
    "string_exponent": lambda d: d["character"].update(exponents=["1"]),
    "bool_ambient_dim": lambda d: d.update(ambientDim=True),
    "bool_modulus": lambda d: d["character"].update(modulus=True),
    "bool_form_entry": lambda d: d.update(forms=[[True], [1]]),
    "bool_seed": lambda d: d.update(options={"seed": False}),
}


class TestMain:
    def test_reduce_exit_zero(self, tmp_path, capsys):
        path = write_job(tmp_path, zeta2_job())
        assert main(["reduce", path]) == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["schemaVersion"] == 1
        assert report["pass"] is None
        assert abs(report["numericSymbolic"]["re"]
                   - math.pi ** 2 / 6) < 1e-8
        assert len(report["symbolicValue"]) == 1
        assert report["symbolicValue"][0]["symbol"]["ks"] == [2]

    def test_verify_passes(self, tmp_path, capsys):
        path = write_job(tmp_path, alternating_job())
        assert main(["verify", path]) == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["budgets"]["difference"] <= report["budgets"]["allowed"]

    def test_verify_1d_allows_only_the_tolerance(self, tmp_path, capsys):
        # the 1-D direct sum is exact up to rounding, so the budget is the
        # requested tolerance, not a bound of the direct sum
        path = write_job(tmp_path, zeta2_job())
        assert main(["verify", path]) == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["budgets"]["allowed"] == report["budgets"]["tolerance"]
        assert report["budgets"]["tolerance"] == 1e-6
        assert report["budgets"]["difference"] < 1e-14

    def test_verify_2d_with_character(self, tmp_path, capsys):
        doc = {"ambientDim": 2,
               "cone": {"generators": [[1, 0], [0, 1]]},
               "forms": [[1, 1], [1, 1], [1, 1]],
               "character": {"modulus": 2, "exponents": [1, 1]}}
        path = write_job(tmp_path, doc)
        assert main(["verify", path]) == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["budgets"]["difference"] <= report["budgets"]["allowed"]

    def test_unknown_field_exit_code(self, tmp_path, capsys):
        doc = zeta2_job()
        doc["extra"] = 1
        path = write_job(tmp_path, doc)
        assert main(["reduce", path]) == EXIT_VALIDATION
        assert json.loads(capsys.readouterr().out)["error"] == "VALIDATION"

    @pytest.mark.parametrize("shape", sorted(MALFORMED))
    def test_malformed_job_is_validation_error(self, tmp_path, capsys,
                                               shape):
        doc = zeta2_job()
        MALFORMED[shape](doc)
        path = write_job(tmp_path, doc)
        assert main(["reduce", path]) == EXIT_VALIDATION
        assert json.loads(capsys.readouterr().out)["error"] == "VALIDATION"

    def test_seed_flag_zero_overrides_job_seed(self, tmp_path, capsys):
        doc = zeta2_job()
        doc["options"] = {"seed": 5}
        path = write_job(tmp_path, doc)
        assert main(["reduce", path, "--seed", "0"]) == EXIT_PASS
        assert json.loads(capsys.readouterr().out)["seed"] == 0
        assert main(["reduce", path]) == EXIT_PASS
        assert json.loads(capsys.readouterr().out)["seed"] == 5

    def test_divergent_exit_code(self, tmp_path, capsys):
        doc = zeta2_job()
        doc["forms"] = [[1]]  # harmonic series
        path = write_job(tmp_path, doc)
        assert main(["reduce", path]) == EXIT_DIVERGENT
        assert json.loads(capsys.readouterr().out)["error"] == "DIVERGENT"

    def test_missing_file(self, capsys):
        assert main(["reduce", "/nonexistent/job.json"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("content", [b"\xff\xfe\x00{", b"[" * 200000],
                             ids=["not_utf8", "nested_past_recursion_limit"])
    def test_unreadable_job_is_one_validation_line(self, tmp_path, capsys,
                                                   content):
        path = tmp_path / "job.json"
        path.write_bytes(content)
        assert main(["reduce", str(path)]) == EXIT_VALIDATION
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "VALIDATION"

    def test_max_pieces_flag(self, tmp_path, capsys):
        path = write_job(tmp_path, zeta2_job())
        assert main(["reduce", path, "--max-pieces", "0"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("args, named", [
        (["reduce", "--precision", "-400"], "--precision"),
        (["verify", "--precision", "-3"], "--precision"),
        (["reduce", "--seed", "-5"], "--seed"),
        (["reduce", "--seed", "-1"], "--seed"),
        (["reduce", "--max-pieces", "-1"], "--max-pieces"),
        (["reduce", "--precision", "x"], "--precision"),
        (["frob"], "frob"),
        (["reduce", "--no-such-flag"], "--no-such-flag"),
        (["reduce", "--precision", "11"], "--precision"),
        (["reduce", "--seed", str(2 ** 64)], "--seed"),
        (["reduce", "--trace", "/nonexistent/dir/t.json"], "nonexistent"),
    ])
    def test_bad_command_line_is_one_validation_line(self, tmp_path, capsys,
                                                     args, named):
        path = write_job(tmp_path, zeta2_job())
        assert main(args[:1] + [path] + args[1:]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1
        err = json.loads(out)
        assert err["error"] == "VALIDATION"
        assert named in err["message"]

    @pytest.mark.parametrize("options, named", [
        ({"precision": 11}, "options.precision"),
        ({"seed": 2 ** 64}, "options.seed"),
        ({"trace": "."}, "directory"),
    ])
    def test_out_of_range_option_is_one_validation_line(self, tmp_path,
                                                        capsys, options,
                                                        named):
        doc = zeta2_job()
        doc["options"] = options
        assert main(["reduce", write_job(tmp_path, doc)]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1
        err = json.loads(out)
        assert err["error"] == "VALIDATION"
        assert named in err["message"]

    def test_largest_seed_and_precision_run(self, tmp_path, capsys):
        doc = zeta2_job()
        doc["options"] = {"seed": 2 ** 64 - 1, "precision": 10}
        path = write_job(tmp_path, doc)
        assert main(["reduce", path]) == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 2 ** 64 - 1
        assert report["budgets"]["tolerance"] == 1e-10
        assert main(["reduce", path, "--seed", str(2 ** 64 - 1),
                     "--precision", "10"]) == EXIT_PASS
        assert json.loads(capsys.readouterr().out)["seed"] == 2 ** 64 - 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_trace_flag_writes_replayable_trace(self, tmp_path, capsys):
        path = write_job(tmp_path, zeta2_job())
        tp = tmp_path / "trace.json"
        assert main(["reduce", path, "--trace", str(tp)]) == EXIT_PASS
        doc = json.loads(tp.read_text())
        assert isinstance(doc["steps"], list)

    def test_zero_check_does_not_follow_precision(self, monkeypatch):
        made = []

        def recording(*args, **kwargs):
            made.append(zexpr_zero_check(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(cli, "zexpr_zero_check", recording)
        cli.run_job(parse_job(zeta2_job()), "reduce", precision=0)
        small = ZExpression.from_cyclo(CycloNumber.from_rational(
            Fraction(1, 1000)))
        assert made and not made[-1](small)

    def test_deterministic_report_bytes(self, tmp_path, capsys):
        doc = zeta2_job()
        doc["options"] = {"seed": 7}
        path = write_job(tmp_path, doc)
        assert main(["verify", path]) == EXIT_PASS
        first = capsys.readouterr().out
        assert main(["verify", path]) == EXIT_PASS
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["seed"] == 7

    def test_precision_option_sets_tolerance(self, tmp_path, capsys):
        doc = zeta2_job()
        doc["options"] = {"precision": 8}
        path = write_job(tmp_path, doc)
        assert main(["reduce", path]) == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["budgets"]["tolerance"] == 1e-8

    def test_unwritable_trace_path_fails_before_reducing(self, tmp_path,
                                                         capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("reduced before checking the trace path")

        monkeypatch.setattr(cli, "reduce_cone_zeta", fail)
        path = write_job(tmp_path, zeta2_job())
        trace = str(tmp_path / "missing" / "t.json")
        assert main(["reduce", path, "--trace", trace]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1
        assert json.loads(out)["error"] == "VALIDATION"

    @pytest.mark.parametrize("exc", [cli.PieceLimitExceeded, OSError])
    def test_job_limit_and_file_errors_are_validation(self, tmp_path, capsys,
                                                      monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc("3 pieces > limit 2")

        monkeypatch.setattr(cli, "reduce_cone_zeta", fail)
        path = write_job(tmp_path, zeta2_job())
        assert main(["reduce", path]) == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().out)
        assert err == {"error": "VALIDATION", "message": "3 pieces > limit 2"}

    @pytest.mark.parametrize("exc", [RuntimeError, AssertionError, ValueError])
    def test_internal_error_is_typed(self, tmp_path, capsys, monkeypatch,
                                     exc):
        def fail(*args, **kwargs):
            raise exc("pair reduction did not terminate")

        monkeypatch.setattr(cli, "reduce_cone_zeta", fail)
        path = write_job(tmp_path, zeta2_job())
        assert main(["reduce", path]) == EXIT_INTERNAL
        err = json.loads(capsys.readouterr().out)
        assert err == {"error": "INTERNAL", "type": exc.__name__,
                       "message": "pair reduction did not terminate"}

    def test_verify_3d_unsupported_before_reducing(self, tmp_path, capsys,
                                                   monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("verify reduced an unsupported job")

        monkeypatch.setattr(cli, "reduce_cone_zeta", fail)
        doc = {"ambientDim": 3,
               "cone": {"generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
               "forms": [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 0],
                         [0, 0, 1], [0, 0, 1]]}
        path = write_job(tmp_path, doc)
        assert main(["verify", path]) == EXIT_INTERNAL
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "UNSUPPORTED"
        assert "ambientDim" in err["message"]

    @pytest.mark.parametrize("generators", [[[1, 1]], [[1, 0], [2, 0]]],
                             ids=["ray", "collinear"])
    def test_verify_lower_dimensional_unsupported_before_reducing(
            self, tmp_path, capsys, monkeypatch, generators):
        doc = {"ambientDim": 2, "cone": {"generators": generators},
               "forms": [[1, 0], [1, 1]]}
        path = write_job(tmp_path, doc)
        assert main(["reduce", path]) == EXIT_PASS
        capsys.readouterr()

        def fail(*args, **kwargs):
            raise AssertionError("verify reduced an unsupported job")

        monkeypatch.setattr(cli, "reduce_cone_zeta", fail)
        assert main(["verify", path]) == EXIT_INTERNAL
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "UNSUPPORTED"
        assert "full-dimensional" in err["message"]
