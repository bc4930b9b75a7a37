import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from fanorank import cli
from fanorank.bounds import BoundCheck, analyze
from fanorank.cli import exit_code, main
from fanorank.formats import polytope_to_text, polytopes_to_text
from fanorank.polytope import FanoPolytope, hexagon, simplex

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture()
def sample_file(tmp_path):
    path = tmp_path / "sample.poly"
    path.write_text(polytopes_to_text([simplex(2), hexagon()]), encoding="utf-8")
    return path


@pytest.fixture()
def invalid_file(tmp_path):
    bad = FanoPolytope(2, ((2, 0), (0, 1), (-1, -1)), "bad")
    path = tmp_path / "invalid.poly"
    path.write_text(polytope_to_text(bad), encoding="utf-8")
    return path


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestValidateCommand:
    def test_valid_input(self, capsys, sample_file):
        code, out = run_main(capsys, "validate", str(sample_file))
        assert code == 0
        records = json.loads(out)
        assert [r["passed"] for r in records] == [True, True]

    def test_invalid_input_exits_one(self, capsys, sample_file, invalid_file):
        code, out = run_main(capsys, "validate", str(sample_file), str(invalid_file))
        assert code == 1
        records = json.loads(out)
        assert [r["passed"] for r in records] == [True, True, False]

    def test_unterminated_block_names_its_opening_line(self, capsys, tmp_path):
        bad = tmp_path / "u.poly"
        bad.write_text("polytope a\ndim 2\nv 1 0\n", encoding="utf-8")
        code = main(["validate", str(bad)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"error: {bad}:1: unterminated block 'a'\n"


class TestAnalyzeCommand:
    def test_reports(self, capsys, sample_file):
        code, out = run_main(capsys, "analyze", str(sample_file))
        assert code == 0
        reports = json.loads(out)
        assert reports[1]["picard_rank"] == 4

    def test_out_file(self, tmp_path, capsys, sample_file):
        target = tmp_path / "out.json"
        code, _ = run_main(capsys, "analyze", str(sample_file), "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())[0]["name"] == "simplex:2"

    def test_jobs_rejected(self, sample_file):
        with pytest.raises(SystemExit) as info:
            main(["analyze", str(sample_file), "--jobs", "2"])
        assert info.value.code == 2


class TestCheckCommand:
    def test_casagrande_only(self, capsys, sample_file):
        code, out = run_main(capsys, "check", "--which", "casagrande", str(sample_file))
        assert code == 0
        records = json.loads(out)
        assert all(
            c["name"] == "casagrande" for r in records for c in r["checks"]
        )

    def test_invalid_member_exits_one(self, capsys, invalid_file):
        code, out = run_main(capsys, "check", "--which", "weak", str(invalid_file))
        assert code == 1


class TestRunner:
    """Every command the shared runner serves, against outputs pinned before
    the commands shared it: mixed.poly holds valid and invalid blocks."""

    @pytest.mark.parametrize(
        "command",
        ["validate", "analyze"] + [f"check-{w}" for w in ("casagrande", "cfh", "strong", "weak")],
    )
    def test_mixed_inputs_byte_identical(self, capsys, command):
        argv = command.replace("check-", "check --which ").split()
        code = main([*argv, str(DATA / "mixed.poly")])
        captured = capsys.readouterr()
        assert (code, captured.err) == (1, "")
        assert captured.out.encode("utf-8") == (DATA / f"mixed.{command}.json").read_bytes()


class TestExitCode:
    def test_exit_codes(self):
        good = [analyze(simplex(2)), analyze(hexagon())]
        assert exit_code((r.valid, r.checks) for r in good) == 0
        bad = good + [analyze(FanoPolytope(2, ((2, 0), (0, 1), (-1, -1)), "bad"))]
        assert exit_code((r.valid, r.checks) for r in bad) == 1
        violation = (BoundCheck("casagrande", None, 4, 5, False),)
        assert exit_code([(False, ()), (True, violation)]) == 2
        assert exit_code([(True, violation), (False, ())]) == 2

    def test_check_violation_exits_two(self, capsys, monkeypatch, sample_file):
        # check reads analyze's record, and only the checks it selects set the code
        violation = BoundCheck("casagrande", None, 4, 5, False)
        monkeypatch.setattr(cli, "analyze", lambda p: replace(analyze(p), checks=(violation,)))
        code, out = run_main(capsys, "check", "--which", "casagrande", str(sample_file))
        assert code == 2
        assert [len(r["checks"]) for r in json.loads(out)] == [1, 1]
        code, out = run_main(capsys, "check", "--which", "weak", str(sample_file))
        assert code == 0
        assert [len(r["checks"]) for r in json.loads(out)] == [0, 0]


class TestConstructCommand:
    def test_writes_parseable_block(self, capsys):
        code, out = run_main(capsys, "construct", "--family", "product(simplex:2,hexagon)")
        assert code == 0
        assert out.startswith("polytope product(simplex:2,hexagon)\n")
        assert "dim 4" in out

    def test_bad_spec_exits_three(self, capsys):
        code, _ = run_main(capsys, "construct", "--family", "cube:3")
        assert code == 3

    @pytest.mark.parametrize("spec", ["simplex:\u00b3", "simplex:\u0663"])
    def test_non_ascii_dimension_exits_three(self, capsys, spec):
        # a superscript digit used to escape as a ValueError, an Arabic-Indic one built simplex:3
        code = main(["construct", "--family", spec])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "spec",
        ["simplex:" + "9" * 5000, "simplex:99999999999999999999", "product(simplex:3162,hexagon)"],
        ids=["5000 digits", "20 digits", "product(simplex:3162,hexagon)"],
    )
    def test_oversized_spec_exits_three(self, capsys, spec):
        # the first used to escape as a ValueError from int(), the second never returned
        code = main(["construct", "--family", spec])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_deeply_nested_spec_exits_three(self, capsys):
        # 1200 nested products used to escape as a RecursionError with exit 1
        spec = "product(" * 1200 + "hexagon" + ",hexagon)" * 1200
        code = main(["construct", "--family", spec])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestEnumerateCommand:
    def test_emits_five_blocks(self, capsys):
        code, out = run_main(capsys, "enumerate2d")
        assert code == 0
        assert out.count("polytope ") == 5

    @pytest.mark.parametrize("box", ["2", "3"])
    def test_classes_byte_identical(self, capsys, box):
        # every box from radius 1 up finds the same five classes, printed the same
        code, out = run_main(capsys, "enumerate2d", "--box", box)
        assert code == 0
        assert out.encode("utf-8") == (DATA / "enumerate2d-box2.poly").read_bytes()

    def test_box_below_one_exits_three(self, capsys):
        for box in ("0", "-2"):
            code = main(["enumerate2d", "--box", box])
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == ""
            assert captured.err.startswith("error: --box must be at least 1")


class TestBatchCommand:
    def test_directory_input_clean_exit(self, capsys, tmp_path, sample_file):
        code, out = run_main(capsys, "batch", str(sample_file.parent), "--jobs", "2")
        assert code == 0
        data = json.loads(out)
        assert data["summary"]["polytopes"] == 2
        assert data["summary"]["theorem_violations"] == 0

    def test_validation_failure_exits_one(self, capsys, sample_file, invalid_file):
        code, out = run_main(capsys, "batch", str(sample_file), str(invalid_file))
        assert code == 1
        assert json.loads(out)["summary"]["validation_failures"] == 1

    def test_empty_directory_exits_zero(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, out = run_main(capsys, "batch", str(empty))
        assert code == 0
        assert json.loads(out)["summary"]["polytopes"] == 0

    def test_parse_error_exits_three(self, capsys, tmp_path):
        bad = tmp_path / "broken.poly"
        bad.write_text("polytope x\ndim 2\nv 1\nend\n", encoding="utf-8")
        code = main(["batch", str(bad)])
        err = capsys.readouterr().err
        assert code == 3
        assert "broken.poly:3" in err

    def test_every_bad_file_named_in_input_order(self, capsys, tmp_path, sample_file):
        garbage = tmp_path / "garbage.poly"
        garbage.write_text("garbage\n", encoding="utf-8")
        missing = tmp_path / "missing.poly"
        code = main(["batch", str(sample_file), str(garbage), str(missing)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 2
        assert "garbage.poly:1" in lines[0]
        assert "missing.poly" in lines[1]

    def test_jobs_do_not_change_bytes(self, capsys, sample_file, invalid_file):
        outputs = []
        for jobs in ("1", "4"):
            code, out = run_main(
                capsys, "batch", str(sample_file), str(invalid_file), "--jobs", jobs
            )
            assert code == 1
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_golden_invalid_inputs_byte_identical(self, capsys):
        # golden_batch.json was written by the C(m, n) subset-scan hull
        code, out = run_main(capsys, "batch", str(DATA / "golden.poly"))
        assert code == 1
        assert out.encode("utf-8") == (DATA / "golden_batch.json").read_bytes()


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, sample_file):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "fanorank", "analyze", str(sample_file)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)[0]["valid"] is True
