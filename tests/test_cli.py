import json
import shutil
import subprocess
import sys

import pytest

from orbitdex.cli import main
from conftest import fixture_dir

WORKED = """\
matrix {
  block { size = 1, order = 2, power = 1 }
  block { size = 1, order = 3, power = 1 }
}
map {
  f1 = L1*x1 + x1^3 + x1*x2^3;
  f2 = L2*x2 + x2^4 + 2*x2*x1^2;
}
"""

NON_RESONANT = """\
matrix { block { size = 1, order = 2, power = 1 } }
map { f1 = L1*x1 + x1^2; }
"""

# the stripped map (x1*x2^3, x2*x1^2) vanishes on both axes
NOT_ISOLATED = """\
matrix {
  block { size = 1, order = 2, power = 1 }
  block { size = 1, order = 3, power = 1 }
}
map {
  f1 = L1*x1 + x1*x2^3;
  f2 = L2*x2 + x2*x1^2;
}
"""


@pytest.fixture
def worked(tmp_path):
    path = tmp_path / "worked.germ"
    path.write_text(WORKED)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_ok(capsys, worked):
    code, out, _ = run(capsys, "check", worked)
    assert code == 0 and "OK" in out


def test_check_reports_non_resonant_term(capsys, tmp_path):
    path = tmp_path / "bad.germ"
    path.write_text(NON_RESONANT)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "non-resonant term x1^2 in coordinate 1" in out


def test_check_reports_not_isolated(capsys, tmp_path):
    path = tmp_path / "ni.germ"
    path.write_text(NOT_ISOLATED)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1 and "not isolated" in out


def test_parse_error_exits_2(capsys, tmp_path):
    path = tmp_path / "syntax.germ"
    path.write_text("matrix { block { size = 1, order = 2 } }")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2 and "line" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/x.germ")
    assert code == 2


def test_mult_command(capsys, worked, tmp_path):
    code, out, _ = run(capsys, "mult", worked)
    assert code == 0 and out.strip() == "1"
    path = tmp_path / "powers.germ"
    path.write_text("matrix { block { size = 1, order = 1, power = 1 } "
                    "block { size = 1, order = 1, power = 1 } }\n"
                    "map { f1 = x1^2; f2 = x2^3; }")
    code, out, _ = run(capsys, "--json", "--no-timing", "mult", str(path),
                       "--map-only")
    payload = json.loads(out)
    assert code == 0 and payload["results"]["value"] == 6


def test_index_both_routes(capsys, worked):
    code, out, _ = run(capsys, "index", worked, "--q", "2", "--route", "both")
    assert code == 0 and out.strip() == "3"


def test_spectrum_json_schema(capsys, worked):
    code, out, _ = run(capsys, "--json", "--no-timing", "spectrum", worked)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["pe"] == [2, 3, 6]
    assert payload["results"]["counts"] == {"1": 1, "2": 1, "3": 1, "6": 1}
    assert payload["results"]["mu"]["6"] == 12
    assert payload["results"]["dold"]["6"] == 6
    assert payload["checks"] == {"f37": True, "direct": True}


def test_spectrum_deterministic_output(capsys, worked):
    _, first, _ = run(capsys, "--json", "--no-timing", "spectrum", worked)
    _, second, _ = run(capsys, "--json", "--no-timing", "spectrum", worked)
    assert first == second


def test_matrix_commands(capsys):
    code, out, _ = run(capsys, "matrix", "pe", "[(1,2,1);(1,6,1);(1,5,1)]")
    assert code == 0 and out.split() == ["2", "5", "6", "10", "30"]
    code, out, _ = run(capsys, "matrix", "order", "[(1,2,1);(1,3,1)]")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run(capsys, "matrix", "universal", "[(1,2,1);(1,3,1);(1,5,1)]")
    assert code == 0 and "not universal" in out


def test_admissible_command(capsys):
    code, out, _ = run(capsys, "admissible", "[(1,2,1);(1,3,1)]",
                       "--seq", "1:1,2:1,3:1,6:1")
    assert code == 0 and "admissible" in out
    code, out, _ = run(capsys, "admissible", "[(1,2,1);(1,3,1)]",
                       "--seq", "1:1,2:2,6:3")
    assert code == 1 and "a[3]" in out


def test_realize_writes_file(capsys, tmp_path):
    out_path = tmp_path / "realized.germ"
    code, out, _ = run(capsys, "realize", "[(1,2,1);(1,6,1)]",
                       "--seq", "1:1,2:2,6:3", "-o", str(out_path))
    assert code == 0 and out_path.exists()
    code, out, _ = run(capsys, "spectrum", str(out_path))
    assert code == 0 and "counts: 1:1 2:2 6:3" in out


def test_realize_rejects_non_universal(capsys):
    code, out, _ = run(capsys, "realize", "[(1,2,1);(1,3,1);(1,5,1)]",
                       "--seq", "1:1,2:1,3:1,5:1,6:1,10:1,15:1,30:1")
    assert code == 1 and "not universal" in out


def test_realize_matrix_order_bound(capsys):
    # M = 2018 is under the bound of 2048 and realizes; M = 4098 is refused
    code, out, _ = run(capsys, "--json", "--no-timing", "realize",
                       "[(1,2,1);(1,1009,1)]", "--seq", "2:1,1009:1,2018:1")
    assert code == 0
    assert json.loads(out)["results"]["counts"] == {"1": 1, "2": 1,
                                                    "1009": 1, "2018": 1}
    code, out, _ = run(capsys, "realize", "[(1,2,1);(1,2049,1)]",
                       "--seq", "2:1,2049:1,4098:1")
    assert code == 1 and "exceeds the supported bound 2048" in out


def test_lemma42_command(capsys):
    code, out, _ = run(capsys, "--json", "--no-timing", "lemma42",
                       "--a", "2,4", "--r", "1,1")
    payload = json.loads(out)
    assert code == 0
    assert payload["results"]["k"] == 1
    assert payload["results"]["product"] == 1
    assert payload["results"]["bound"] == 2


def test_paper_suite_passes(capsys):
    code, out, _ = run(capsys, "paper-suite")
    assert code == 0
    assert "12/12 fixtures pass" in out


def test_paper_suite_filter(capsys):
    code, out, _ = run(capsys, "paper-suite", "--filter", "flip")
    assert code == 0
    assert "2/2 fixtures pass" in out
    assert "pair23" not in out


def test_paper_suite_detects_corruption(capsys, tmp_path):
    work = tmp_path / "fixtures"
    shutil.copytree(fixture_dir(), work)
    target = work / "flip_cubic.expected.json"
    payload = json.loads(target.read_text())
    payload["counts"]["2"] = 99
    target.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "paper-suite", "--fixtures-dir", str(work))
    assert code == 1
    assert "flip_cubic" in out and "FAIL" in out


def test_paper_suite_bless(capsys, tmp_path):
    work = tmp_path / "fixtures"
    shutil.copytree(fixture_dir(), work)
    target = work / "flip_cubic.expected.json"
    payload = json.loads(target.read_text())
    payload["counts"]["2"] = 99
    target.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "paper-suite", "--fixtures-dir", str(work),
                       "--bless")
    assert code == 0
    code, out, _ = run(capsys, "paper-suite", "--fixtures-dir", str(work))
    assert code == 0


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "orbitdex.cli", "matrix", "order", "[(1,4,1)]"],
        capture_output=True, text=True)
    assert result.returncode == 0 and result.stdout.strip() == "4"
