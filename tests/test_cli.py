import contextlib
import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

from orbitdex import ConsistencyError, cli, parse_germ, resonance
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


# chain_germ([(2,2,1);(2,6,1)], r=(2,3)): its f^6 needs products of more
# terms than the direct check's budget
KNOWN_HANG = """\
matrix {
  block { size = 2, order = 2, power = 1 }
  block { size = 2, order = 6, power = 1 }
}
map {
  f1 = L1*x1 + x2;
  f2 = L1*x2 + x3^3 + x1^5;
  f3 = L2*x3 + x4;
  f4 = L2*x4 + x1^6*x3;
}
"""

# q = 6 of this germ falls back to direct composition: f^6 - id fits the
# term budget, and the engine then runs on a residual system with rows of
# about 500 terms that stabilizes at degree 6
DIRECT_FALLBACK = """\
matrix {
  block { size = 2, order = 2, power = 1 }
  block { size = 1, order = 6, power = 1 }
}
map {
  f1 = L1*x1 + x2 - x2^3 - x1^2*x2^3;
  f2 = L1*x2 + 2*x3^3 + 2*x1^5 - x1*x2*x3^3;
  f3 = L2*x3 - 2*x1^3*x2*x3 - 2*x1*x3^4 - 2*x2*x3^4;
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


@contextlib.contextmanager
def alarm(seconds, what):
    """Turn a run longer than seconds into a TimeoutError, not a hang."""
    def too_slow(signum, frame):
        raise TimeoutError(f"{what} took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_check_ok(capsys, worked):
    code, out, _ = run(capsys, "check", worked)
    assert code == 0 and "OK" in out


def _count_normal_form_checks(monkeypatch) -> list:
    """Count validate_rnf calls through every orbitdex module that holds it."""
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    original = resonance.validate_rnf
    for module in list(sys.modules.values()):
        if (module.__name__.startswith("orbitdex")
                and getattr(module, "validate_rnf", None) is original):
            monkeypatch.setattr(module, "validate_rnf", counted)
    return calls


def test_check_validates_the_normal_form_once(capsys, worked, monkeypatch):
    calls = _count_normal_form_checks(monkeypatch)
    code, out, _ = run(capsys, "check", worked)
    assert code == 0 and "full-period order 12" in out
    assert len(calls) == 1


def test_realize_validates_the_normal_form_once(capsys, monkeypatch):
    calls = _count_normal_form_checks(monkeypatch)
    code, out, _ = run(capsys, "realize", "[(1,2,1);(1,6,1)]",
                       "--seq", "1:1,2:2,6:3")
    assert code == 0 and "map {" in out
    assert len(calls) == 1


def test_parser_keeps_no_state_between_calls(capsys, worked):
    code, out, _ = run(capsys, "check", worked, "--json", "--no-timing")
    assert code == 0 and json.loads(out)["results"]["full_order"] == 12
    code, out, _ = run(capsys, "check", worked)
    assert code == 0
    assert out == "OK: resonant normal form; full-period order 12\n"


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


def test_degree_cap_must_be_positive(capsys, worked):
    commands = [["check", worked], ["mult", worked],
                ["index", worked, "--q", "2"], ["spectrum", worked],
                ["realize", "[(1,2,1);(1,6,1)]", "--seq", "1:1,2:2,6:3"]]
    for argv in commands:
        for cap in ("0", "-1"):
            # the flag is read before and after the subcommand
            for placed in (["--degree-cap", cap, *argv],
                           [*argv, "--degree-cap", cap]):
                with pytest.raises(SystemExit) as exc:
                    main(placed)
                assert exc.value.code == 2, placed
                assert "expected a positive integer" in capsys.readouterr().err
        code, _, _ = run(capsys, *argv, "--degree-cap", "1")
        assert code == 0, argv


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


def test_index_direct_route_has_the_term_budget(capsys, tmp_path):
    # the projection route gives 12 at once; composing f^6 runs past the
    # direct check's budget, which is a typed failure, not a traceback
    path = tmp_path / "hang.germ"
    path.write_text(KNOWN_HANG)
    start = time.monotonic()
    code, out, _ = run(capsys, "--json", "--no-timing", "index", str(path),
                       "--q", "6", "--route", "both")
    assert time.monotonic() - start < 10
    assert code == 1
    assert json.loads(out)["results"] == {
        "ok": False, "reason": "direct composition past 2000 terms"}


def test_spectrum_json_schema(capsys, worked):
    code, out, _ = run(capsys, "--json", "--no-timing", "spectrum", worked)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["pe"] == [2, 3, 6]
    assert payload["results"]["counts"] == {"1": 1, "2": 1, "3": 1, "6": 1}
    assert payload["results"]["mu"]["6"] == 12
    assert payload["results"]["dold"]["6"] == 6
    assert payload["results"]["checked_by"] == {
        "1": "direct", "2": "division", "3": "division", "6": "division"}
    assert payload["checks"] == {"triangular": True, "iterates": True}


def test_spectrum_reports_q_past_the_term_budget(capsys, tmp_path):
    # the known hang is checked at q = 6 by division, without composing
    path = tmp_path / "hang.germ"
    path.write_text(KNOWN_HANG)
    start = time.monotonic()
    code, out, _ = run(capsys, "--json", "--no-timing", "spectrum", str(path))
    assert time.monotonic() - start < 10
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["counts"] == {"1": 1, "2": 2, "6": 3}
    assert payload["checks"] == {"triangular": True, "iterates": True}
    assert payload["results"]["checked_by"] == {
        "1": "direct", "2": "division", "6": "division"}
    assert "unchecked" not in payload["results"]
    code, out, _ = run(capsys, "spectrum", str(path))
    assert code == 0
    assert "checked by: 1:direct 2:division 6:division" in out
    assert "unchecked" not in out


def test_spectrum_direct_fallback_is_fast(capsys, tmp_path):
    # the engine builds only the rows that can change Q_d and cuts them
    # below a doubling degree bound; eliminating every row in full took
    # minutes
    path = tmp_path / "fallback.germ"
    path.write_text(DIRECT_FALLBACK)
    with alarm(30, "spectrum with a direct fallback at q = 6"):
        code, out, _ = run(capsys, "--json", "--no-timing", "spectrum",
                           str(path))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["counts"] == {"1": 1, "2": 2, "6": 3}
    assert results["mu"] == {"1": 1, "2": 5, "3": 1, "6": 23}
    assert results["checked_by"] == {"1": "direct", "2": "division",
                                     "6": "direct"}


def test_spectrum_names_a_q_past_the_fallback_budget(capsys, tmp_path):
    # x2 and x4 are not lead variables, so q = 6 falls back to direct
    # composition, which runs past its budget
    path = tmp_path / "shape.germ"
    path.write_text(KNOWN_HANG.replace(
        "f4 = L2*x4 + x1^6*x3;", "f4 = L2*x4 + x1^6*x3 + x2^2*x4;"))
    start = time.monotonic()
    code, out, _ = run(capsys, "--json", "--no-timing", "spectrum", str(path))
    assert time.monotonic() - start < 10
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["counts"] == {"1": 1, "2": 2, "6": 3}
    assert payload["checks"] == {"triangular": True, "iterates": False}
    assert payload["results"]["checked_by"] == {"1": "direct",
                                                "2": "division"}
    assert payload["results"]["unchecked"] == {
        "6": "direct composition past 2000 terms"}
    code, out, _ = run(capsys, "spectrum", str(path))
    assert code == 0
    assert "unchecked: q=6 (direct composition past 2000 terms)" in out


def test_spectrum_names_an_unchecked_q_past_the_direct_bound(capsys,
                                                             tmp_path):
    # x2 is not a lead variable: q = 2 falls back to direct composition,
    # and q = 10, past DIRECT_CHECK_MAX_Q, is checked by no route
    path = tmp_path / "ten.germ"
    path.write_text("""\
matrix {
  block { size = 2, order = 2, power = 1 }
  block { size = 1, order = 5, power = 1 }
}
map {
  f1 = L1*x1 + x2;
  f2 = L1*x2 + x1^3 + x2^3;
  f3 = L2*x3 + x3^6;
}
""")
    code, out, _ = run(capsys, "--json", "--no-timing", "spectrum", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["counts"] == {"1": 1, "2": 1, "5": 1, "10": 1}
    assert payload["checks"] == {"triangular": True, "iterates": False}
    assert payload["results"]["checked_by"] == {"1": "direct", "2": "direct",
                                                "5": "division"}
    assert payload["results"]["unchecked"] == {"10": "shape"}


def test_spectrum_on_many_blocks_is_polynomial(capsys, tmp_path):
    # 24 blocks of order 2 have no essential block, so q = 2 falls back
    # to direct composition; a search over the 2^24 block subsets for
    # one would not finish, and the alarm turns that into a failure
    path = tmp_path / "many.germ"
    path.write_text(
        "matrix {\n"
        + "block { size = 1, order = 2, power = 1 }\n" * 24
        + "}\nmap {\n"
        + "".join(f"f{i} = L{i}*x{i} + x{i}^3;\n" for i in range(1, 25))
        + "}\n")
    with alarm(10, "spectrum on 24 blocks"):
        start = time.monotonic()
        code, out, _ = run(capsys, "--json", "--no-timing", "spectrum",
                           str(path))
        elapsed = time.monotonic() - start
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["counts"] == {"1": 1, "2": (3**24 - 1) // 2}
    assert payload["results"]["checked_by"] == {"1": "direct", "2": "direct"}
    assert elapsed < 2


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


def test_matrix_pe_is_polynomial_in_the_block_count(capsys):
    # a loop over all 2^64 block subsets would never finish; the alarm
    # turns that into a failure instead of a hang
    blocks = ";".join(["(1,2,1)", "(1,3,1)", "(1,4,1)", "(1,6,1)"] * 16)
    with alarm(5, "matrix pe on 64 blocks"):
        start = time.monotonic()
        code, out, _ = run(capsys, "matrix", "pe", f"[{blocks}]")
        elapsed = time.monotonic() - start
    assert code == 0 and out.split() == ["2", "3", "4", "6", "12"]
    assert elapsed < 1


@pytest.mark.parametrize("command, rest", [
    (("matrix", "pe"), ()), (("matrix", "order"), ()),
    (("matrix", "universal"), ()),
    (("admissible",), ("--seq", "1:1,2:1,2049:1,4098:1"))])
def test_matrix_order_bound(capsys, command, rest):
    code, out, err = run(capsys, *command, "[(1,2,1);(1,2049,1)]", *rest)
    assert code == 1 and out == ""
    assert "matrix order 4098 exceeds the supported bound 2048" in err


@pytest.mark.parametrize("matrix, reason", [
    ("[(1,2,1);(1,2049,1)]", "matrix order 4098 exceeds the supported bound 2048"),
    ("[(1,2,1);(1,0,1)]", "block order must be >= 1 (eigenvalues must be "
                          "roots of unity), got 0")])
def test_json_refusal_is_a_payload(capsys, matrix, reason):
    # a ValueError that reaches main still prints a JSON payload under --json
    code, out, err = run(capsys, "--json", "--no-timing", "matrix", "pe", matrix)
    assert code == 1 and err == f"error: {reason}\n"
    assert json.loads(out) == {"command": "matrix pe",
                               "results": {"ok": False, "reason": reason}}


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


@pytest.mark.parametrize("matrix, seq, exponent", [
    ("[(1,2,1)]", "1:1,2:600000", 1200001),
    ("[(1,2,1);(1,3,1)]", "1:1,2:1000,3:1000,6:1", 2000000),
])
def test_realize_refuses_an_exponent_the_parser_refuses(
        capsys, tmp_path, matrix, seq, exponent):
    out_path = tmp_path / "g.germ"
    code, out, _ = run(capsys, "--json", "--no-timing", "realize", matrix,
                       "--seq", seq, "-o", str(out_path))
    assert code == 1 and not out_path.exists()
    assert json.loads(out)["results"] == {
        "ok": False,
        "reason": f"the constructed germ needs exponent {exponent}, which "
                  f"exceeds the supported bound 1000000"}


def test_consistency_error_prints_a_payload(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ConsistencyError("constructed germ realizes {1: 2}, wanted {1: 1}")

    monkeypatch.setattr(cli, "realize", broken)
    code, out, err = run(capsys, "--json", "--no-timing", "realize",
                         "[(1,1,1)]", "--seq", "1:1")
    assert code == 1
    assert json.loads(out)["results"] == {
        "ok": False,
        "reason": "constructed germ realizes {1: 2}, wanted {1: 1}"}
    assert err == ("internal consistency error: constructed germ realizes "
                   "{1: 2}, wanted {1: 1}\n")


def test_realize_at_the_exponent_bound_parses_back(capsys, tmp_path):
    out_path = tmp_path / "g.germ"
    code, _, _ = run(capsys, "realize", "[(1,2,1)]", "--seq", "1:1,2:499999",
                     "-o", str(out_path))
    assert code == 0
    doc = parse_germ(out_path.read_text())
    assert doc.gmap.coords[0].terms.keys() == {(1,), (999999,)}
    code, out, _ = run(capsys, "check", str(out_path))
    assert code == 0 and "full-period order 999999" in out


def test_lemma42_command(capsys):
    code, out, _ = run(capsys, "--json", "--no-timing", "lemma42",
                       "--a", "2,4", "--r", "1,1")
    payload = json.loads(out)
    assert code == 0
    assert payload["results"]["k"] == 1
    assert payload["results"]["product"] == 1
    assert payload["results"]["bound"] == 2


def test_lemma42_lcm_bound(capsys):
    code, out, _ = run(capsys, "--json", "--no-timing", "lemma42",
                       "--a", "10007,10009", "--r", "2,3")
    assert code == 1
    assert json.loads(out)["results"] == {
        "ok": False,
        "reason": "lcm of the moduli 100160063 exceeds the supported "
                  "bound 1000000"}


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


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "orbitdex.cli", "matrix", "order", "[(1,4,1)]"],
        capture_output=True, text=True)
    assert result.returncode == 0 and result.stdout.strip() == "4"
