import io
import json
import os
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from monoidtopos.cli import build_parser, main

REPO_ROOT = Path(__file__).parent.parent
FIXTURE = "tests/fixtures/qubit.mtd"
GOLDEN_DIR = Path(__file__).parent / "golden"

# Every CLI surface, exercised against the shared fixture file.  Outputs
# are compared byte for byte against committed golden files and across
# two consecutive runs.
RUNS = {
    "parse": ["parse", FIXTURE],
    "verify_heyting": ["verify-heyting", FIXTURE, "M2"],
    "enumerate_ideals": ["enumerate-ideals", FIXTURE, "M2"],
    "truth_subset": ["truth", FIXTURE, "--mset", "Pts", "--kind", "subset",
                     "--point", "0", "--subset", "{1}"],
    "truth_equal": ["truth", FIXTURE, "--mset", "Pts", "--kind", "equal",
                    "--point", "0", "--point2", "1"],
    "valuate_classical": ["valuate-classical", FIXTURE, "--system", "C",
                          "--state", "s1", "--quantity", "A", "--range", "{0}",
                          "--check-arrow"],
    "valuate_quantum": ["valuate-quantum", FIXTURE, "--system", "Q",
                        "--state", "psi", "--op", "A", "--range", "{1}",
                        "--check-arrow"],
    "valuate_ray": ["valuate", FIXTURE, "--system", "Q", "--state", "psi",
                    "--op", "A", "--range", "{1}", "--alphabet", "(Pz,Pplus)",
                    "--mode", "ray", "--depth", "3"],
    "valuate_vector": ["valuate", FIXTURE, "--system", "Q", "--state", "psi",
                       "--op", "A", "--range", "{1}", "--alphabet", "(Pz,Pplus)",
                       "--mode", "vector", "--depth", "3"],
    "valuate_density": ["valuate", FIXTURE, "--system", "Q", "--density", "rho",
                        "--op", "A", "--range", "{1}", "--alphabet", "(Pz,Pplus)",
                        "--mode", "density", "--depth", "3"],
    "equal_sp": ["equal", FIXTURE, "--system", "Q", "--state1", "e1",
                 "--state2", "e2", "--mode", "sp", "--alphabet", "(Pz,Pplus)",
                 "--depth", "3"],
    "equal_context": ["equal", FIXTURE, "--system", "Q", "--state1", "e1",
                      "--state2", "e2", "--mode", "context", "--universe", "U",
                      "--rayset", "Xi"],
    "equal_sieve": ["equal", FIXTURE, "--system", "Q", "--state1", "e1",
                    "--state2", "e2", "--mode", "sieve", "--context",
                    "(Pz,Pplus)"],
    "polar_rays": ["polar", FIXTURE, "--universe", "U", "--rayset", "Xi"],
    "polar_strings": ["polar", FIXTURE, "--universe", "U", "--strings",
                      "(Pz);(Pz,Pplus)", "--candidates", "V"],
    "closure": ["closure", FIXTURE, "--universe", "U", "--rayset", "Xi",
                "--candidates", "V"],
    "sieve_valuation": ["sieve", FIXTURE, "--system", "Q", "--context",
                        "(Pz,Pplus)", "--state", "e1", "--op", "A",
                        "--range", "{1}"],
    "sieve_equal": ["sieve", FIXTURE, "--system", "Q", "--context",
                    "(Pz,Pplus)", "--state", "e1", "--state2", "e2"],
    "query": ["query", FIXTURE, "q1"],
    "selftest": ["selftest", "--seed", "5"],
}


def run_cli(argv) -> tuple[int, str]:
    buffer = io.StringIO()
    cwd = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        with redirect_stdout(buffer):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, buffer.getvalue()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_reports_golden_and_deterministic(name):
    argv = RUNS[name]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2, "report must be byte-identical across runs"
    payload = json.loads(out1)
    assert payload["schema"] == 1
    assert payload["status"] == "ok"
    golden = GOLDEN_DIR / f"{name}.json"
    if os.environ.get("REGEN_GOLDENS") == "1":
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden.write_text(out1, encoding="utf-8")
    assert golden.exists(), f"golden file {golden} missing; regenerate with REGEN_GOLDENS=1"
    assert out1 == golden.read_text(encoding="utf-8")


def test_cli_fixture_values():
    _, out = run_cli(RUNS["verify_heyting"])
    result = json.loads(out)["result"]
    assert result["ideal_count"] == 3
    assert result["all_laws_hold"] is True
    assert result["excluded_middle_failures"] == [["1"]]

    _, out = run_cli(RUNS["valuate_quantum"])
    result = json.loads(out)["result"]
    assert result["routes_agree"] is True
    assert result["ideal"]["members"] == ["f00", "f11"]

    _, out = run_cli(RUNS["sieve_equal"])
    result = json.loads(out)["result"]
    assert result["sieve"]["includedTailLengths"] == [1, 2]

    _, out = run_cli(RUNS["valuate_ray"])
    result = json.loads(out)["result"]
    assert result["ideal"]["certificate"]["violations"] == []


def test_cli_selftest_passes():
    code, out = run_cli(["selftest", "--seed", "5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["all_passed"] is True


def test_cli_diagnostics_exit_code(tmp_path):
    bad = tmp_path / "bad.mtd"
    bad.write_text("monoid M { elements 2; table [[0,1],[1,0]], }")
    code, out = run_cli(["parse", str(bad)])
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert payload["diagnostics"][0]["line"] == 1


def test_cli_missing_file():
    code, out = run_cli(["parse", "/nonexistent/file.mtd"])
    assert code == 1
    assert json.loads(out)["status"] == "error"


def test_cli_usage_errors_are_reported():
    code, out = run_cli(["verify-heyting", FIXTURE, "NOPE"])
    assert code == 1
    payload = json.loads(out)
    assert "unknown monoid" in payload["diagnostics"][0]["message"]


def test_cli_pretty_mode_runs():
    code, out = run_cli(["verify-heyting", FIXTURE, "M2", "--pretty"])
    assert code == 0
    assert "all_laws_hold" in out and not out.lstrip().startswith("{")


def test_cli_timing_flag_adds_field():
    _, out = run_cli(["parse", FIXTURE, "--timing"])
    assert "timing_ms" in json.loads(out)


@pytest.mark.parametrize("argv", [
    ["valuate", FIXTURE, "--system", "Q", "--state", "psi", "--op", "A",
     "--range", "{5}", "--alphabet", "(Pz,Pplus)"],
    ["sieve", FIXTURE, "--system", "Q", "--context", "(Pz,Pplus)",
     "--state", "e1", "--op", "A", "--range", "{5}"],
    ["valuate-quantum", FIXTURE, "--system", "Q", "--state", "psi",
     "--op", "A", "--range", "{5}"],
])
def test_cli_rejects_range_outside_value_set(argv):
    code, out = run_cli(argv)
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert "range value 5.0 is not in the value set" in payload["diagnostics"][0]["message"]


def test_cli_long_sieve_context():
    # a 3000-letter context reduces without one stack frame per letter
    context = "(" + ",".join(["Pz"] * 3000) + ")"
    code, out = run_cli(["sieve", FIXTURE, "--system", "Q", "--context", context,
                         "--state", "e1", "--op", "A", "--range", "{-1}"])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["result"]["sieve"]["includedTailLengths"] == []


def test_cli_numeric_failure_is_an_error(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    code, out = run_cli(RUNS["valuate_quantum"])
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert "eigendecomposition failed" in payload["diagnostics"][0]["message"]


@pytest.mark.parametrize("argv,message", [
    (["sieve", FIXTURE, "--system", "Q", "--context", "(Pz,Pplus)", "--state", "e1",
      "--op", "A"], "sieve without --state2 needs --range"),
    (["sieve", FIXTURE, "--system", "Q", "--context", "(Pz,Pplus)", "--state", "e1"],
     "sieve without --state2 needs --op"),
    (["equal", FIXTURE, "--system", "Q", "--state1", "e1", "--state2", "e2",
      "--mode", "sieve"], "equal --mode sieve needs --context"),
    (["equal", FIXTURE, "--system", "Q", "--state1", "e1", "--state2", "e2",
      "--mode", "context", "--rayset", "Xi"], "equal --mode context needs --universe"),
    (["equal", FIXTURE, "--system", "Q", "--state1", "e1", "--state2", "e2",
      "--mode", "context", "--universe", "U"], "equal --mode context needs --rayset"),
    (["polar", FIXTURE, "--universe", "U", "--strings", "(Pz)"],
     "polar --strings needs --candidates"),
    (["valuate", FIXTURE, "--system", "Q", "--op", "A", "--range", "{1}",
      "--mode", "ray"], "valuate --mode ray needs --state"),
    (["valuate", FIXTURE, "--system", "Q", "--op", "A", "--range", "{1}",
      "--mode", "vector"], "valuate --mode vector needs --state"),
    (["valuate", FIXTURE, "--system", "Q", "--op", "A", "--range", "{1}",
      "--mode", "density"], "valuate --mode density needs --density"),
])
def test_cli_names_a_missing_mode_flag(argv, message):
    code, out = run_cli(argv)
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert payload["diagnostics"][0]["message"] == message


def fixture_with(tmp_path, declaration: str) -> str:
    """The shared fixture plus one more declaration, written to a new file."""
    path = tmp_path / "fixture.mtd"
    source = (REPO_ROOT / FIXTURE).read_text(encoding="utf-8")
    path.write_text(source + declaration + "\n", encoding="utf-8")
    return str(path)


QUERY_PARSE_ERRORS = [
    ("run valuate; system Q; state psi; op A; range {1}; colour red;",
     "unrecognized arguments: --colour red"),
    ("run valuate; system Q; state psi; op A;", "required: --range"),
    ("run valuate; system Q; state psi; op A; range {1}; depth deep;",
     "invalid int value: 'deep'"),
    ("run nosuch;", "invalid choice: 'nosuch'"),
    ("run truth; mset Pts; kind nosuch;", "invalid choice: 'nosuch'"),
    ("run valuate; system Q; state psi; op A; range {1}; mode sideways;",
     "invalid choice: 'sideways'"),
    ("run selftest;", "unrecognized arguments"),
]


@pytest.mark.parametrize("entries,reason", QUERY_PARSE_ERRORS)
def test_cli_query_entries_that_do_not_parse(tmp_path, capsys, entries, reason):
    path = fixture_with(tmp_path, f"query bad {{ {entries} }}")
    code, out = run_cli(["query", path, "bad"])
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error"
    message = payload["diagnostics"][0]["message"]
    assert message.startswith("query 'bad' does not parse: ")
    assert reason in message
    assert capsys.readouterr().err == ""


def test_cli_one_parser_per_process_keeps_every_report(tmp_path):
    # main and query share one parser: every golden argv, run twice, each
    # run after a query entry that the parser rejects, reports the same bytes
    assert build_parser() is build_parser()
    bad = []
    for i, (entries, reason) in enumerate(QUERY_PARSE_ERRORS):
        (tmp_path / str(i)).mkdir()
        bad.append((fixture_with(tmp_path / str(i), f"query bad {{ {entries} }}"), reason))
    for turn in range(2):
        for i, name in enumerate(sorted(RUNS)):
            path, reason = bad[(i + turn) % len(bad)]
            code, out = run_cli(["query", path, "bad"])
            assert code == 1 and reason in json.loads(out)["diagnostics"][0]["message"]
            code, out = run_cli(RUNS[name])
            assert code == 0
            assert out == (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")


def test_cli_bad_top_level_command_line_still_exits_through_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(RUNS["valuate_quantum"] + ["--colour", "red"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_enforces_max_dim():
    argv = RUNS["valuate_quantum"]
    code, out = run_cli(argv + ["--max-dim", "1"])
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert payload["diagnostics"][0]["message"] == (
        "quantum system 'Q' has dimension 2, above --max-dim 1")
    code, out = run_cli(argv + ["--max-dim", "2"])
    assert code == 0 and json.loads(out)["status"] == "ok"


def test_cli_enforces_max_dim_from_a_query_entry(tmp_path):
    path = fixture_with(tmp_path, "query small { run parse; max_dim 1; }")
    code, out = run_cli(["query", path, "small"])
    assert code == 1
    assert json.loads(out)["diagnostics"][0]["message"] == (
        "quantum system 'Q' has dimension 2, above --max-dim 1")


@pytest.mark.parametrize("argv,depth", [
    (RUNS["valuate_vector"] + ["--depth", "-1"], -1),
    (RUNS["equal_sp"] + ["--depth", "-2"], -2),
])
def test_cli_rejects_a_negative_depth(argv, depth):
    code, out = run_cli(argv)
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert payload["diagnostics"][0]["message"] == (
        f"--depth must be non-negative, got {depth}")


def test_cli_rejects_a_negative_depth_from_a_query_entry(tmp_path):
    path = fixture_with(tmp_path, "query deep { run valuate; system Q; state psi; op A; "
                                  "range {1}; alphabet (Pz,Pplus); depth -1; }")
    code, out = run_cli(["query", path, "deep"])
    assert code == 1
    assert json.loads(out)["diagnostics"][0]["message"] == (
        "--depth must be non-negative, got -1")


@pytest.mark.parametrize("argv", [
    ["polar", "--universe", "Deep", "--rayset", "Xi"],
    ["closure", "--universe", "Deep", "--rayset", "Xi", "--candidates", "V"],
    ["valuate"] + RUNS["valuate_ray"][2:] + ["--depth", "20000"],
])
def test_cli_deep_string_domains_are_a_capacity_error(tmp_path, argv):
    # refused before the size of the domain (over 2**20000 strings) is computed
    path = fixture_with(tmp_path, "universe Deep { system Q; alphabet (Pz,Pplus); depth 1e300; }")
    start = time.perf_counter()
    code, out = run_cli([argv[0], path] + argv[1:])
    assert time.perf_counter() - start < 2.0
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert payload["diagnostics"] == [
        {"line": 0, "col": 0, "message": "strings longer than 21 letters exceed budget 1048576"}]


@pytest.mark.parametrize("flag", ["--subset", "--subset2"])
def test_cli_truth_rejects_subset_entries_that_are_not_integers(flag):
    code, out = run_cli(["truth", FIXTURE, "--mset", "Pts", "--kind", "leq", flag, "{1.5}"])
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert "'{1.5}' has an entry that is not a point index" in payload["diagnostics"][0]["message"]


def test_cli_truth_invariant_rejects_a_point_outside_the_carrier():
    code, out = run_cli(["truth", FIXTURE, "--mset", "Pts", "--kind", "invariant",
                         "--point", "7", "--subset", "{1}"])
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert payload["diagnostics"][0]["message"] == "7 is not a carrier point"


def test_cli_truth_leq_on_an_empty_carrier_is_the_full_ideal(tmp_path):
    path = fixture_with(tmp_path, "mset E { monoid M2; points 0; action [[],[]]; }")
    code, out = run_cli(["truth", path, "--mset", "E", "--kind", "leq",
                         "--subset", "{}", "--subset2", "{}"])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["result"]["ideal"]["is_full"]
    assert payload["result"]["ideal"]["members"] == ["0", "1"]


@pytest.mark.parametrize("name", ["valuate_vector", "equal_sp"])
def test_cli_rejects_repeated_alphabet_letters(name):
    argv = list(RUNS[name])
    argv[argv.index("--alphabet") + 1] = "(Pz,Pz)"
    code, out = run_cli(argv)
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert payload["diagnostics"][0]["message"] == "alphabet letters must be distinct"


# A second quantum system of dimension 3 beside the fixture's qubit Q.
QUTRIT_SYSTEM = """
quantum R {
  dim 3;
  values {1,-1};
  operator B { matrix [[1,0,0],[0,-1,0],[0,0,1]]; }
  projector P0 { matrix [[1,0,0],[0,0,0],[0,0,0]]; }
  state f1 [1,0,0];
  state f2 [0,1,0];
}
rayset X3 { system R; rays (f1,f2); }
"""


@pytest.mark.parametrize("argv", [
    ["polar", "--universe", "U", "--rayset", "X3"],
    ["polar", "--universe", "U", "--strings", "(Pz)", "--candidates", "X3"],
    ["closure", "--universe", "U", "--rayset", "X3", "--candidates", "X3"],
])
def test_cli_ray_set_of_another_dimension_is_a_context_error(tmp_path, argv):
    path = fixture_with(tmp_path, QUTRIT_SYSTEM)
    code, out = run_cli([argv[0], path] + argv[1:])
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert payload["diagnostics"][0]["message"] == (
        "ray set has dimension 3, but the universe's strings act on dimension 2")


@pytest.mark.parametrize("flag", ["--tol", "--null-threshold"])
@pytest.mark.parametrize("value", ["0", "-1e-9"])
def test_cli_invalid_tolerance_flag_is_an_error_report(capsys, flag, value):
    code, out = run_cli(RUNS["valuate_quantum"] + [f"{flag}={value}"])
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert payload["diagnostics"][0]["message"] == "tolerances must be positive"
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("value", ["1e-300", "9e-15"])
def test_cli_tolerance_flag_below_the_eps_floor_is_an_error_report(capsys, value):
    code, out = run_cli(RUNS["valuate_quantum"] + ["--tol", value])
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert payload["diagnostics"][0]["message"] == "eps must be at least 1e-14"
    assert capsys.readouterr().err == ""


def test_cli_invalid_tolerance_flag_in_selftest_is_an_error_report(capsys):
    code, out = run_cli(["selftest", "--tol", "0"])
    assert code == 1
    assert json.loads(out)["status"] == "error"
    assert capsys.readouterr().err == ""


# Two states whose normalised overlap is about 1 - 5e-5: the same ray at
# eps 1e-3, different rays at the default eps.  Both reduce to the same ray
# after Pplus, so the sieve of their equality at (Pz,Pplus) holds on the
# tails of length 1 and 2 at either eps, and on the empty tail only at 1e-3.
NEAR_STATES = """
quantum N {
  dim 2;
  values {1,-1};
  operator A { matrix [[1,0],[0,-1]]; }
  projector Pz { matrix [[1,0],[0,0]]; }
  projector Pplus { matrix [[0.5,0.5],[0.5,0.5]]; }
  state a [1,0];
  state b [1,0.01];
}
"""
NEAR_EQUAL = ["--system", "N", "--state1", "a", "--state2", "b",
              "--mode", "sieve", "--context", "(Pz,Pplus)"]


def _near_equal_report(tmp_path, block: str, *flags) -> dict:
    path = tmp_path / "near.mtd"
    path.write_text(block + NEAR_STATES, encoding="utf-8")
    code, out = run_cli(["equal", str(path)] + NEAR_EQUAL + list(flags))
    assert code == 0
    return json.loads(out)


def test_cli_runs_at_the_file_tolerance(tmp_path):
    from_file = _near_equal_report(tmp_path, "tolerance { eps 1e-3; }")
    from_flag = _near_equal_report(tmp_path, "", "--tol", "1e-3")
    assert from_file == from_flag
    assert from_file["result"]["sieve"]["includedTailLengths"] == [0, 1, 2]
    assert from_file["tolerance"] == {"eps": 1e-3, "null_threshold": 1e-9}
    assert from_file["arguments"]["tol"] == 1e-3
    default = _near_equal_report(tmp_path, "")
    assert default["result"]["sieve"]["includedTailLengths"] == [1, 2]
    assert default["tolerance"] == {"eps": 1e-9, "null_threshold": 1e-9}


def test_cli_tolerance_flag_takes_precedence_over_the_file(tmp_path):
    report = _near_equal_report(tmp_path, "tolerance { eps 1e-3; null 1e-6; }",
                                "--tol", "1e-9")
    assert report["result"]["sieve"]["includedTailLengths"] == [1, 2]
    # the field the flag leaves alone still comes from the file
    assert report["tolerance"] == {"eps": 1e-9, "null_threshold": 1e-6}
    report = _near_equal_report(tmp_path, "tolerance { eps 1e-3; null 1e-6; }",
                                "--null-threshold", "1e-8")
    assert report["tolerance"] == {"eps": 1e-3, "null_threshold": 1e-8}


def test_cli_query_entry_cannot_change_the_tolerance(tmp_path):
    path = fixture_with(tmp_path, "query loose { run parse; tol 1e-3; }")
    code, out = run_cli(["query", path, "loose"])
    assert code == 1
    assert json.loads(out)["diagnostics"][0]["message"] == (
        "query 'loose' sets a tolerance; set it in the file's tolerance block "
        "or on the command line")


@pytest.mark.parametrize("declaration,diagnostic", [
    ("monoid Bad { elements 1.2.3; table [[0]]; }",
     {"line": 22, "col": 23, "message": "malformed number '1.2.3'"}),
    ("monoid Bad { elements 1e400; table [[0]]; }",
     {"line": 22, "col": 23, "message": "element count must be an integer"}),
    ("tolerance { null 1e400; }",
     {"line": 22, "col": 1, "message": "tolerances must be finite"}),
    ("tolerance { eps 1e-300; }",
     {"line": 22, "col": 1, "message": "eps must be at least 1e-14"}),
    ("quantum Bad { dim 0; values {0,1}; }",
     {"line": 22, "col": 1, "message": "dimension must be positive, got 0"}),
    ("quantum Bad { dim -1; values {0,1}; }",
     {"line": 22, "col": 1, "message": "dimension must be positive, got -1"}),
])
def test_cli_parse_reports_numbers_it_cannot_use(tmp_path, capsys, declaration, diagnostic):
    code, out = run_cli(["parse", fixture_with(tmp_path, declaration)])
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert payload["diagnostics"] == [diagnostic]
    assert capsys.readouterr().err == ""


def test_cli_check_arrow_on_five_values_and_two_states_agrees(tmp_path, capsys):
    # the map monoid on 5 values has 3,125 elements and 5 generators, so the
    # law check of the 800-point proposition M-set takes 5 · 3,125 · 800 steps
    path = fixture_with(tmp_path, "classical F { values {0,1,2,3,4}; states (s0,s1); "
                                  "quantity A [0,4]; }")
    code, out = run_cli(["valuate-classical", path, "--system", "F", "--state", "s1",
                         "--quantity", "A", "--range", "{0}", "--check-arrow"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["routes_agree"] is True
    # A is 4 at s1, so the ideal holds the 5^4 maps that send 4 to 0
    assert result["arrow_ideal"] == result["ideal"]
    assert result["ideal"]["member_count"] == 625
    assert capsys.readouterr().err == ""


def test_cli_check_arrow_on_five_values_ends_in_the_action_budget(tmp_path, capsys):
    # with three states the proposition M-set has 4,000 points, and its law check
    # would take 5 · 3,125 · 4,000 steps, past ACTION_CHECK_BUDGET
    path = fixture_with(tmp_path, "classical F { values {0,1,2,3,4}; states (s0,s1,s2); "
                                  "quantity A [0,4,2]; }")
    code, out = run_cli(["valuate-classical", path, "--system", "F", "--state", "s0",
                         "--quantity", "A", "--range", "{0}", "--check-arrow"])
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert payload["diagnostics"] == [
        {"line": 0, "col": 0, "message": "action-law validation would exceed its budget"}]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("states", [4, 5])
def test_cli_check_arrow_on_five_values_and_more_states_ends_in_the_action_budget(
        tmp_path, capsys, states):
    # five states would give 100,000 points and a product table of 3,125 rows;
    # the budget is checked from the sizes before any table is built
    names = ",".join(f"s{i}" for i in range(states))
    values = ",".join(str(i % 5) for i in range(states))
    path = fixture_with(tmp_path, f"classical F {{ values {{0,1,2,3,4}}; states ({names}); "
                                  f"quantity A [{values}]; }}")
    code, out = run_cli(["valuate-classical", path, "--system", "F", "--state", "s0",
                         "--quantity", "A", "--range", "{0}", "--check-arrow"])
    assert code == 1
    assert json.loads(out)["diagnostics"] == [
        {"line": 0, "col": 0, "message": "action-law validation would exceed its budget"}]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("declaration,message", [
    ("classical D { values {0,1}; states (s0,s1); quantity A [0,1]; quantity A [1,1]; }",
     "duplicate quantity name 'A'"),
    ("query twice { run parse; run valuate; }", "duplicate query entry 'run'"),
])
def test_cli_parse_rejects_a_repeated_name_inside_a_declaration(tmp_path, capsys,
                                                                declaration, message):
    code, out = run_cli(["parse", fixture_with(tmp_path, declaration)])
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert payload["diagnostics"] == [{"line": 22, "col": 1, "message": message}]
    assert capsys.readouterr().err == ""


# A second qubit system R beside the fixture's Q, with ray sets and a
# universe of its own.
SECOND_QUBIT = """
quantum R {
  dim 2;
  values {1,-1};
  projector Rx { matrix [[0.5,0.5],[0.5,0.5]]; }
  state g1 [1,0];
  state g2 [0,1];
}
rayset Y { system R; rays (g1,g2); }
rayset Empty { system R; rays (); }
universe W { system R; alphabet (Rx); depth 2; }
"""

EQUAL_CONTEXT = ["equal", "--system", "Q", "--state1", "e1", "--state2", "e2",
                 "--mode", "context"]


@pytest.mark.parametrize("argv,message", [
    (["polar", "--universe", "U", "--rayset", "Y"],
     "ray set 'Y' is over system 'R', but the system of universe 'U' is 'Q'"),
    (["polar", "--universe", "U", "--rayset", "Empty"],
     "ray set 'Empty' is over system 'R', but the system of universe 'U' is 'Q'"),
    (["polar", "--universe", "U", "--strings", "(Pz)", "--candidates", "Y"],
     "ray set 'Y' is over system 'R', but the system of universe 'U' is 'Q'"),
    (["closure", "--universe", "U", "--rayset", "Y", "--candidates", "V"],
     "ray set 'Y' is over system 'R', but the system of universe 'U' is 'Q'"),
    (["closure", "--universe", "U", "--rayset", "Xi", "--candidates", "Y"],
     "ray set 'Y' is over system 'R', but the system of universe 'U' is 'Q'"),
    (EQUAL_CONTEXT + ["--universe", "U", "--rayset", "Y"],
     "ray set 'Y' is over system 'R', but --system is 'Q'"),
    (EQUAL_CONTEXT + ["--universe", "W", "--rayset", "Xi"],
     "ray set 'Xi' is over system 'Q', but the system of universe 'W' is 'R'"),
])
def test_cli_ray_set_of_another_system_is_a_context_error(tmp_path, argv, message):
    path = fixture_with(tmp_path, SECOND_QUBIT)
    code, out = run_cli([argv[0], path] + argv[1:])
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert payload["diagnostics"][0]["message"] == message


def test_cli_ray_set_of_the_universe_system_is_accepted(tmp_path):
    path = fixture_with(tmp_path, SECOND_QUBIT)
    for argv in (["polar", path, "--universe", "W", "--rayset", "Y"],
                 ["closure", path, "--universe", "W", "--rayset", "Y", "--candidates", "Y"],
                 ["equal", path, "--system", "R", "--state1", "g1", "--state2", "g2",
                  "--mode", "context", "--universe", "W", "--rayset", "Y"]):
        code, out = run_cli(argv)
        assert code == 0 and json.loads(out)["status"] == "ok"


def right_zero_file(tmp_path, n: int) -> str:
    """A file declaring RZ: the identity 0 and n - 1 right zeros (a*b = b for
    b != 0), whose left ideals are M and every set of right zeros."""
    rows = ",".join("[" + ",".join(str(b or a) for b in range(n)) + "]" for a in range(n))
    path = tmp_path / "rz.mtd"
    path.write_text(f"monoid RZ {{ elements {n}; table [{rows}]; }}\n", encoding="utf-8")
    return str(path)


def test_cli_verify_heyting_at_32769_ideals(tmp_path, capsys):
    code, out = run_cli(["verify-heyting", right_zero_file(tmp_path, 16), "RZ"])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    result = payload["result"]
    assert result["ideal_count"] == len(result["ideals"]) == 2 ** 15 + 1
    assert result["all_laws_hold"] and all(result["laws"].values())
    # every ideal but the empty one and M misses its negation's right zeros
    assert len(result["excluded_middle_failures"]) == 2 ** 15 - 1
    assert capsys.readouterr().err == ""


def test_cli_verify_heyting_past_the_ideal_cap_is_a_capacity_error(tmp_path, capsys):
    # 2**16 + 1 ideals, one past IDEAL_COUNT_CAP
    code, out = run_cli(["verify-heyting", right_zero_file(tmp_path, 17), "RZ"])
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert payload["diagnostics"] == [
        {"line": 0, "col": 0, "message": "ideal lattice exceeds configured cap"}]
    assert capsys.readouterr().err == ""
