from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoidtopos.dsl import (Diagnostic, parse_name_group, parse_spec, parse_value_set,
                             pretty_print, _lex, _Parser)
from monoidtopos.errors import MonoidToposError

QUBIT_SRC = """
# comments are skipped
tolerance { eps 1e-9; null 1e-9; }
monoid M2 { elements 2; table [[0,1],[1,1]]; }
mset Pts { monoid M2; points 2; action [[0,1],[1,1]]; }
classical C { values {0,1}; states (s0,s1); quantity A [0,1]; }
quantum Q {
  dim 2;
  values {1,-1};
  operator A { matrix [[1,0],[0,-1]]; }
  projector Pz { matrix [[1,0],[0,0]]; }
  projector Pplus { matrix [[0.5,0.5],[0.5,0.5]]; }
  state psi [1,1];
  state e1 [1,0];
  state e2 [0,1];
  density rho [[0.5,0],[0,0.5]];
}
rayset Xi { system Q; rays (e1,e2); }
universe U { system Q; alphabet (Pz,Pplus); depth 3; }
query q1 { run valuate; system Q; state psi; op A; range {1}; mode ray; }
"""


def test_parse_qubit_file():
    result = parse_spec(QUBIT_SRC)
    assert result.ok
    spec = result.spec
    assert set(spec.monoids) == {"M2"}
    assert set(spec.quantum) == {"Q"}
    assert spec.quantum["Q"].system.dim == 2
    assert set(spec.quantum["Q"].states) == {"psi", "e1", "e2"}
    assert spec.queries["q1"]["run"] == "valuate"
    assert spec.tolerance.eps == 1e-9


def test_complex_literal_forms():
    src = "quantum Q { dim 2; values {0,1}; state s [1+2i, 0.5-1i]; state t [2i, 3]; }"
    result = parse_spec(src)
    assert result.ok
    states = result.spec.quantum["Q"].states
    assert np.allclose(states["s"], [1 + 2j, 0.5 - 1j])
    assert np.allclose(states["t"], [2j, 3.0])


def test_round_trip_structural_identity():
    first = parse_spec(QUBIT_SRC)
    text = pretty_print(first.spec)
    second = parse_spec(text)
    assert second.ok
    assert first.spec.decls == second.spec.decls
    # and the pretty form is a fixed point
    assert pretty_print(second.spec) == text


def test_lexical_error_located():
    result = parse_spec("monoid M { elements 1; table [[0]]; } $")
    assert not result.ok
    assert result.diagnostics[0].message.startswith("unexpected character")
    assert result.diagnostics[0].col == 39


def test_syntax_error_located():
    result = parse_spec("monoid M {\n  elements 2\n  table [[0,1],[1,0]];\n}")
    assert not result.ok
    d = result.diagnostics[0]
    assert d.line == 3 and "';'" in d.message


def test_unresolved_reference():
    result = parse_spec("mset X { monoid NOPE; points 1; action [[0]]; }")
    assert not result.ok
    assert "unknown monoid" in result.diagnostics[0].message


def test_invariant_violations_are_diagnostics():
    bad_projector = "quantum Q { dim 2; projector P { matrix [[1,1],[0,0]]; } }"
    result = parse_spec(bad_projector)
    assert not result.ok and "Hermitian" in result.diagnostics[0].message

    non_assoc = "monoid M { elements 3; table [[0,1,2],[1,2,2],[2,2,1]]; }"
    result = parse_spec(non_assoc)
    assert not result.ok and "associative" in result.diagnostics[0].message

    bad_action = "monoid M { elements 2; table [[0,1],[1,1]]; }\n" \
                 "mset X { monoid M; points 2; action [[0,1],[1,0]]; }"
    result = parse_spec(bad_action)
    assert not result.ok and "action law" in result.diagnostics[0].message


def test_repeated_universe_letters_are_a_diagnostic_at_the_universe():
    src = QUBIT_SRC + "universe W { system Q; alphabet (Pz,Pz); depth 2; }\n"
    line = src.count("\n", 0, src.index("universe W")) + 1
    result = parse_spec(src)
    assert [(d.line, d.col, d.message) for d in result.diagnostics] == [
        (line, 1, "alphabet letters must be distinct")]


@pytest.mark.parametrize("members", [
    "operator A { matrix [[1,0],[0,-1]]; } operator A { matrix [[0,1],[1,0]]; }",
    "operator A { matrix [[1,0],[0,-1]]; } state A [1,0];",
    "projector P { matrix [[1,0],[0,0]]; } density P [[1,0],[0,0]];",
])
def test_repeated_member_names_are_a_diagnostic(members):
    result = parse_spec("quantum Q { dim 2; values {1,-1}; " + members + " }")
    assert [(d.line, d.col, d.message) for d in result.diagnostics] == [
        (1, 1, f"duplicate member name {members.split()[1]!r}")]


@pytest.mark.parametrize("source,message", [
    ("classical C { values {0,1}; states (s0,s1); quantity A [0,1]; quantity A [1,1]; }",
     "duplicate quantity name 'A'"),
    ("query q { run parse; run valuate; }", "duplicate query entry 'run'"),
    ("query q { system S; run parse; system T; }", "duplicate query entry 'system'"),
])
def test_repeated_quantities_and_query_entries_are_a_diagnostic(source, message):
    result = parse_spec("\n" + source)
    assert result.spec is None
    assert [(d.line, d.col, d.message) for d in result.diagnostics] == [(2, 1, message)]


def test_duplicate_names_rejected():
    result = parse_spec("monoid M { elements 1; table [[0]]; }\n"
                        "monoid M { elements 1; table [[0]]; }")
    assert not result.ok
    assert "duplicate" in result.diagnostics[0].message


def test_parse_never_raises_on_garbage():
    for text in ("", "}{", "monoid", "quantum Q { dim 2; state s [", "][",
                 "\x00\x01", "monoid M { elements 2; }", "123 456"):
        result = parse_spec(text)
        assert result.spec is None or result.ok or result.diagnostics


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=80))
def test_parse_total_on_arbitrary_text(text):
    result = parse_spec(text)
    assert isinstance(result.diagnostics, list)


@settings(max_examples=40, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, width=32),
       st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_complex_literal_round_trip(re, im):
    from monoidtopos.dsl import _fmt_complex

    z = complex(re, im)
    text = _fmt_complex(z)
    parser = _Parser(_lex(text), text)
    back = parser.complex_entry()
    assert back == z


def test_values_inferred_when_omitted():
    src = "quantum Q { dim 2; operator A { matrix [[1,0],[0,-1]]; } }"
    result = parse_spec(src)
    assert result.ok
    assert result.spec.quantum["Q"].system.values == (-1.0, 1.0)


def test_tolerance_given_to_the_parser_takes_precedence_over_the_file():
    src = "tolerance { eps 1e-3; null 1e-6; }\nmonoid M { elements 1; table [[0]]; }"
    spec = parse_spec(src).spec
    assert (spec.tolerance.eps, spec.tolerance.null_threshold) == (1e-3, 1e-6)
    spec = parse_spec(src, eps=1e-9).spec
    assert (spec.tolerance.eps, spec.tolerance.null_threshold) == (1e-9, 1e-6)
    spec = parse_spec("monoid M { elements 1; table [[0]]; }", null_threshold=1e-5).spec
    assert (spec.tolerance.eps, spec.tolerance.null_threshold) == (1e-9, 1e-5)


def test_invalid_tolerance_given_to_the_parser_is_a_diagnostic():
    result = parse_spec("monoid M { elements 1; table [[0]]; }", eps=0.0)
    assert result.spec is None
    assert [(d.line, d.col, d.message) for d in result.diagnostics] == [
        (1, 1, "tolerances must be positive")]


@pytest.mark.parametrize("src,expected", [
    ("monoid M { elements 1.2.3; table [[0]]; }", (1, 21, "malformed number '1.2.3'")),
    ("monoid M { elements 1..5; table [[0]]; }", (1, 21, "malformed number '1..5'")),
    ("monoid M { elements -1.2.3; table [[0]]; }", (1, 22, "malformed number '1.2.3'")),
    ("quantum Q { dim 2; state s [1+2.3.4i, 0]; }", (1, 31, "malformed number '2.3.4'")),
    # Digits are ASCII: '²' passes str.isdigit but not float.
    ("monoid M { elements ²; table [[0]]; }", (1, 21, "unexpected character '²'")),
    ("monoid M { elements ٣; table [[0]]; }", (1, 21, "unexpected character '٣'")),
    # 1e400 reads as inf, which is not an integer.
    ("monoid M { elements 1e400; table [[0]]; }", (1, 21, "element count must be an integer")),
    ("monoid M { elements 1; table [[1e400]]; }", (1, 32, "table entry must be an integer")),
])
def test_malformed_numbers_are_diagnostics(src, expected):
    result = parse_spec(src)
    assert result.spec is None
    assert [(d.line, d.col, d.message) for d in result.diagnostics] == [expected]


@pytest.mark.parametrize("src,message", [
    ("quantum Q { dim 2; values {1e400}; operator A { matrix [[1,0],[0,-1]]; } }",
     "value set entries must be finite"),
    ("classical C { values {0,-1e400}; states (s); }", "value set entries must be finite"),
    ("tolerance { eps 1e400; }", "tolerances must be finite"),
    ("tolerance { eps 1e-300; }", "eps must be at least 1e-14"),
    ("quantum Q { dim 2; operator A { matrix [[1,0],[0]]; } }",
     "expected a square matrix, got rows of different lengths"),
    ("quantum Q { dim 2; density r [[1,0],[0]]; }",
     "expected a square matrix, got rows of different lengths"),
])
def test_values_the_program_cannot_use_are_diagnostics(src, message):
    result = parse_spec(src)
    assert result.spec is None
    assert [(d.line, d.col, d.message) for d in result.diagnostics] == [(1, 1, message)]


def test_end_of_input_after_a_comment_is_reported_at_the_end_column():
    src = "monoid M { elements 1; table [[0]]; # x"
    result = parse_spec(src)
    assert [(d.line, d.col, d.message) for d in result.diagnostics] == [
        (1, len(src) + 1, "expected '}', found 'end of input'")]


def test_value_sets_and_name_groups_outside_a_file():
    assert parse_value_set(" {1, -2.5} ") == (1.0, -2.5)
    assert parse_value_set("{}") == ()
    assert parse_name_group("(Pz,Pplus)") == ("Pz", "Pplus")
    for text, parse in (("{1} x", parse_value_set), ("{1.2.3}", parse_value_set),
                        ("(a,)", parse_name_group), ("(a) (b)", parse_name_group)):
        with pytest.raises(MonoidToposError):
            parse(text)


def test_each_matrix_declaration_is_validated_with_one_eigensolve(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    text = (Path(__file__).parent / "fixtures" / "qubit.mtd").read_text(encoding="utf-8")
    result = parse_spec(text)
    assert result.ok
    # operator A, projectors Pz, Pminus and Pplus and density rho as one stack
    assert calls == [(5, 2, 2)]
    spec = result.spec
    assert spec.rayset("Xi")[1] is spec.rayset("Xi")[1]
    alphabet = spec.alphabet_for("Q", ("Pz", "Pplus"))
    assert len(calls) == 1
    for name in ("Pz", "Pplus"):
        assert np.array_equal(alphabet.matrix(name), spec.quantum["Q"].projectors[name].matrix)
