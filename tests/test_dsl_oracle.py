"""The lexer and parser that the token-pattern lexer and the shared grammar
rules of ``monoidtopos.dsl`` replace, kept as oracles.

The old lexer scans character by character and the old parser writes out
each list, frame and field by hand.  The new ones must give the same token
stream on text over the language's ASCII characters plus letters, and the
same declarations or the same diagnostic on mutated copies of the CLI
fixture.  Two differences are intended: end of input after a trailing
comment is now reported at the end column (the old lexer reported the
comment's '#' column), and a malformed number such as '1.2.3' or '1e400'
where an integer is wanted is now a diagnostic (the old parser raised
ValueError or OverflowError).
"""

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoidtopos.dsl import (ClassicalDecl, MatrixMemberDecl, MonoidDecl, MSetDecl,
                             QuantityDecl, QuantumDecl, QueryDecl, RaySetDecl,
                             StateMemberDecl, ToleranceDecl, UniverseDecl, Diagnostic,
                             _DslError, _lex, _line_starts, _Parser, _split, _where)

FIXTURE = Path(__file__).parent / "fixtures" / "qubit.mtd"

_PUNCT = {"{": "LBRACE", "}": "RBRACE", "[": "LBRACKET", "]": "RBRACKET",
          "(": "LPAREN", ")": "RPAREN", ",": "COMMA", ";": "SEMI",
          "+": "PLUS", "-": "MINUS"}


@dataclass(frozen=True)
class OracleToken:
    kind: str       # NAME | NUMBER | punctuation kind | EOF
    text: str
    line: int
    col: int


def oracle_lex(text: str) -> list[OracleToken]:
    tokens = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _PUNCT:
            tokens.append(OracleToken(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            while i < n and (text[i].isdigit() or text[i] == "."):
                i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            lexeme = text[start:i]
            tokens.append(OracleToken("NUMBER", lexeme, line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            lexeme = text[start:i]
            tokens.append(OracleToken("NAME", lexeme, line, col))
            col += i - start
            continue
        raise _DslError(line, col, f"unexpected character {ch!r}")
    tokens.append(OracleToken("EOF", "", line, col))
    return tokens



class OracleParser:
    def __init__(self, tokens: list[OracleToken]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> OracleToken:
        return self.tokens[self.pos]

    def advance(self) -> OracleToken:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str) -> _DslError:
        tok = self.peek()
        return _DslError(tok.line, tok.col, message)

    def expect(self, kind: str, what: str) -> OracleToken:
        tok = self.peek()
        if tok.kind != kind:
            raise self.error(f"expected {what}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def expect_name(self, word: Optional[str] = None) -> OracleToken:
        tok = self.expect("NAME", word or "a name")
        if word is not None and tok.text != word:
            raise _DslError(tok.line, tok.col, f"expected {word!r}, found {tok.text!r}")
        return tok

    def number(self) -> float:
        sign = 1.0
        if self.peek().kind in ("PLUS", "MINUS"):
            sign = -1.0 if self.advance().kind == "MINUS" else 1.0
        tok = self.expect("NUMBER", "a number")
        return sign * float(tok.text)

    def integer(self, what: str) -> int:
        tok = self.peek()
        value = self.number()
        if value != int(value):
            raise _DslError(tok.line, tok.col, f"{what} must be an integer")
        return int(value)

    def complex_entry(self) -> complex:
        real = self.number()
        if self.peek().kind == "NAME" and self.peek().text == "i":
            self.advance()
            return complex(0.0, real)
        if self.peek().kind in ("PLUS", "MINUS"):
            sign = -1.0 if self.peek().kind == "MINUS" else 1.0
            mark = self.pos
            self.advance()
            if self.peek().kind == "NUMBER":
                imag = float(self.advance().text)
                self.expect_name("i")
                return complex(real, sign * imag)
            self.pos = mark
        return complex(real, 0.0)

    def number_set(self) -> tuple[float, ...]:
        self.expect("LBRACE", "'{'")
        values = []
        if self.peek().kind != "RBRACE":
            values.append(self.number())
            while self.peek().kind == "COMMA":
                self.advance()
                values.append(self.number())
        self.expect("RBRACE", "'}'")
        return tuple(values)

    def name_group(self, opener="LPAREN", closer="RPAREN") -> tuple[str, ...]:
        self.expect(opener, "'('")
        names = []
        if self.peek().kind != closer:
            names.append(self.expect("NAME", "a name").text)
            while self.peek().kind == "COMMA":
                self.advance()
                names.append(self.expect("NAME", "a name").text)
        self.expect(closer, "')'")
        return tuple(names)

    def row(self, entry) -> tuple:
        self.expect("LBRACKET", "'['")
        entries = []
        if self.peek().kind != "RBRACKET":
            entries.append(entry())
            while self.peek().kind == "COMMA":
                self.advance()
                entries.append(entry())
        self.expect("RBRACKET", "']'")
        return tuple(entries)

    def matrix(self, entry) -> tuple[tuple, ...]:
        self.expect("LBRACKET", "'['")
        rows = []
        if self.peek().kind != "RBRACKET":
            rows.append(self.row(entry))
            while self.peek().kind == "COMMA":
                self.advance()
                rows.append(self.row(entry))
        self.expect("RBRACKET", "']'")
        return tuple(rows)

    def semi(self):
        self.expect("SEMI", "';'")

    # -- declarations ------------------------------------------------------

    def parse_spec(self) -> list:
        decls = []
        while self.peek().kind != "EOF":
            decls.append(self.declaration())
        return decls

    def declaration(self):
        tok = self.peek()
        handlers = {
            "tolerance": self.tolerance_decl,
            "monoid": self.monoid_decl,
            "mset": self.mset_decl,
            "classical": self.classical_decl,
            "quantum": self.quantum_decl,
            "rayset": self.rayset_decl,
            "universe": self.universe_decl,
            "query": self.query_decl,
        }
        if tok.kind != "NAME" or tok.text not in handlers:
            raise self.error(
                f"expected a declaration keyword, found {tok.text or 'end of input'!r}")
        return handlers[tok.text]()

    def _loc(self, tok: OracleToken) -> Diagnostic:
        return Diagnostic(tok.line, tok.col, "")

    def tolerance_decl(self):
        tok = self.expect_name("tolerance")
        self.expect("LBRACE", "'{'")
        eps = null = None
        while self.peek().kind != "RBRACE":
            key = self.expect("NAME", "'eps' or 'null'")
            if key.text == "eps":
                eps = self.number()
            elif key.text == "null":
                null = self.number()
            else:
                raise _DslError(key.line, key.col, f"unknown tolerance field {key.text!r}")
            self.semi()
        self.expect("RBRACE", "'}'")
        return ToleranceDecl(eps, null, self._loc(tok))

    def monoid_decl(self):
        tok = self.expect_name("monoid")
        name = self.expect("NAME", "a monoid name").text
        self.expect("LBRACE", "'{'")
        self.expect_name("elements")
        elements = self.integer("element count")
        self.semi()
        self.expect_name("table")
        table = self.matrix(lambda: self.integer("table entry"))
        self.semi()
        self.expect("RBRACE", "'}'")
        return MonoidDecl(name, elements, table, self._loc(tok))

    def mset_decl(self):
        tok = self.expect_name("mset")
        name = self.expect("NAME", "an mset name").text
        self.expect("LBRACE", "'{'")
        self.expect_name("monoid")
        monoid = self.expect("NAME", "a monoid name").text
        self.semi()
        self.expect_name("points")
        points = self.integer("point count")
        self.semi()
        self.expect_name("action")
        action = self.matrix(lambda: self.integer("action entry"))
        self.semi()
        self.expect("RBRACE", "'}'")
        return MSetDecl(name, monoid, points, action, self._loc(tok))

    def classical_decl(self):
        tok = self.expect_name("classical")
        name = self.expect("NAME", "a system name").text
        self.expect("LBRACE", "'{'")
        self.expect_name("values")
        values = self.number_set()
        self.semi()
        self.expect_name("states")
        states = self.name_group()
        self.semi()
        quantities = []
        while self.peek().kind != "RBRACE":
            self.expect_name("quantity")
            qname = self.expect("NAME", "a quantity name").text
            qvals = self.row(self.number)
            self.semi()
            quantities.append(QuantityDecl(qname, qvals))
        self.expect("RBRACE", "'}'")
        return ClassicalDecl(name, values, states, tuple(quantities), self._loc(tok))

    def quantum_decl(self):
        tok = self.expect_name("quantum")
        name = self.expect("NAME", "a system name").text
        self.expect("LBRACE", "'{'")
        self.expect_name("dim")
        dim = self.integer("dimension")
        self.semi()
        values = None
        members = []
        while self.peek().kind != "RBRACE":
            key = self.expect("NAME", "a member keyword")
            if key.text == "values":
                values = self.number_set()
                self.semi()
            elif key.text in ("operator", "projector"):
                mname = self.expect("NAME", "a name").text
                self.expect("LBRACE", "'{'")
                self.expect_name("matrix")
                matrix = self.matrix(self.complex_entry)
                self.semi()
                self.expect("RBRACE", "'}'")
                members.append(MatrixMemberDecl(key.text, mname, matrix))
            elif key.text == "state":
                sname = self.expect("NAME", "a name").text
                vector = self.row(self.complex_entry)
                self.semi()
                members.append(StateMemberDecl(sname, vector))
            elif key.text == "density":
                dname = self.expect("NAME", "a name").text
                matrix = self.matrix(self.complex_entry)
                self.semi()
                members.append(MatrixMemberDecl("density", dname, matrix))
            else:
                raise _DslError(key.line, key.col, f"unknown quantum member {key.text!r}")
        self.expect("RBRACE", "'}'")
        return QuantumDecl(name, dim, values, tuple(members), self._loc(tok))

    def rayset_decl(self):
        tok = self.expect_name("rayset")
        name = self.expect("NAME", "a rayset name").text
        self.expect("LBRACE", "'{'")
        self.expect_name("system")
        system = self.expect("NAME", "a system name").text
        self.semi()
        self.expect_name("rays")
        rays = self.name_group()
        self.semi()
        self.expect("RBRACE", "'}'")
        return RaySetDecl(name, system, rays, self._loc(tok))

    def universe_decl(self):
        tok = self.expect_name("universe")
        name = self.expect("NAME", "a universe name").text
        self.expect("LBRACE", "'{'")
        self.expect_name("system")
        system = self.expect("NAME", "a system name").text
        self.semi()
        self.expect_name("alphabet")
        alphabet = self.name_group()
        self.semi()
        self.expect_name("depth")
        depth = self.integer("depth")
        self.semi()
        self.expect("RBRACE", "'}'")
        return UniverseDecl(name, system, alphabet, depth, self._loc(tok))

    def query_decl(self):
        tok = self.expect_name("query")
        name = self.expect("NAME", "a query name").text
        self.expect("LBRACE", "'{'")
        entries = []
        while self.peek().kind != "RBRACE":
            key = self.expect("NAME", "a query key").text
            parts = []
            while self.peek().kind not in ("SEMI", "EOF"):
                parts.append(self.advance().text)
            self.semi()
            entries.append((key, "".join(parts)))
        self.expect("RBRACE", "'}'")
        return QueryDecl(name, tuple(entries), self._loc(tok))



# ---------------------------------------------------------------------------
# The lexer


def token_path(text: str) -> list[tuple[str, str, int]]:
    """The new lexer's tokens with every BLOCK split back into its tokens."""
    return [t for tok in _lex(text) for t in (_split(text, tok) if tok[0] == "BLOCK" else [tok])]


def lex_outcome(lex, text: str):
    """The (kind, text, line, col) stream, or the diagnostic as (line, col, message).
    The new lexer's blocks are split back and its offsets turned into positions."""
    try:
        if lex is oracle_lex:
            return [(t.kind, t.text, t.line, t.col) for t in lex(text)]
        starts = _line_starts(text)
        return [(kind, lexeme, *_where(starts, at)) for kind, lexeme, at in token_path(text)]
    except _DslError as exc:
        return (exc.diagnostic.line, exc.diagnostic.col, exc.diagnostic.message)


def eof_positions(text: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """Where the oracle and the new lexer put end of input: the oracle at the
    '#' of a comment on the last line, the new lexer at the end column."""
    last = text.rsplit("\n", 1)[-1]
    line = text.count("\n") + 1
    old_col = last.index("#") + 1 if "#" in last else len(last) + 1
    return (line, old_col), (line, len(last) + 1)


DSL_CHARS = "0123456789.eE+-{}[](),;#_ \t\r\nabixyzAQ"
ASCII = "".join(chr(c) for c in range(128))
LETTERS = st.characters(categories=("Lu", "Ll", "Lt", "Lm", "Lo"))


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=st.one_of(st.sampled_from(DSL_CHARS), st.sampled_from(ASCII), LETTERS),
               max_size=60))
def test_lexer_matches_the_oracle(text):
    old, new = lex_outcome(oracle_lex, text), lex_outcome(_lex, text)
    if isinstance(old, list):
        (old_eof, new_eof) = eof_positions(text)
        assert old[-1] == ("EOF", "") + old_eof
        old[-1] = ("EOF", "") + new_eof
    assert new == old


@pytest.mark.parametrize("text,old_col,new_col", [
    ("monoid M { elements 1; table [[0]]; # x", 37, 40),
    ("# only a comment", 1, 17),
    ("a\n  #", 3, 4),
    ("a # b\n", 1, 1),
])
def test_end_of_input_after_a_trailing_comment(text, old_col, new_col):
    assert oracle_lex(text)[-1].col == old_col
    assert _where(_line_starts(text), _lex(text)[-1][2])[1] == new_col


# ---------------------------------------------------------------------------
# The parser, on mutated copies of the CLI fixture


def parse_outcome(lex, parser, text: str):
    """The declarations with their locations, or the diagnostic as (line, col, message)."""
    try:
        tokens = lex(text)
        run = parser(tokens) if parser is OracleParser else parser(tokens, text)
        return [(d, d.loc) for d in run.parse_spec()]
    except _DslError as exc:
        return (exc.diagnostic.line, exc.diagnostic.col, exc.diagnostic.message)


def assert_parses_like_the_oracle(text: str):
    new = parse_outcome(_lex, _Parser, text)
    try:
        old = parse_outcome(oracle_lex, OracleParser, text)
    except (ValueError, OverflowError):
        # The oracle crashed on a malformed number; the new parser names it.
        assert isinstance(new, tuple), text
        assert "malformed number" in new[2] or "must be an integer" in new[2], (text, new)
        return
    old_eof, new_eof = eof_positions(text)
    if isinstance(old, tuple) and old[:2] == old_eof:
        old = new_eof + old[2:]
    assert new == old, text


SOURCE = FIXTURE.read_text(encoding="utf-8")
LINE_STARTS = [0] + [i + 1 for i, ch in enumerate(SOURCE) if ch == "\n"]
SPANS = [(LINE_STARTS[t.line - 1] + t.col - 1, LINE_STARTS[t.line - 1] + t.col - 1 + len(t.text))
         for t in oracle_lex(SOURCE)[:-1]]


def dropped(i):
    (s, e) = SPANS[i]
    return SOURCE[:s] + SOURCE[e:]


def duplicated(i):
    (s, e) = SPANS[i]
    return SOURCE[:e] + " " + SOURCE[s:e] + SOURCE[e:]


def swapped(i):
    (s1, e1), (s2, e2) = SPANS[i], SPANS[i + 1]
    return SOURCE[:s1] + SOURCE[s2:e2] + SOURCE[e1:s2] + SOURCE[s1:e1] + SOURCE[e2:]


def test_the_fixture_parses_like_the_oracle():
    assert_parses_like_the_oracle(SOURCE)
    assert isinstance(parse_outcome(_lex, _Parser, SOURCE), list)


@pytest.mark.parametrize("mutate,count", [(dropped, len(SPANS)), (duplicated, len(SPANS)),
                                          (swapped, len(SPANS) - 1)],
                         ids=["dropped", "duplicated", "swapped"])
def test_a_mutated_token_parses_like_the_oracle(mutate, count):
    for i in range(count):
        assert_parses_like_the_oracle(mutate(i))


def test_an_inserted_character_parses_like_the_oracle():
    rng = random.Random(2027)
    for _ in range(600):
        at = rng.randrange(len(SOURCE) + 1)
        assert_parses_like_the_oracle(SOURCE[:at] + rng.choice(DSL_CHARS) + SOURCE[at:])


# ---------------------------------------------------------------------------
# Numeric blocks: a bracketed row or matrix the lexer hands over as one BLOCK
# token, converted in one step, must read exactly as the token path reads it.

# Well-formed entries, weighted up so that many blocks are read in bulk,
# and entries that the token path rejects.
ATOMS = 4 * ["0", "1", "-2", "+3", "- 4", ".5", "5.", "-0", "+0", "-0.0", "1e3", "2E-2", "1e+2",
             "1e400", "-1e400", "2i", "-2i", "1-0i", "-0-0i", "1+2i", "0.5 - 0.25 i",
             "1e-3+4E2i"] + ["1.2.3", "2.5e", "1+2ij", "2i3", "i", "e5", "1 2", ""]
BLANKS = 6 * [""] + [" ", "\t", "\n", " # note\n"]

entries = st.builds(lambda before, atom, after: before + atom + after,
                    st.sampled_from(BLANKS), st.sampled_from(ATOMS), st.sampled_from(BLANKS))


def bracketed(items, trailing_comma):
    return "[" + ",".join(items) + ("," if trailing_comma else "") + "]"


trailing = st.sampled_from([False, False, False, True])
rows = st.builds(bracketed, st.lists(entries, max_size=4), trailing)
matrices = st.builds(bracketed, st.lists(rows, max_size=3), trailing)
blocks = st.one_of(rows, matrices, st.builds(bracketed, st.lists(matrices, max_size=2), trailing))

# One place for a block in each rule that reads a row or a matrix, and in a query.
BLOCK_SITES = [
    "monoid M {{ elements 2; table {}; }}",
    "mset X {{ monoid M; points 2; action {}; }}",
    "classical C {{ values {{0,1}}; states (s); quantity A {}; }}",
    "quantum Q {{ dim 2; state s {}; }}",
    "quantum Q {{ dim 2; density r {}; }}",
    "quantum Q {{ dim 2; projector P {{ matrix {}; }} }}",
    "query q {{ range {}; }}",
]


def assert_bulk_reads_like_the_token_path(text: str):
    """Same declarations, locations and diagnostics, to the repr: -0.0 and
    the order of entries count."""
    bulk = parse_outcome(_lex, _Parser, text)
    assert repr(bulk) == repr(parse_outcome(token_path, _Parser, text))


@settings(max_examples=300, deadline=None)
@given(blocks, st.sampled_from(BLOCK_SITES))
def test_a_numeric_block_parses_like_the_oracle(block, site):
    text = site.format(block)
    assert_parses_like_the_oracle(text)
    assert_bulk_reads_like_the_token_path(text)


def assert_read_in_bulk(text: str):
    """Every BLOCK of the text is taken in one step, none split back."""
    tokens = _lex(text)
    parser = _Parser(list(tokens), text)
    parser.parse_spec()
    assert [t for t in parser.tokens if t[0] == "BLOCK"] == [t for t in tokens if t[0] == "BLOCK"]


@pytest.mark.parametrize("text", [
    "classical C { values {0,1}; states (s); quantity A [-0, +0, -0.0, 0, - 0]; }",
    "quantum Q { dim 2; state s [-0, -0-0i]; density r [[-0, 0], [-0.0, +0]]; }",
    "quantum Q { dim 2; state s [-0i, 0-0i, -0+0i]; }",
])
def test_signed_zeros_read_alike_in_bulk_and_token_by_token(text):
    assert_read_in_bulk(text.replace(", - 0", ""))
    assert_parses_like_the_oracle(text)
    assert_bulk_reads_like_the_token_path(text)


def scaled_shape(rng: random.Random) -> str:
    """A file of the benchmark's scaled shape: a 14x14 table, dense 4x4
    complex matrices with 12-decimal entries, 12 states; now and then a
    signed zero."""
    def real():
        if rng.random() < 0.05:
            return rng.choice(["-0", "-0.0", "0"])
        return f"{rng.uniform(-3, 3):.12f}"

    def entry():
        im = f"{rng.uniform(-3, 3):.12f}"
        return rng.choice([real(), f"{real()}+{im.lstrip('-')}i", f"{real()}-{im.lstrip('-')}i",
                           f"{im}i"])

    def matrix(n, cell):
        return bracketed(["[" + ",".join(cell() for _ in range(n)) + "]" for _ in range(n)], False)

    table = matrix(14, lambda: str(rng.randrange(14)))
    lines = ["tolerance { eps 1e-9; null 1e-9; }",
             f"monoid Mid {{ elements 14; table {table}; }}",
             f"mset LR {{ monoid Mid; points 14; action {table}; }}",
             "quantum S {", "  dim 4;", f"  operator A {{ matrix {matrix(4, entry)}; }}"]
    lines += [f"  projector P{i} {{ matrix {matrix(4, entry)}; }}" for i in range(3)]
    lines += [f"  state r{i} [{','.join(entry() for _ in range(4))}];" for i in range(12)]
    lines += [f"  density rho {matrix(4, entry)};", "}"]
    return "\n".join(lines) + "\n"


def test_the_scaled_shape_reads_alike_in_bulk_and_token_by_token():
    rng = random.Random(424242)
    for _ in range(5):
        text = scaled_shape(rng)
        assert len([t for t in _lex(text) if t[0] == "BLOCK"]) == 2 + 5 + 12
        assert_read_in_bulk(text)
        assert isinstance(parse_outcome(_lex, _Parser, text), list)
        assert_bulk_reads_like_the_token_path(text)
