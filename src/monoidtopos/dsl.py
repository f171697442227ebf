"""The system-definition language: lexer, recursive-descent parser,
validation, and a canonical pretty-printer.

The grammar is block-structured and line-friendly:

    tolerance { eps 1e-9; null 1e-9; }
    monoid M2 { elements 2; table [[0,1],[1,1]]; }
    mset Pts { monoid M2; points 2; action [[0,1],[1,1]]; }
    classical C { values {0,1}; states (s0,s1); quantity A [0,1]; }
    quantum Q {
      dim 2; values {1,-1};
      operator A { matrix [[1,0],[0,-1]]; }
      projector Pz { matrix [[1,0],[0,0]]; }
      state psi [1,1];
      density rho [[0.5,0],[0,0.5]];
    }
    rayset Xi { system Q; rays (psi,e1); }
    universe U { system Q; alphabet (Pz,Pplus); depth 3; }
    query q1 { run valuate; system Q; state psi; op A; range {1}; mode ray; }

Numbers use ASCII digits, as in `2`, `-0.5` or `1e-9`.  Complex entries
are written `a`, `a+bi`, or `a-bi`; matrices are row lists of
comma-separated entries; sets use braces; name strings use parentheses with
the leftmost name applied last.  '#' starts a comment.  Parsing never
raises: the result carries either a validated SystemSpec or diagnostics
with line/column positions, also for a malformed number such as `1.2.3`.

The lexer makes one regex match per token, blanks and comments included,
and gives plain ``(kind, text, offset)`` tuples; a line and column are
worked out from the offset, by bisection over the line starts, only for a
diagnostic or a declaration's location.  A bracketed row or matrix of
well-formed numeric entries is one BLOCK token, which ``row`` and
``matrix`` convert in one step with the token path's arithmetic.  A block
of the wrong depth or entry kind, and a block that any other rule meets,
is split back into its tokens, and the token path reads it and names any
error.  A quantum declaration is validated in one stacked pass: its
operators, densities and projectors as one (k, d, d) array with one
eigensolve, its states as one (n, d) array with one norm, and its ray sets
as rows of the states' representatives; the first error is the one that the
members, validated one at a time in the order of the source, would meet.
The resolved projectors are the alphabet letters, and each ray set is built
once.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Optional

import numpy as np

from .classical import ClassicalSystem
from .errors import MissingNameError, MonoidToposError
from .linalg import (DEFAULT_TOL, MAX_DIM, Eigh, Projector, TolerancePolicy, as_matrix, as_vector,
                     raise_first, row_norms, unit_rows)
from .monoid import FiniteMonoid, verify_associativity
from .mset import MSet
from .quantum import QuantumSystem
from .reduction import DensityMatrix, ProjectorAlphabet, densities
from .context import RaySet, StringUniverse


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str

    def to_payload(self) -> dict:
        return {"line": self.line, "col": self.col, "message": self.message}

    def __str__(self):
        return f"{self.line}:{self.col}: {self.message}"


class _DslError(MonoidToposError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(message)
        self.diagnostic = Diagnostic(line, col, message)


# ---------------------------------------------------------------------------
# Lexer

_PUNCT = {"LBRACE": "{", "RBRACE": "}", "LBRACKET": "[", "RBRACKET": "]",
          "LPAREN": "(", "RPAREN": ")", "COMMA": ",", "SEMI": ";",
          "PLUS": "+", "MINUS": "-"}

# One match per token: the blanks and comments before it, then one named
# group per kind, tried in order.  NUMBER takes any run of ASCII digits and
# dots (the parser rejects '1.2.3'); NAME may start with a word character
# that is not a letter, which the lexer then rejects.  BLOCK is a row or a
# matrix of well-formed real or complex entries, blanks allowed: its
# tokens, which _PLAIN gives back, are clean (no lexical error waits inside
# a block) and its shape is the grammar's, so a row can be read by
# splitting at commas.  The patterns are compiled on first use, through
# re's cache, so that an import that never parses does not pay for them.
_B = r"[ \t\r\n]*"
_NUM = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_ENTRY = rf"(?:[+-]{_B})?{_NUM}{_B}(?:i{_B}|[+-]{_B}{_NUM}{_B}i{_B})?"
_ROW = rf"\[{_B}(?:{_ENTRY}(?:,{_B}(?=[+\-.0-9])|(?=\])))*\]"
_KINDS = ([r"(?P<NUMBER>\.?[0-9][0-9.]*(?:[eE][+-]?[0-9]+)?)", r"(?P<NAME>[^\W\d]\w*)"]
          + [f"(?P<{kind}>{re.escape(ch)})" for kind, ch in _PUNCT.items()]
          + [r"(?P<BAD>.)"])
_SKIP = r"(?:[ \t\r\n]|#[^\n]*)*"
_TOKEN = _SKIP + "(?:" + "|".join(
    [rf"(?P<BLOCK>\[{_B}(?:{_ROW}{_B}(?:,{_B}(?=\[)|(?=\])))*\]|{_ROW})"] + _KINDS
    + [r"(?P<EOF>\Z)"]) + ")"
_PLAIN = _SKIP + "(?:" + "|".join(_KINDS) + ")"
_ENTRIES = rf"(?:([+-]){_B})?({_NUM}){_B}(?:(i)|([+-]){_B}({_NUM}){_B}i)?"
_ROWS = r"\[([^][]*)\]"


def _line_starts(text: str) -> list[int]:
    return [0, *accumulate(len(line) + 1 for line in text.split("\n"))]


def _where(starts: list[int], offset: int) -> tuple[int, int]:
    """Line and column, from 1, of a text offset."""
    line = bisect_right(starts, offset)
    return line, offset - starts[line - 1] + 1


def _lex(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` tokens up to and including EOF."""
    tokens = []
    for m in re.compile(_TOKEN).finditer(text):
        kind = m.lastgroup
        at = m.start(kind)
        if kind == "BAD" or (kind == "NAME" and not (text[at].isalpha() or text[at] == "_")):
            raise _DslError(*_where(_line_starts(text), at), f"unexpected character {text[at]!r}")
        tokens.append((kind, m[kind], at))
        if kind == "EOF":
            return tokens


def _split(text: str, block: tuple[str, str, int]) -> list[tuple[str, str, int]]:
    """A BLOCK token as the tokens it is made of, at their offsets."""
    _, lexeme, at = block
    return [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
            for m in re.compile(_PLAIN).finditer(text, at, at + len(lexeme))]


# Bulk twins of ``number``, ``integer`` and ``complex_entry`` on the text of
# one BLOCK row; ValueError leaves the block to the token path, which names
# the error.  float() of a signed literal is the token path's sign * float()
# bit for bit; it refuses an 'i', a blank after a sign and an empty row.
def _numbers(row: str) -> tuple[float, ...]:
    return tuple(map(float, row.split(",")))


def _integers(row: str) -> tuple[int, ...]:
    values = _numbers(row)
    if not all(value.is_integer() for value in values):
        raise ValueError
    return tuple(map(int, values))


def _complexes(row: str) -> tuple[complex, ...]:
    if "i" not in row:
        return tuple(complex(value, 0.0) for value in _numbers(row))
    return tuple([complex(0.0, float(sign + digits)) if i else
                  complex(float(sign + digits), float(sign2 + digits2) if sign2 else 0.0)
                  for sign, digits, i, sign2, digits2 in re.findall(_ENTRIES, row)])


# ---------------------------------------------------------------------------
# Raw declarations (location excluded from comparisons for round-trips)


@dataclass(frozen=True)
class ToleranceDecl:
    eps: Optional[float]
    null: Optional[float]
    loc: Diagnostic = field(compare=False, repr=False, default=Diagnostic(0, 0, ""))


@dataclass(frozen=True)
class MonoidDecl:
    name: str
    elements: int
    table: tuple[tuple[int, ...], ...]
    loc: Diagnostic = field(compare=False, repr=False, default=Diagnostic(0, 0, ""))


@dataclass(frozen=True)
class MSetDecl:
    name: str
    monoid: str
    points: int
    action: tuple[tuple[int, ...], ...]
    loc: Diagnostic = field(compare=False, repr=False, default=Diagnostic(0, 0, ""))


@dataclass(frozen=True)
class QuantityDecl:
    name: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class ClassicalDecl:
    name: str
    values: tuple[float, ...]
    states: tuple[str, ...]
    quantities: tuple[QuantityDecl, ...]
    loc: Diagnostic = field(compare=False, repr=False, default=Diagnostic(0, 0, ""))


@dataclass(frozen=True)
class MatrixMemberDecl:
    kind: str               # operator | projector | density
    name: str
    matrix: tuple[tuple[complex, ...], ...]


@dataclass(frozen=True)
class StateMemberDecl:
    name: str
    vector: tuple[complex, ...]


@dataclass(frozen=True)
class QuantumDecl:
    name: str
    dim: int
    values: Optional[tuple[float, ...]]
    members: tuple
    loc: Diagnostic = field(compare=False, repr=False, default=Diagnostic(0, 0, ""))


@dataclass(frozen=True)
class RaySetDecl:
    name: str
    system: str
    rays: tuple[str, ...]
    loc: Diagnostic = field(compare=False, repr=False, default=Diagnostic(0, 0, ""))


@dataclass(frozen=True)
class UniverseDecl:
    name: str
    system: str
    alphabet: tuple[str, ...]
    depth: int
    loc: Diagnostic = field(compare=False, repr=False, default=Diagnostic(0, 0, ""))


@dataclass(frozen=True)
class QueryDecl:
    name: str
    entries: tuple[tuple[str, str], ...]
    loc: Diagnostic = field(compare=False, repr=False, default=Diagnostic(0, 0, ""))


class _Parser:
    """Recursive descent over the token list.  Three rules carry the shapes
    the grammar repeats: ``seq`` for comma lists in ``{}``, ``[]`` and ``()``,
    ``header`` and ``close`` for ``keyword NAME { … }``, ``field`` for ``word value;``.
    ``row`` and ``matrix`` take a BLOCK in one step; any other rule, or a
    block they cannot take, sees it split back into its tokens."""

    def __init__(self, tokens: list[tuple[str, str, int]], text: str):
        self.tokens = tokens
        self.text = text
        self.pos = 0

    @cached_property
    def starts(self) -> list[int]:
        return _line_starts(self.text)

    def error(self, tok: tuple[str, str, int], message: str) -> _DslError:
        return _DslError(*_where(self.starts, tok[2]), message)

    def peek(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] == "BLOCK":
            self.tokens[self.pos:self.pos + 1] = _split(self.text, tok)
            tok = self.tokens[self.pos]
        return tok

    def advance(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise self.error(tok, f"expected {what}, found {tok[1] or 'end of input'!r}")
        return self.advance()

    def name(self, what: str) -> str:
        return self.expect("NAME", what)[1]

    def keyword(self, word: str) -> tuple[str, str, int]:
        tok = self.expect("NAME", word)
        if tok[1] != word:
            raise self.error(tok, f"expected {word!r}, found {tok[1]!r}")
        return tok

    # -- the shared rules --------------------------------------------------

    def seq(self, opener: str, item) -> tuple:
        """``opener item, … closer``, possibly empty; RBRACE closes LBRACE."""
        closer = "R" + opener[1:]
        self.expect(opener, repr(_PUNCT[opener]))
        items = []
        if self.peek()[0] != closer:
            items.append(item())
            while self.peek()[0] == "COMMA":
                self.advance()
                items.append(item())
        self.expect(closer, repr(_PUNCT[closer]))
        return tuple(items)

    def header(self, keyword: str, what: Optional[str]) -> tuple[Diagnostic, Optional[str]]:
        """``keyword NAME {`` (``keyword {`` if ``what`` is None): location and name."""
        tok = self.keyword(keyword)
        name = self.name(what) if what else None
        self.expect("LBRACE", "'{'")
        return Diagnostic(*_where(self.starts, tok[2]), ""), name

    def close(self) -> None:
        self.expect("RBRACE", "'}'")

    def field(self, word: str, value):
        """``word value;``, giving the value."""
        self.keyword(word)
        result = value()
        self.expect("SEMI", "';'")
        return result

    def entry(self, what: str, words, block: str) -> str:
        """The keyword, one of ``words``, that starts the next entry of a block."""
        tok = self.peek()
        if tok[1] not in words:
            self.expect("NAME", what)
            raise self.error(tok, f"unknown {block} {tok[1]!r}")
        return tok[1]

    # -- values ------------------------------------------------------------

    def unsigned(self) -> float:
        tok = self.expect("NUMBER", "a number")
        try:
            return float(tok[1])
        except ValueError:
            raise self.error(tok, f"malformed number {tok[1]!r}") from None

    def number(self) -> float:
        sign = 1.0
        if self.peek()[0] in ("PLUS", "MINUS"):
            sign = -1.0 if self.advance()[0] == "MINUS" else 1.0
        return sign * self.unsigned()

    def integer(self, what: str) -> int:
        tok = self.peek()
        value = self.number()
        if not value.is_integer():
            raise self.error(tok, f"{what} must be an integer")
        return int(value)

    def complex_entry(self) -> complex:
        real = self.number()
        if self.peek()[:2] == ("NAME", "i"):
            self.advance()
            return complex(0.0, real)
        mark = self.pos
        if self.advance()[0] in ("PLUS", "MINUS") and self.peek()[0] == "NUMBER":
            sign = -1.0 if self.tokens[mark][0] == "MINUS" else 1.0
            imag = self.unsigned()
            self.keyword("i")
            return complex(real, sign * imag)
        self.pos = mark
        return complex(real, 0.0)

    def number_set(self) -> tuple[float, ...]:
        return self.seq("LBRACE", self.number)

    def name_group(self) -> tuple[str, ...]:
        return self.seq("LPAREN", lambda: self.name("a name"))

    def bulk(self, convert, depth: int) -> Optional[tuple]:
        """A BLOCK of ``depth`` bracket levels (1 row, 2 matrix) with each row
        converted, or None, for the token path, when the next token is no such
        block or ``convert`` refuses a row."""
        kind, lexeme, _ = self.tokens[self.pos]
        if kind != "BLOCK" or ("[" in lexeme[1:]) != (depth == 2):
            return None
        try:
            rows = tuple([convert(row) for row in re.findall(_ROWS, lexeme)])
        except ValueError:
            return None
        self.pos += 1
        return rows if depth == 2 else rows[0]

    def row(self, entry, convert) -> tuple:
        values = self.bulk(convert, 1)
        return self.seq("LBRACKET", entry) if values is None else values

    def matrix(self, entry, convert) -> tuple[tuple, ...]:
        rows = self.bulk(convert, 2)
        return self.seq("LBRACKET", lambda: self.row(entry, convert)) if rows is None else rows

    # -- declarations ------------------------------------------------------

    def parse_spec(self) -> list:
        decls = []
        while self.peek()[0] != "EOF":
            decls.append(self.declaration())
        return decls

    def declaration(self):
        """One declaration, parsed by the ``<keyword>_decl`` method."""
        tok = self.peek()
        rule = getattr(self, f"{tok[1]}_decl", None) if tok[0] == "NAME" else None
        if rule is None:
            raise self.error(tok, "expected a declaration keyword, "
                             f"found {tok[1] or 'end of input'!r}")
        return rule()

    def tolerance_decl(self):
        loc, _ = self.header("tolerance", None)
        given = {"eps": None, "null": None}
        while self.peek()[0] != "RBRACE":
            key = self.entry("'eps' or 'null'", given, "tolerance field")
            given[key] = self.field(key, self.number)
        self.close()
        return ToleranceDecl(given["eps"], given["null"], loc)

    def monoid_decl(self):
        loc, name = self.header("monoid", "a monoid name")
        elements = self.field("elements", lambda: self.integer("element count"))
        table = self.field("table", lambda: self.matrix(
            lambda: self.integer("table entry"), _integers))
        self.close()
        return MonoidDecl(name, elements, table, loc)

    def mset_decl(self):
        loc, name = self.header("mset", "an mset name")
        monoid = self.field("monoid", lambda: self.name("a monoid name"))
        points = self.field("points", lambda: self.integer("point count"))
        action = self.field("action", lambda: self.matrix(
            lambda: self.integer("action entry"), _integers))
        self.close()
        return MSetDecl(name, monoid, points, action, loc)

    def classical_decl(self):
        loc, name = self.header("classical", "a system name")
        values = self.field("values", self.number_set)
        states = self.field("states", self.name_group)
        quantities = []
        while self.peek()[0] != "RBRACE":
            quantities.append(self.field("quantity", lambda: QuantityDecl(
                self.name("a quantity name"), self.row(self.number, _numbers))))
        self.close()
        return ClassicalDecl(name, values, states, tuple(quantities), loc)

    def quantum_decl(self):
        loc, name = self.header("quantum", "a system name")
        dim = self.field("dim", lambda: self.integer("dimension"))
        values = None
        members = []
        while self.peek()[0] != "RBRACE":
            key = self.entry("a member keyword", ("values", "operator", "projector", "state",
                                                  "density"), "quantum member")
            if key == "values":
                values = self.field("values", self.number_set)
            elif key == "state":
                members.append(self.field("state", lambda: StateMemberDecl(
                    self.name("a name"), self.row(self.complex_entry, _complexes))))
            elif key == "density":
                members.append(self.field("density", lambda: MatrixMemberDecl(
                    "density", self.name("a name"), self.matrix(self.complex_entry, _complexes))))
            else:
                _, mname = self.header(key, "a name")
                members.append(MatrixMemberDecl(key, mname, self.field(
                    "matrix", lambda: self.matrix(self.complex_entry, _complexes))))
                self.close()
        self.close()
        return QuantumDecl(name, dim, values, tuple(members), loc)

    def rayset_decl(self):
        loc, name = self.header("rayset", "a rayset name")
        system = self.field("system", lambda: self.name("a system name"))
        rays = self.field("rays", self.name_group)
        self.close()
        return RaySetDecl(name, system, rays, loc)

    def universe_decl(self):
        loc, name = self.header("universe", "a universe name")
        system = self.field("system", lambda: self.name("a system name"))
        alphabet = self.field("alphabet", self.name_group)
        depth = self.field("depth", lambda: self.integer("depth"))
        self.close()
        return UniverseDecl(name, system, alphabet, depth, loc)

    def query_decl(self):
        loc, name = self.header("query", "a query name")
        entries = []
        while self.peek()[0] != "RBRACE":
            key = self.name("a query key")
            parts = []
            while self.peek()[0] not in ("SEMI", "EOF"):
                parts.append(self.advance()[1])
            self.expect("SEMI", "';'")
            entries.append((key, "".join(parts)))
        self.close()
        return QueryDecl(name, tuple(entries), loc)


def _parse_whole(text: str, rule):
    text = text.strip()
    parser = _Parser(_lex(text), text)
    value = rule(parser)
    parser.expect("EOF", "end of input")
    return value


def parse_value_set(text: str) -> tuple[float, ...]:
    """A ``{v, …}`` value set written outside a file, such as a CLI flag."""
    return _parse_whole(text, _Parser.number_set)


def parse_name_group(text: str) -> tuple[str, ...]:
    """A ``(name, …)`` group written outside a file, such as a CLI flag."""
    return _parse_whole(text, _Parser.name_group)


# ---------------------------------------------------------------------------
# Resolution and validation


@dataclass
class ResolvedQuantum:
    system: QuantumSystem
    projectors: dict[str, Projector]
    states: dict[str, np.ndarray]
    densities: dict[str, DensityMatrix]
    units: np.ndarray   # the states' ray representatives, one row each in order

    def state(self, name: str):
        if name in self.states:
            return self.states[name]
        raise MissingNameError(f"unknown state {name!r}")

    def rayset(self, names: Iterable[str], tol: TolerancePolicy) -> RaySet:
        """The ray set of the named states, on their representatives."""
        rows = {name: i for i, name in enumerate(self.states)}   # self.state names the unknown
        return RaySet.of_units(self.units[[rows[n] if n in rows else self.state(n)
                                           for n in names]], tol)


class SystemSpec:
    """All declarations of a source file, resolved and validated."""

    def __init__(self, decls: list, tolerance: TolerancePolicy):
        self.decls = list(decls)
        self.tolerance = tolerance
        self.monoids: dict[str, FiniteMonoid] = {}
        self.msets: dict[str, MSet] = {}
        self.classical: dict[str, ClassicalSystem] = {}
        self.quantum: dict[str, ResolvedQuantum] = {}
        self.raysets: dict[str, tuple[str, RaySet]] = {}
        self.universes: dict[str, UniverseDecl] = {}
        self.queries: dict[str, dict[str, str]] = {}
        self._alphabets: dict[tuple, ProjectorAlphabet] = {}

    def lookup(self, table: dict, name: str, what: str):
        if name not in table:
            raise MissingNameError(f"unknown {what} {name!r}")
        return table[name]

    def alphabet_for(self, system: str, letters: tuple[str, ...]) -> ProjectorAlphabet:
        key = (system, letters)
        if key not in self._alphabets:
            rq = self.lookup(self.quantum, system, "quantum system")
            mats = [(name, self.lookup(rq.projectors, name, "projector")) for name in letters]
            self._alphabets[key] = ProjectorAlphabet(mats, self.tolerance)
        return self._alphabets[key]

    def universe(self, name: str) -> StringUniverse:
        decl = self.lookup(self.universes, name, "universe")
        alphabet = self.alphabet_for(decl.system, decl.alphabet)
        return StringUniverse(alphabet, decl.depth)

    def rayset(self, name: str) -> tuple[str, RaySet]:
        """The owning system and the ray set built when the file was validated."""
        return self.lookup(self.raysets, name, "rayset")


@dataclass
class ParseResult:
    spec: Optional[SystemSpec]
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.spec is not None and not self.diagnostics


def parse_spec(text: str, eps: Optional[float] = None,
               null_threshold: Optional[float] = None) -> ParseResult:
    """Parse and validate a source text; never raises.  An eps or null
    threshold given here takes precedence over the file's tolerance block,
    which takes precedence over the default; the whole file is resolved at
    the one tolerance that results."""
    try:
        decls = _Parser(_lex(text), text).parse_spec()
    except _DslError as exc:
        return ParseResult(None, [exc.diagnostic])
    except RecursionError:
        return ParseResult(None, [Diagnostic(1, 1, "input too deeply nested")])
    diagnostics: list[Diagnostic] = []
    spec = _resolve(decls, diagnostics, eps, null_threshold)
    if diagnostics:
        return ParseResult(None, diagnostics)
    return ParseResult(spec, [])


def _resolve(decls: list, diagnostics: list[Diagnostic], eps: Optional[float],
             null: Optional[float]) -> Optional[SystemSpec]:
    # Each field comes from the argument, else the last tolerance block
    # that sets it, else the default; a bad value is reported where it came from.
    picked = {}
    for key, attr, given in (("eps", "eps", eps), ("null_threshold", "null", null)):
        blocks = [d for d in decls if isinstance(d, ToleranceDecl) and getattr(d, attr) is not None]
        if given is None and blocks:
            picked[key] = (getattr(blocks[-1], attr), blocks[-1].loc)
        else:
            picked[key] = (getattr(DEFAULT_TOL, key) if given is None else given,
                           Diagnostic(1, 1, ""))
    try:
        for key, (value, loc) in picked.items():
            TolerancePolicy(**{key: value})
    except MonoidToposError as exc:
        diagnostics.append(Diagnostic(loc.line, loc.col, str(exc)))
        return None
    tolerance = TolerancePolicy(picked["eps"][0], picked["null_threshold"][0])

    spec = SystemSpec(decls, tolerance)

    def fail(decl, message):
        diagnostics.append(Diagnostic(decl.loc.line, decl.loc.col, message))

    names_seen: set[str] = set()
    for d in decls:
        if isinstance(d, ToleranceDecl):
            continue
        if d.name in names_seen:
            fail(d, f"duplicate declaration name {d.name!r}")
            continue
        names_seen.add(d.name)
        try:
            if isinstance(d, MonoidDecl):
                if len(d.table) != d.elements:
                    raise MonoidToposError(
                        f"table has {len(d.table)} rows for {d.elements} elements")
                m = FiniteMonoid(d.table)
                if not verify_associativity(m):
                    raise MonoidToposError("multiplication table is not associative")
                spec.monoids[d.name] = m
            elif isinstance(d, MSetDecl):
                mon = spec.lookup(spec.monoids, d.monoid, "monoid")
                if len(d.action) != mon.size or any(len(r) != d.points for r in d.action):
                    raise MonoidToposError("action table must be elements x points")
                spec.msets[d.name] = MSet(mon, range(d.points), d.action)
            elif isinstance(d, ClassicalDecl):
                _require_distinct((q.name for q in d.quantities), "quantity name")
                spec.classical[d.name] = ClassicalSystem(
                    d.states, d.values, {q.name: q.values for q in d.quantities})
            elif isinstance(d, QuantumDecl):
                spec.quantum[d.name] = _resolve_quantum(d, tolerance)
            elif isinstance(d, RaySetDecl):
                rq = spec.lookup(spec.quantum, d.system, "quantum system")
                spec.raysets[d.name] = (d.system, rq.rayset(d.rays, tolerance))
            elif isinstance(d, UniverseDecl):
                spec.alphabet_for(d.system, d.alphabet)
                if d.depth < 0:
                    raise MonoidToposError("depth must be non-negative")
                spec.universes[d.name] = d
            elif isinstance(d, QueryDecl):
                _require_distinct((key for key, _ in d.entries), "query entry")
                spec.queries[d.name] = dict(d.entries)
            else:
                fail(d, "unknown declaration type")
        except MonoidToposError as exc:
            fail(d, str(exc))
    return spec


def _require_distinct(names: Iterable[str], what: str):
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise MonoidToposError(f"duplicate {what} {name!r}")
        seen.add(name)


def _infer_values(ops: list, tol: TolerancePolicy) -> tuple[float, ...]:
    found: list[float] = []
    for op in ops:
        for lam in op.eigenvalues:
            snapped = round(lam, 9)
            if not any(abs(snapped - v) <= tol.eps for v in found):
                found.append(snapped)
    return tuple(sorted(found))


def _arrays(entries: list, shape: tuple[int, ...], one) -> tuple[np.ndarray, dict]:
    """The well-formed entries as one complex array of the shape, and the
    error of each other entry by its index: one conversion for all when every
    entry is well formed, else ``one`` for each."""
    try:
        a = np.array(entries, dtype=complex) if entries else np.zeros((0,) + shape, complex)
        if a.shape[1:] == shape and shape[0] <= MAX_DIM and np.isfinite(a.view(float)).all():
            return a, {}
    except (TypeError, ValueError):
        pass
    good, errors = [], {}
    for i, e in enumerate(entries):
        try:
            good.append(one(e))
        except MonoidToposError as exc:
            errors[i] = exc
    return np.array(good).reshape((-1,) + shape), errors


def _resolve_quantum(d: QuantumDecl, tol: TolerancePolicy) -> ResolvedQuantum:
    """One pass over the declaration: its matrices are validated as one stack
    (operators, densities, projectors) with one eigensolve, its states as one
    array with one norm.  The first error is the one the members met one by
    one would raise: the operators' shapes, their spectra (inferring the value
    set, then snapping to it), then each other member in the order declared."""
    if d.dim < 1:
        raise MonoidToposError(f"dimension must be positive, got {d.dim}")
    _require_distinct((m.name for m in d.members), "member name")
    kinds: dict[str, list] = {"operator": [], "density": [], "projector": []}
    for m in d.members:
        if isinstance(m, MatrixMemberDecl):
            kinds[m.kind].append(m)
    mats = kinds["operator"] + kinds["density"] + kinds["projector"]
    states = [m for m in d.members if isinstance(m, StateMemberDecl)]
    stack, errors = _arrays([m.matrix for m in mats], (d.dim, d.dim), lambda e: as_matrix(e, d.dim))
    vectors, state_errors = _arrays([m.vector for m in states], (d.dim,),
                                    lambda e: as_vector(e, d.dim))
    n = len(kinds["operator"])
    raise_first([errors[i] for i in range(n) if i in errors])
    rows = [m for i, m in enumerate(mats) if i not in errors]
    k = n + sum(m.kind == "density" for m in rows)
    eig = Eigh(stack, tol, raw=np.array([m.kind == "projector" for m in rows], dtype=bool))
    values = d.values
    if values is None:
        found = eig.take(slice(0, k)).operators()
        values = _infer_values(raise_first(found[:n]), tol) or (0.0, 1.0)
        found[:n] = eig.take(slice(0, n)).operators(values)
    else:
        found = eig.take(slice(0, k)).operators(values, snapped=slice(0, n))
    system = QuantumSystem(d.dim, values, {m.name: a for m, a in zip(rows, stack[:n])}, tol,
                           spectra=found[:n])
    resolved = dict(zip((m.name for m in rows[n:]), densities(eig.take(slice(n, k)), found[n:])
                        + eig.take(slice(k, None)).projectors()))
    named = [m.name for i, m in enumerate(states) if i not in state_errors]
    problems = {mats[i].name: e for i, e in errors.items()}
    problems.update((states[i].name, e) for i, e in state_errors.items())
    problems.update((name, e) for name, e in resolved.items() if isinstance(e, MonoidToposError))
    norms = row_norms(vectors)
    problems.update((name, MonoidToposError(f"state {name!r} is null"))
                    for name, norm in zip(named, norms.tolist()) if norm <= tol.null_threshold)
    raise_first([problems[m.name] for m in d.members if m.name in problems])
    return ResolvedQuantum(system, {m.name: resolved[m.name] for m in kinds["projector"]},
                           dict(zip(named, vectors)),
                           {m.name: resolved[m.name] for m in kinds["density"]},
                           unit_rows(vectors, tol, norms))


# ---------------------------------------------------------------------------
# Pretty-printing (canonical form; reparsing gives equal declarations)


def _fmt_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def _fmt_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    if im == 0.0:
        return _fmt_number(re)
    sign = "+" if im >= 0 else "-"
    return f"{_fmt_number(re)}{sign}{_fmt_number(abs(im))}i"


def _fmt_matrix(rows, fmt) -> str:
    return "[" + ",".join("[" + ",".join(fmt(x) for x in row) + "]" for row in rows) + "]"


def pretty_print(spec: SystemSpec) -> str:
    """Canonical text for a parsed spec; parse(pretty_print(s)) == s
    declaration by declaration."""
    lines = []
    for d in spec.decls:
        if isinstance(d, ToleranceDecl):
            fields = []
            if d.eps is not None:
                fields.append(f"eps {_fmt_number(d.eps)};")
            if d.null is not None:
                fields.append(f"null {_fmt_number(d.null)};")
            lines.append("tolerance { " + " ".join(fields) + " }")
        elif isinstance(d, MonoidDecl):
            lines.append(f"monoid {d.name} {{ elements {d.elements}; "
                         f"table {_fmt_matrix(d.table, str)}; }}")
        elif isinstance(d, MSetDecl):
            lines.append(f"mset {d.name} {{ monoid {d.monoid}; points {d.points}; "
                         f"action {_fmt_matrix(d.action, str)}; }}")
        elif isinstance(d, ClassicalDecl):
            qparts = "".join(
                f" quantity {q.name} [{','.join(_fmt_number(v) for v in q.values)}];"
                for q in d.quantities)
            lines.append(
                f"classical {d.name} {{ values {{{','.join(_fmt_number(v) for v in d.values)}}}; "
                f"states ({','.join(d.states)});" + qparts + " }")
        elif isinstance(d, QuantumDecl):
            body = [f"  dim {d.dim};"]
            if d.values is not None:
                body.append(f"  values {{{','.join(_fmt_number(v) for v in d.values)}}};")
            for m in d.members:
                if isinstance(m, MatrixMemberDecl) and m.kind in ("operator", "projector"):
                    body.append(f"  {m.kind} {m.name} {{ matrix "
                                f"{_fmt_matrix(m.matrix, _fmt_complex)}; }}")
                elif isinstance(m, MatrixMemberDecl):
                    body.append(f"  density {m.name} {_fmt_matrix(m.matrix, _fmt_complex)};")
                else:
                    body.append(f"  state {m.name} "
                                f"[{','.join(_fmt_complex(z) for z in m.vector)}];")
            lines.append(f"quantum {d.name} {{\n" + "\n".join(body) + "\n}")
        elif isinstance(d, RaySetDecl):
            lines.append(f"rayset {d.name} {{ system {d.system}; "
                         f"rays ({','.join(d.rays)}); }}")
        elif isinstance(d, UniverseDecl):
            lines.append(f"universe {d.name} {{ system {d.system}; "
                         f"alphabet ({','.join(d.alphabet)}); depth {d.depth}; }}")
        elif isinstance(d, QueryDecl):
            entries = " ".join(f"{k} {v};" for k, v in d.entries)
            lines.append(f"query {d.name} {{ {entries} }}")
    return "\n".join(lines) + "\n"
