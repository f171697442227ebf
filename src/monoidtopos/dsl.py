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

Complex entries are written `a`, `a+bi`, or `a-bi`; matrices are row lists
of comma-separated entries; sets use braces; name strings use parentheses
with the leftmost name applied last.  '#' starts a comment.  Parsing never
raises: the result carries either a validated SystemSpec or diagnostics
with line/column positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .classical import ClassicalSystem
from .errors import MonoidToposError
from .linalg import DEFAULT_TOL, Projector, TolerancePolicy, as_matrix, as_vector
from .monoid import FiniteMonoid, verify_associativity
from .mset import MSet
from .quantum import QuantumSystem
from .reduction import DensityMatrix, ProjectorAlphabet
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

_PUNCT = {"{": "LBRACE", "}": "RBRACE", "[": "LBRACKET", "]": "RBRACKET",
          "(": "LPAREN", ")": "RPAREN", ",": "COMMA", ";": "SEMI",
          "+": "PLUS", "-": "MINUS"}


@dataclass(frozen=True)
class Token:
    kind: str       # NAME | NUMBER | punctuation kind | EOF
    text: str
    line: int
    col: int


def _lex(text: str) -> list[Token]:
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
            tokens.append(Token(_PUNCT[ch], ch, line, col))
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
            tokens.append(Token("NUMBER", lexeme, line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            lexeme = text[start:i]
            tokens.append(Token("NAME", lexeme, line, col))
            col += i - start
            continue
        raise _DslError(line, col, f"unexpected character {ch!r}")
    tokens.append(Token("EOF", "", line, col))
    return tokens


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
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str) -> _DslError:
        tok = self.peek()
        return _DslError(tok.line, tok.col, message)

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.error(f"expected {what}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def expect_name(self, word: Optional[str] = None) -> Token:
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

    def _loc(self, tok: Token) -> Diagnostic:
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
# Resolution and validation


@dataclass
class ResolvedQuantum:
    system: QuantumSystem
    projectors: dict[str, np.ndarray]
    states: dict[str, np.ndarray]
    densities: dict[str, DensityMatrix]

    def state(self, name: str):
        from .errors import MissingNameError

        if name in self.states:
            return self.states[name]
        raise MissingNameError(f"unknown state {name!r}")


class SystemSpec:
    """All declarations of a source file, resolved and validated."""

    def __init__(self, decls: list, tolerance: TolerancePolicy):
        self.decls = list(decls)
        self.tolerance = tolerance
        self.monoids: dict[str, FiniteMonoid] = {}
        self.msets: dict[str, MSet] = {}
        self.classical: dict[str, ClassicalSystem] = {}
        self.quantum: dict[str, ResolvedQuantum] = {}
        self.raysets: dict[str, RaySetDecl] = {}
        self.universes: dict[str, UniverseDecl] = {}
        self.queries: dict[str, dict[str, str]] = {}
        self._alphabets: dict[tuple, ProjectorAlphabet] = {}

    def lookup(self, table: dict, name: str, what: str):
        from .errors import MissingNameError

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
        decl = self.lookup(self.raysets, name, "rayset")
        rq = self.lookup(self.quantum, decl.system, "quantum system")
        vectors = [rq.state(s) for s in decl.rays]
        return decl.system, RaySet(vectors, self.tolerance)


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
        tokens = _lex(text)
        decls = _Parser(tokens).parse_spec()
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
    file_eps = file_null = None
    for d in decls:
        if isinstance(d, ToleranceDecl):
            file_eps = d.eps if d.eps is not None else file_eps
            file_null = d.null if d.null is not None else file_null
    try:
        tolerance = TolerancePolicy(
            next(x for x in (eps, file_eps, DEFAULT_TOL.eps) if x is not None),
            next(x for x in (null, file_null, DEFAULT_TOL.null_threshold) if x is not None))
    except MonoidToposError as exc:
        loc = next((d.loc for d in decls if isinstance(d, ToleranceDecl)), Diagnostic(1, 1, ""))
        diagnostics.append(Diagnostic(loc.line, loc.col, str(exc)))
        return None

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
                spec.classical[d.name] = ClassicalSystem(
                    d.states, d.values, {q.name: q.values for q in d.quantities})
            elif isinstance(d, QuantumDecl):
                spec.quantum[d.name] = _resolve_quantum(d, tolerance)
            elif isinstance(d, RaySetDecl):
                spec.lookup(spec.quantum, d.system, "quantum system")
                rq = spec.quantum[d.system]
                for s in d.rays:
                    rq.state(s)
                spec.raysets[d.name] = d
                spec.rayset(d.name)
            elif isinstance(d, UniverseDecl):
                spec.lookup(spec.quantum, d.system, "quantum system")
                for p in d.alphabet:
                    spec.lookup(spec.quantum[d.system].projectors, p, "projector")
                if d.depth < 0:
                    raise MonoidToposError("depth must be non-negative")
                spec.universes[d.name] = d
            elif isinstance(d, QueryDecl):
                spec.queries[d.name] = dict(d.entries)
            else:
                fail(d, "unknown declaration type")
        except MonoidToposError as exc:
            fail(d, str(exc))
    return spec


def _infer_values(matrices: list, tol: TolerancePolicy) -> tuple[float, ...]:
    from .linalg import hermitian_eig

    found: list[float] = []
    for matrix in matrices:
        op = hermitian_eig(matrix, tol)
        for lam in op.eigenvalues:
            snapped = round(lam, 9)
            if not any(abs(snapped - v) <= tol.eps for v in found):
                found.append(snapped)
    return tuple(sorted(found))


def _resolve_quantum(d: QuantumDecl, tol: TolerancePolicy) -> ResolvedQuantum:
    operators = {m.name: as_matrix(m.matrix, d.dim)
                 for m in d.members if isinstance(m, MatrixMemberDecl) and m.kind == "operator"}
    values = d.values
    if values is None:
        values = _infer_values(list(operators.values()), tol) or (0.0, 1.0)
    system = QuantumSystem(d.dim, values, operators, tol)
    projectors = {}
    states = {}
    densities = {}
    member_names = set(operators)
    for m in d.members:
        if isinstance(m, MatrixMemberDecl) and m.kind != "operator":
            if m.name in member_names:
                raise MonoidToposError(f"duplicate member name {m.name!r}")
            member_names.add(m.name)
            if m.kind == "projector":
                projectors[m.name] = Projector(as_matrix(m.matrix, d.dim), tol).matrix
            else:
                densities[m.name] = DensityMatrix(as_matrix(m.matrix, d.dim), tol)
        elif isinstance(m, StateMemberDecl):
            if m.name in member_names:
                raise MonoidToposError(f"duplicate member name {m.name!r}")
            member_names.add(m.name)
            v = as_vector(m.vector, d.dim)
            if float(np.linalg.norm(v)) <= tol.null_threshold:
                raise MonoidToposError(f"state {m.name!r} is null")
            states[m.name] = v
    return ResolvedQuantum(system, projectors, states, densities)


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
