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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .classical import ClassicalSystem
from .errors import MissingNameError, MonoidToposError
from .linalg import (DEFAULT_TOL, Projector, TolerancePolicy, as_matrix, as_vector,
                     hermitian_eig)
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

_PUNCT = {"LBRACE": "{", "RBRACE": "}", "LBRACKET": "[", "RBRACKET": "]",
          "LPAREN": "(", "RPAREN": ")", "COMMA": ",", "SEMI": ";",
          "PLUS": "+", "MINUS": "-"}

# One named group per token kind, tried in order.  NUMBER takes any run of
# ASCII digits and dots (the parser rejects '1.2.3'); NAME may start with a
# word character that is not a letter, which the lexer then rejects.
_TOKEN = re.compile("|".join(
    [r"(?P<NUMBER>\.?[0-9][0-9.]*(?:[eE][+-]?[0-9]+)?)", r"(?P<NAME>[^\W\d]\w*)",
     r"(?P<NEWLINE>\n)", r"(?P<SKIP>[ \t\r]+|#[^\n]*)"]
    + [f"(?P<{kind}>{re.escape(ch)})" for kind, ch in _PUNCT.items()]
    + [r"(?P<BAD>.)"]))


class Token(NamedTuple):
    kind: str       # NAME | NUMBER | punctuation kind | EOF
    text: str
    line: int
    col: int


def _lex(text: str) -> list[Token]:
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
        elif kind == "BAD" or (kind == "NAME" and not (lexeme[0].isalpha() or lexeme[0] == "_")):
            raise _DslError(line, col, f"unexpected character {lexeme[0]!r}")
        elif kind != "SKIP":
            tokens.append(Token(kind, lexeme, line, col))
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
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
    """Recursive descent over the token list.  Three rules carry the shapes
    the grammar repeats: ``seq`` for comma lists in ``{}``, ``[]`` and ``()``,
    ``header`` and ``close`` for ``keyword NAME { … }``, ``field`` for ``word value;``."""

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

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise _DslError(tok.line, tok.col,
                            f"expected {what}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def name(self, what: str) -> str:
        return self.expect("NAME", what).text

    def keyword(self, word: str) -> Token:
        tok = self.expect("NAME", word)
        if tok.text != word:
            raise _DslError(tok.line, tok.col, f"expected {word!r}, found {tok.text!r}")
        return tok

    # -- the shared rules --------------------------------------------------

    def seq(self, opener: str, item) -> tuple:
        """``opener item, … closer``, possibly empty; RBRACE closes LBRACE."""
        closer = "R" + opener[1:]
        self.expect(opener, repr(_PUNCT[opener]))
        items = []
        if self.peek().kind != closer:
            items.append(item())
            while self.peek().kind == "COMMA":
                self.advance()
                items.append(item())
        self.expect(closer, repr(_PUNCT[closer]))
        return tuple(items)

    def header(self, keyword: str, what: Optional[str]) -> tuple[Diagnostic, Optional[str]]:
        """``keyword NAME {`` (``keyword {`` if ``what`` is None): location and name."""
        tok = self.keyword(keyword)
        name = self.name(what) if what else None
        self.expect("LBRACE", "'{'")
        return Diagnostic(tok.line, tok.col, ""), name

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
        if tok.text not in words:
            self.expect("NAME", what)
            raise _DslError(tok.line, tok.col, f"unknown {block} {tok.text!r}")
        return tok.text

    # -- values ------------------------------------------------------------

    def unsigned(self) -> float:
        tok = self.expect("NUMBER", "a number")
        try:
            return float(tok.text)
        except ValueError:
            raise _DslError(tok.line, tok.col, f"malformed number {tok.text!r}") from None

    def number(self) -> float:
        sign = 1.0
        if self.peek().kind in ("PLUS", "MINUS"):
            sign = -1.0 if self.advance().kind == "MINUS" else 1.0
        return sign * self.unsigned()

    def integer(self, what: str) -> int:
        tok = self.peek()
        value = self.number()
        if not value.is_integer():
            raise _DslError(tok.line, tok.col, f"{what} must be an integer")
        return int(value)

    def complex_entry(self) -> complex:
        real = self.number()
        if self.peek().kind == "NAME" and self.peek().text == "i":
            self.advance()
            return complex(0.0, real)
        mark = self.pos
        if self.advance().kind in ("PLUS", "MINUS") and self.peek().kind == "NUMBER":
            sign = -1.0 if self.tokens[mark].kind == "MINUS" else 1.0
            imag = self.unsigned()
            self.keyword("i")
            return complex(real, sign * imag)
        self.pos = mark
        return complex(real, 0.0)

    def number_set(self) -> tuple[float, ...]:
        return self.seq("LBRACE", self.number)

    def name_group(self) -> tuple[str, ...]:
        return self.seq("LPAREN", lambda: self.name("a name"))

    def row(self, entry) -> tuple:
        return self.seq("LBRACKET", entry)

    def matrix(self, entry) -> tuple[tuple, ...]:
        return self.seq("LBRACKET", lambda: self.row(entry))

    # -- declarations ------------------------------------------------------

    def parse_spec(self) -> list:
        decls = []
        while self.peek().kind != "EOF":
            decls.append(self.declaration())
        return decls

    def declaration(self):
        """One declaration, parsed by the ``<keyword>_decl`` method."""
        tok = self.peek()
        rule = getattr(self, f"{tok.text}_decl", None) if tok.kind == "NAME" else None
        if rule is None:
            raise _DslError(tok.line, tok.col, "expected a declaration keyword, "
                            f"found {tok.text or 'end of input'!r}")
        return rule()

    def tolerance_decl(self):
        loc, _ = self.header("tolerance", None)
        given = {"eps": None, "null": None}
        while self.peek().kind != "RBRACE":
            key = self.entry("'eps' or 'null'", given, "tolerance field")
            given[key] = self.field(key, self.number)
        self.close()
        return ToleranceDecl(given["eps"], given["null"], loc)

    def monoid_decl(self):
        loc, name = self.header("monoid", "a monoid name")
        elements = self.field("elements", lambda: self.integer("element count"))
        table = self.field("table", lambda: self.matrix(lambda: self.integer("table entry")))
        self.close()
        return MonoidDecl(name, elements, table, loc)

    def mset_decl(self):
        loc, name = self.header("mset", "an mset name")
        monoid = self.field("monoid", lambda: self.name("a monoid name"))
        points = self.field("points", lambda: self.integer("point count"))
        action = self.field("action", lambda: self.matrix(lambda: self.integer("action entry")))
        self.close()
        return MSetDecl(name, monoid, points, action, loc)

    def classical_decl(self):
        loc, name = self.header("classical", "a system name")
        values = self.field("values", self.number_set)
        states = self.field("states", self.name_group)
        quantities = []
        while self.peek().kind != "RBRACE":
            quantities.append(self.field("quantity", lambda: QuantityDecl(
                self.name("a quantity name"), self.row(self.number))))
        self.close()
        return ClassicalDecl(name, values, states, tuple(quantities), loc)

    def quantum_decl(self):
        loc, name = self.header("quantum", "a system name")
        dim = self.field("dim", lambda: self.integer("dimension"))
        values = None
        members = []
        while self.peek().kind != "RBRACE":
            key = self.entry("a member keyword", ("values", "operator", "projector", "state",
                                                  "density"), "quantum member")
            if key == "values":
                values = self.field("values", self.number_set)
            elif key == "state":
                members.append(self.field("state", lambda: StateMemberDecl(
                    self.name("a name"), self.row(self.complex_entry))))
            elif key == "density":
                members.append(self.field("density", lambda: MatrixMemberDecl(
                    "density", self.name("a name"), self.matrix(self.complex_entry))))
            else:
                _, mname = self.header(key, "a name")
                members.append(MatrixMemberDecl(key, mname, self.field(
                    "matrix", lambda: self.matrix(self.complex_entry))))
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
        while self.peek().kind != "RBRACE":
            key = self.name("a query key")
            parts = []
            while self.peek().kind not in ("SEMI", "EOF"):
                parts.append(self.advance().text)
            self.expect("SEMI", "';'")
            entries.append((key, "".join(parts)))
        self.close()
        return QueryDecl(name, tuple(entries), loc)


def _parse_whole(text: str, rule):
    parser = _Parser(_lex(text.strip()))
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
    projectors: dict[str, np.ndarray]
    states: dict[str, np.ndarray]
    densities: dict[str, DensityMatrix]

    def state(self, name: str):
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
                spec.raysets[d.name] = d
                spec.rayset(d.name)
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


def _infer_values(matrices: list, tol: TolerancePolicy) -> tuple[float, ...]:
    found: list[float] = []
    for matrix in matrices:
        op = hermitian_eig(matrix, tol)
        for lam in op.eigenvalues:
            snapped = round(lam, 9)
            if not any(abs(snapped - v) <= tol.eps for v in found):
                found.append(snapped)
    return tuple(sorted(found))


def _resolve_quantum(d: QuantumDecl, tol: TolerancePolicy) -> ResolvedQuantum:
    if d.dim < 1:
        raise MonoidToposError(f"dimension must be positive, got {d.dim}")
    _require_distinct((m.name for m in d.members), "member name")
    operators = {m.name: as_matrix(m.matrix, d.dim)
                 for m in d.members if isinstance(m, MatrixMemberDecl) and m.kind == "operator"}
    values = d.values
    if values is None:
        values = _infer_values(list(operators.values()), tol) or (0.0, 1.0)
    system = QuantumSystem(d.dim, values, operators, tol)
    projectors = {}
    states = {}
    densities = {}
    for m in d.members:
        if isinstance(m, StateMemberDecl):
            v = as_vector(m.vector, d.dim)
            if float(np.linalg.norm(v)) <= tol.null_threshold:
                raise MonoidToposError(f"state {m.name!r} is null")
            states[m.name] = v
        elif m.kind == "projector":
            projectors[m.name] = Projector(as_matrix(m.matrix, d.dim), tol).matrix
        elif m.kind == "density":
            densities[m.name] = DensityMatrix(as_matrix(m.matrix, d.dim), tol)
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
