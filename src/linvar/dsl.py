"""Text formats: term syntax, the theory file format, derivation JSON.

Theory files are line based:

    theory <name>
    op <symbol>/<arity>
    axiom <term> = <term>

Comments start with `#`.  Variables are identifiers starting with a lowercase
letter; applications are written `f(t1,...,tn)`, and a constant `c()`.
"""
from __future__ import annotations

import json
import re
from typing import Mapping, Optional

from .terms import Application, LinvarError, OperationSymbol, Term, Variable
from .theories import Identity, Theory, make_theory

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_VARIABLE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_OP_DECL = re.compile(r"([A-Za-z][A-Za-z0-9_]*)\s*/\s*(\d+)\Z")

# Deepest nesting of applications a parsed term may have.  Rendering,
# substitution, matching and proof search recurse once or twice per level,
# so a term at this depth still passes all of them under Python's default
# recursion limit; a deeper one is a ParseError instead of a RecursionError.
# The derivation verifier walks a step's position in a loop and recurses
# only over the equation's sides; term equality, which it uses to compare
# what lies beside the path and under a variable, recurses once per level.
MAX_TERM_DEPTH = 200


class ParseError(LinvarError):
    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        self.message = message
        self.line = line
        self.col = col
        where = []
        if line is not None:
            where.append(f"line {line}")
        if col is not None:
            where.append(f"column {col}")
        super().__init__(f"{', '.join(where)}: {message}" if where else message)


class _TermParser:
    """Recursive-descent parser for the shared term syntax.

    It parses `text` from index `start` to its end; error columns count
    from the start of `text`.
    """

    def __init__(self, text: str, arities: Optional[Mapping[str, int]], line: Optional[int],
                 start: int = 0):
        self.text = text
        self.pos = start
        self.arities = arities
        self.line = line
        self.depth = 0

    def error(self, message: str, at: Optional[int] = None) -> ParseError:
        col = (self.pos if at is None else at) + 1
        return ParseError(message, self.line, col)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def parse(self) -> Term:
        t = self.parse_term()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error(f"unexpected {self.text[self.pos]!r} after term")
        return t

    def parse_term(self) -> Term:
        self.skip_ws()
        m = _IDENT.match(self.text, self.pos)
        if not m:
            got = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            raise self.error(f"expected an identifier, got {got!r}")
        name = m.group(0)
        start = self.pos
        self.pos = m.end()
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "(":
            self.depth += 1
            if self.depth > MAX_TERM_DEPTH:
                raise self.error(f"term nested deeper than {MAX_TERM_DEPTH} levels")
            self.pos += 1
            self.skip_ws()
            children = [] if self.text.startswith(")", self.pos) else [self.parse_term()]
            self.skip_ws()
            while self.pos < len(self.text) and self.text[self.pos] == ",":
                self.pos += 1
                children.append(self.parse_term())
                self.skip_ws()
            if self.pos >= len(self.text) or self.text[self.pos] != ")":
                raise self.error("expected ',' or ')'")
            self.pos += 1
            self.depth -= 1
            if self.arities is not None:
                if name not in self.arities:
                    raise self.error(f"unknown symbol {name!r}", at=start)
                if self.arities[name] != len(children):
                    raise self.error(
                        f"arity mismatch: {name} is declared /{self.arities[name]} "
                        f"but applied to {len(children)} arguments", at=start)
            return Application(OperationSymbol(name, len(children)), tuple(children))
        if not _VARIABLE.match(name):
            raise self.error(
                f"{name!r} is not a variable (variables start lowercase); "
                f"write {name}(...) for an application", at=start)
        return Variable(name)


def parse_term(text: str, arities: Optional[Mapping[str, int]] = None,
               line: Optional[int] = None) -> Term:
    return _TermParser(text, arities, line).parse()


def parse_identity(text: str, arities: Optional[Mapping[str, int]] = None,
                   line: Optional[int] = None, start: int = 0) -> Identity:
    """The identity written in `text` from index `start` on; error columns
    count from the start of `text`."""
    if text.count("=", start) != 1:
        raise ParseError("an identity needs exactly one '='", line)
    eq = text.index("=", start)
    return Identity(_TermParser(text[:eq], arities, line, start).parse(),
                    _TermParser(text, arities, line, eq + 1).parse())


def parse_theory(text: str) -> Theory:
    name: Optional[str] = None
    symbols: list[OperationSymbol] = []
    arities: dict[str, int] = {}
    identities: list[Identity] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        line = body.strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "theory":
            if name is not None:
                raise ParseError("duplicate 'theory' declaration", lineno)
            if not rest or not _IDENT.match(rest):
                raise ParseError("expected a theory name", lineno)
            name = rest
        elif keyword == "op":
            m = _OP_DECL.match(rest)
            if not m:
                raise ParseError("expected 'op <symbol>/<arity>'", lineno)
            sym, arity = m.group(1), int(m.group(2))
            if sym in arities:
                raise ParseError(f"duplicate declaration of {sym!r}", lineno)
            arities[sym] = arity
            symbols.append(OperationSymbol(sym, arity))
        elif keyword == "axiom":
            if name is None:
                raise ParseError("'axiom' before 'theory' declaration", lineno)
            start = body.index(keyword) + len(keyword)
            identities.append(parse_identity(body, arities, lineno, start))
        else:
            raise ParseError(f"unknown declaration {keyword!r}", lineno)
    if name is None:
        raise ParseError("missing 'theory' declaration", 1)
    return make_theory(name, symbols, identities)


def render_theory(t: Theory) -> str:
    lines = [f"theory {t.name}"]
    lines += [f"op {s.name}/{s.arity}" for s in t.symbols]
    lines += [f"axiom {e}" for e in t.identities]
    return "\n".join(lines) + "\n"


def theory_to_json(t: Theory) -> dict:
    return {
        "name": t.name,
        "ops": [{"name": s.name, "arity": s.arity} for s in t.symbols],
        "axioms": [str(e) for e in t.identities],
        "renames": [list(pair) for pair in t.renames],
    }


def json_list(data: dict, key: str, kind: type) -> list:
    """data[key] when it is a list of `kind` values, else a ValueError: a
    document read from a file may have any shape."""
    value = data.get(key)
    if not isinstance(value, list) or any(type(v) is not kind for v in value):
        raise ValueError(f"{key!r} must be a list of {kind.__name__} values")
    return value


def load_json(path: str) -> object:
    """The file's JSON document; one nested too deeply for the decoder is a
    ValueError, not a RecursionError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def theory_from_json(data: object) -> Theory:
    if not isinstance(data, dict) or not isinstance(data.get("name"), str):
        raise ValueError("a theory is a JSON object with a string 'name'")
    symbols = []
    for o in json_list(data, "ops", dict):
        name, arity = o.get("name"), o.get("arity")
        if not (isinstance(name, str) and _IDENT.fullmatch(name)
                and type(arity) is int and arity >= 0):
            raise ValueError("each op needs an identifier 'name' and a "
                             "non-negative integer 'arity'")
        symbols.append(OperationSymbol(name, arity))
    arities = {s.name: s.arity for s in symbols}
    identities = [parse_identity(a, arities) for a in json_list(data, "axioms", str)]
    renames = data.get("renames", [])
    if not (isinstance(renames, list) and all(isinstance(pair, list) and len(pair) == 2
            and all(type(n) is str for n in pair) for pair in renames)):
        raise ValueError("'renames' must be a list of [old, new] name pairs")
    return make_theory(data["name"], symbols, identities,
                       renames=tuple((a, b) for a, b in renames))


def load_theory(path: str) -> Theory:
    if path.endswith(".json"):
        return theory_from_json(load_json(path))
    with open(path, "r", encoding="utf-8") as handle:
        return parse_theory(handle.read())
