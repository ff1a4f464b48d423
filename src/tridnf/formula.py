"""DNF formulas: literals, terms, parsing, rendering, and evaluation.

Text grammar: ``~`` negates, a space conjoins, ``|`` separates terms, and
variables are ``x1`` .. ``xn``.  The constants ``TRUE`` and ``FALSE`` stand
alone as whole formulas (an always-true term would otherwise have no
literals to print).  Literal order inside a term and term order inside a
formula are significant and survive a parse/render round trip.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import ParseError
from .trits import Instance


def _any_holds(masks, bits: int) -> bool:
    """Some term, given as its (pos_mask, neg_mask), is true under the
    fully-certain assignment ``bits``."""
    for pos, neg in masks:
        if not (pos & ~bits or neg & bits):
            return True
    return False


@dataclass(frozen=True, order=True)
class Literal:
    """A variable or its negation; ``var`` is 1-based."""

    neg: bool
    var: int

    def __post_init__(self):
        if self.var < 1:
            raise ValueError(f"variable index must be positive, got {self.var}")

    def render(self) -> str:
        return f"~x{self.var}" if self.neg else f"x{self.var}"

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class Term:
    """A conjunction of literals, kept in insertion order."""

    literals: tuple[Literal, ...]

    @cached_property
    def pos_mask(self) -> int:
        mask = 0
        for lit in self.literals:
            if not lit.neg:
                mask |= 1 << (lit.var - 1)
        return mask

    @cached_property
    def neg_mask(self) -> int:
        mask = 0
        for lit in self.literals:
            if lit.neg:
                mask |= 1 << (lit.var - 1)
        return mask

    def evaluate(self, bits: int) -> bool:
        """Truth under a fully-certain assignment packed as an int."""
        return _any_holds(((self.pos_mask, self.neg_mask),), bits)

    def possibly_satisfied_by(self, inst: Instance) -> bool:
        """No certain cell contradicts a literal."""
        return not (self.pos_mask & inst.zeros or self.neg_mask & inst.value_bits)

    def render(self) -> str:
        if not self.literals:
            return "TRUE"
        return " ".join(lit.render() for lit in self.literals)

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class DnfFormula:
    """A disjunction of terms over variables ``x1`` .. ``xn``."""

    n: int
    terms: tuple[Term, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("variable count cannot be negative")
        for term in self.terms:
            for lit in term.literals:
                if lit.var > self.n:
                    raise ValueError(f"literal {lit} exceeds variable count {self.n}")

    @cached_property
    def _masks(self) -> tuple[tuple[int, int], ...]:
        return tuple((term.pos_mask, term.neg_mask) for term in self.terms)

    def evaluate(self, bits: int) -> bool:
        return _any_holds(self._masks, bits)

    @property
    def vars_used(self) -> tuple[int, ...]:
        return tuple(sorted({lit.var for term in self.terms for lit in term.literals}))

    @property
    def literal_count(self) -> int:
        return sum(len(term.literals) for term in self.terms)

    def render(self) -> str:
        if not self.terms:
            return "FALSE"
        return " | ".join(term.render() for term in self.terms)

    def __str__(self) -> str:
        return self.render()

    def to_json(self) -> str:
        terms = [[{"var": lit.var, "neg": lit.neg} for lit in term.literals] for term in self.terms]
        return json.dumps({"n": self.n, "terms": terms})

    @classmethod
    def from_json(cls, text: str) -> "DnfFormula":
        try:
            data = json.loads(text, parse_int=lambda token: _integer(token, token))
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON: {exc.msg}", where=exc.pos) from exc
        except RecursionError:
            raise ParseError("JSON nested too deeply") from None
        if not isinstance(data, dict):
            raise ParseError("formula JSON must be an object")
        n = data.get("n")
        terms = data.get("terms")
        if not isinstance(n, int) or isinstance(n, bool):
            raise ParseError("formula JSON needs an integer 'n'")
        if not isinstance(terms, list):
            raise ParseError("formula JSON needs a 'terms' list")
        built = []
        for term in terms:
            if not isinstance(term, list):
                raise ParseError("each term must be a list of literals")
            lits = []
            for lit in term:
                if not isinstance(lit, dict):
                    raise ParseError("each literal must be an object")
                var = lit.get("var")
                neg = lit.get("neg")
                if not isinstance(var, int) or isinstance(var, bool) or var < 1:
                    raise ParseError("literal 'var' must be a positive integer")
                if not isinstance(neg, bool):
                    raise ParseError("literal 'neg' must be a boolean")
                lits.append(Literal(neg, var))
            built.append(Term(tuple(lits)))
        try:
            return cls(n, tuple(built))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc


def _check_width(formula: DnfFormula, n: int) -> None:
    """The one width rule of every check against data over ``n``
    variables: the formula may name no variable past ``xn``.  Its declared
    ``n`` is not read, so a narrower or a declared-wider formula passes."""
    widest = max(formula.vars_used, default=0)
    if widest > n:
        raise ValueError(f"formula names x{widest} but the data has only {n} variables")


def _clip(token: str) -> str:
    """The one rule for showing user text in a message: a token of up to
    20 characters whole, a longer one as its first 16 and ``...``."""
    return token if len(token) <= 20 else f"{token[:16]}..."


def _integer(digits: str, token: str, where: int | None = None) -> int:
    """``int(digits)``, or ParseError naming ``token`` when the digits are
    past Python's int-to-str digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"number too long: {_clip(token)!r} has {len(token)} characters", where=where,
        ) from None


_TOKEN = re.compile(r"[^\s|]+|\|")
_LITERAL = re.compile(r"(~?)x([0-9]+)\Z")


def parse_formula(text: str) -> DnfFormula:
    """Parse the text grammar.  The formula's ``n`` is the largest
    variable it names, 0 for TRUE and FALSE."""
    tokens = [(m.group(), m.start()) for m in _TOKEN.finditer(text)]
    if not tokens:
        raise ParseError("empty formula", where=0)

    if any(tok in ("TRUE", "FALSE") for tok, _ in tokens):
        if len(tokens) != 1:
            tok, pos = next(t for t in tokens if t[0] in ("TRUE", "FALSE"))
            raise ParseError(f"{tok} must stand alone", where=pos)
        return DnfFormula(0, (Term(()),) if tokens[0][0] == "TRUE" else ())

    groups: list[list[tuple[str, int]]] = [[]]
    for tok, pos in tokens:
        if tok == "|":
            if not groups[-1]:
                raise ParseError("empty term before '|'", where=pos)
            groups.append([])
        else:
            groups[-1].append((tok, pos))
    if not groups[-1]:
        raise ParseError("empty term at end of formula", where=len(text))

    terms = []
    max_var = 0
    for group in groups:
        lits = []
        for tok, pos in group:
            m = _LITERAL.match(tok)
            if not m or m.group(2).startswith("0"):
                raise ParseError(f"not a literal: {_clip(tok)!r}", where=pos)
            var = _integer(m.group(2), tok, pos)
            max_var = max(max_var, var)
            lits.append(Literal(bool(m.group(1)), var))
        terms.append(Term(tuple(lits)))

    return DnfFormula(max_var, tuple(terms))


def term_from_codes(n: int, codes: Iterable[int]) -> Term:
    """Build from internal literal codes: ``k-1`` for ``xk``, ``n+k-1`` for ``~xk``."""
    return Term(tuple(
        Literal(False, c + 1) if c < n else Literal(True, c - n + 1)
        for c in codes
    ))
