"""The rule language: parsing, rendering, and traced evaluation.

Rules are boolean expressions over identifier predicates, e.g.::

    (FullName MATCHES AND PhoneNumber MATCHES) OR (Username MATCHES AND Biodata FUZZYMATCHES)

OR binds loosest, AND tighter, parentheses group. Keywords are uppercase;
identifier kind names are matched case-insensitively in both compact
("FullName") and spaced ("Full Name") spellings.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass, field
from typing import Union

from .errors import EvalError, NormalizeError, ParseError
from .identifiers import (
    ContactRecord,
    IdentifierKind,
    ImageHash,
    Profile,
    Strictness,
    normalize_identifier,
)
from .similarity import image_distance, text_similarity


class Operator(str, enum.Enum):
    MATCHES = "MATCHES"
    EQUALS = "EQUALS"
    FUZZYMATCHES = "FUZZYMATCHES"
    GREATERTHAN = "GREATERTHAN"


@dataclass(frozen=True)
class Predicate:
    """A single identifier test; only GREATERTHAN carries a literal."""

    kind: IdentifierKind
    op: Operator
    literal: int | None = None

    def __post_init__(self) -> None:
        if self.op is Operator.GREATERTHAN:
            if self.literal is None:
                raise ValueError("GREATERTHAN requires an integer literal")
            if self.kind is not IdentifierKind.AGE:
                raise ValueError("GREATERTHAN applies only to Age")
        elif self.literal is not None:
            raise ValueError(f"{self.op.value} does not take a literal")


@dataclass(frozen=True)
class And:
    children: tuple["RuleNode", ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("AND needs at least two children")


@dataclass(frozen=True)
class Or:
    children: tuple["RuleNode", ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("OR needs at least two children")


RuleNode = Union[Predicate, And, Or]

_KEYWORDS = {"MATCHES", "EQUALS", "FUZZYMATCHES", "GREATERTHAN", "GREATER", "THAN", "AND", "OR"}

# Alternate names accepted on top of the canonical vocabulary; extensible.
KIND_ALIASES: dict[str, IdentifierKind] = {
    "photograph": IdentifierKind.PROFILE_IMAGE,
    "bio": IdentifierKind.BIODATA,
}

_SPACED = {
    IdentifierKind.FULL_NAME: "full name",
    IdentifierKind.EMAIL_ID: "email id",
    IdentifierKind.PHONE_NUMBER: "phone number",
    IdentifierKind.PROFILE_IMAGE: "profile image",
}


def _kind_vocabulary() -> dict[str, IdentifierKind]:
    vocab = {kind.value.lower(): kind for kind in IdentifierKind}
    vocab.update({spelling: kind for kind, spelling in _SPACED.items()})
    vocab.update(KIND_ALIASES)
    return vocab


@dataclass(frozen=True)
class _Token:
    type: str  # WORD | INT | LPAREN | RPAREN | EOF
    value: str
    position: int


_TOKEN_RE = re.compile(r"[A-Za-z]+|\d+|[()]|\S")
# Deeper parentheses would exhaust the interpreter stack in the recursive
# parser and evaluator; rule text arrives from outside, so refuse them.
_MAX_NESTING = 64


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN_RE.finditer(text):
        lexeme = match.group()
        pos = match.start()
        if lexeme == "(":
            tokens.append(_Token("LPAREN", lexeme, pos))
        elif lexeme == ")":
            tokens.append(_Token("RPAREN", lexeme, pos))
        elif lexeme.isdigit():
            tokens.append(_Token("INT", lexeme, pos))
        elif lexeme.isalpha():
            tokens.append(_Token("WORD", lexeme, pos))
        else:
            raise ParseError(f"unexpected character {lexeme!r}", position=pos,
                             expected=("identifier", "operator", "(", ")"))
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.vocab = _kind_vocabulary()

    def parse(self) -> RuleNode:
        node = self._expr()
        tok = self._peek()
        if tok.type != "EOF":
            raise ParseError(f"unexpected trailing input {tok.value!r}",
                             position=tok.position, expected=("AND", "OR", "end of input"))
        return node

    def _expr(self) -> RuleNode:
        children = [self._and_expr()]
        while self._match_word("OR"):
            children.append(self._and_expr())
        return children[0] if len(children) == 1 else Or(tuple(children))

    def _and_expr(self) -> RuleNode:
        children = [self._primary()]
        while self._match_word("AND"):
            children.append(self._primary())
        return children[0] if len(children) == 1 else And(tuple(children))

    def _primary(self) -> RuleNode:
        tok = self._peek()
        if tok.type == "LPAREN":
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {_MAX_NESTING}",
                                 position=tok.position, expected=("identifier name",))
            self.depth += 1
            self._advance()
            node = self._expr()
            closing = self._peek()
            if closing.type != "RPAREN":
                raise ParseError("unbalanced parenthesis", position=closing.position,
                                 expected=(")",))
            self._advance()
            self.depth -= 1
            return node
        return self._predicate()

    def _predicate(self) -> Predicate:
        kind = self._kind_name()
        op_tok = self._peek()
        if op_tok.type != "WORD":
            raise ParseError("expected an operator", position=op_tok.position,
                             expected=("MATCHES", "EQUALS", "FUZZYMATCHES", "GREATERTHAN"))
        if op_tok.value in ("MATCHES", "EQUALS", "FUZZYMATCHES"):
            self._advance()
            return Predicate(kind, Operator(op_tok.value))
        if op_tok.value in ("GREATERTHAN", "GREATER"):
            self._advance()
            if op_tok.value == "GREATER":
                than = self._peek()
                if not (than.type == "WORD" and than.value == "THAN"):
                    raise ParseError("expected THAN after GREATER", position=than.position,
                                     expected=("THAN",))
                self._advance()
            literal_tok = self._peek()
            if literal_tok.type != "INT":
                raise ParseError("GREATERTHAN requires an integer literal",
                                 position=literal_tok.position, expected=("integer",))
            self._advance()
            if kind is not IdentifierKind.AGE:
                raise ParseError(f"GREATERTHAN applies only to Age, not {kind.value}",
                                 position=op_tok.position, expected=("Age",))
            return Predicate(kind, Operator.GREATERTHAN, int(literal_tok.value))
        raise ParseError(f"unknown operator {op_tok.value!r}", position=op_tok.position,
                         expected=("MATCHES", "EQUALS", "FUZZYMATCHES", "GREATERTHAN"))

    def _kind_name(self) -> IdentifierKind:
        tok = self._peek()
        if tok.type != "WORD" or tok.value in _KEYWORDS:
            raise ParseError("expected an identifier name", position=tok.position,
                             expected=("identifier name", "("))
        nxt = self.tokens[self.pos + 1]
        if nxt.type == "WORD" and nxt.value not in _KEYWORDS:
            spaced = f"{tok.value} {nxt.value}".lower()
            if spaced in self.vocab:
                self._advance()
                self._advance()
                return self.vocab[spaced]
        kind = self.vocab.get(tok.value.lower())
        if kind is None:
            raise ParseError(f"unknown identifier name {tok.value!r}", position=tok.position,
                             expected=tuple(sorted(k.value for k in IdentifierKind)))
        self._advance()
        return kind

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.type != "EOF":
            self.pos += 1
        return tok

    def _match_word(self, word: str) -> bool:
        tok = self._peek()
        if tok.type == "WORD" and tok.value == word:
            self._advance()
            return True
        return False


def parse_rule(text: str) -> RuleNode:
    """Parse rule-language source into an AST.

    Raises ParseError with a character position and the expected-token set.
    """
    return _Parser(text).parse()


@functools.lru_cache(maxsize=1024)
def cached_parse_rule(text: str) -> RuleNode:
    """parse_rule with memoization; safe because ASTs are immutable."""
    return parse_rule(text)


def render_rule(node: RuleNode) -> str:
    """Canonical source: compact kind names, single spaces, compound children parenthesized."""
    if isinstance(node, Predicate):
        if node.op is Operator.GREATERTHAN:
            return f"{node.kind.value} GREATERTHAN {node.literal}"
        return f"{node.kind.value} {node.op.value}"
    joiner = " AND " if isinstance(node, And) else " OR "
    parts = []
    for child in node.children:
        rendered = render_rule(child)
        parts.append(rendered if isinstance(child, Predicate) else f"({rendered})")
    return joiner.join(parts)


def default_rule() -> RuleNode:
    """The provider-supplied default matching rule."""
    return Or((
        Predicate(IdentifierKind.EMAIL_ID, Operator.EQUALS),
        Predicate(IdentifierKind.PHONE_NUMBER, Operator.EQUALS),
        And((
            Predicate(IdentifierKind.USERNAME, Operator.MATCHES),
            Predicate(IdentifierKind.FULL_NAME, Operator.MATCHES),
        )),
    ))


@dataclass(frozen=True)
class MatchThresholds:
    """Similarity required per strictness level; provider-configurable.

    Levels must stay ordered (Strict demands the most) or the strictness
    monotonicity property breaks, so disordered configs are rejected.
    """

    text_strict: float = 0.90
    text_medium: float = 0.75
    text_lenient: float = 0.60
    image_strict: int = 4
    image_medium: int = 10
    image_lenient: int = 16

    def __post_init__(self) -> None:
        if not self.text_strict >= self.text_medium >= self.text_lenient:
            raise ValueError("text thresholds must be ordered Strict >= Medium >= Lenient")
        if not self.image_strict <= self.image_medium <= self.image_lenient:
            raise ValueError("image thresholds must be ordered Strict <= Medium <= Lenient")

    def text_for(self, strictness: Strictness) -> float:
        return {
            Strictness.STRICT: self.text_strict,
            Strictness.MEDIUM: self.text_medium,
            Strictness.LENIENT: self.text_lenient,
        }[strictness]

    def image_for(self, strictness: Strictness) -> int:
        return {
            Strictness.STRICT: self.image_strict,
            Strictness.MEDIUM: self.image_medium,
            Strictness.LENIENT: self.image_lenient,
        }[strictness]


DEFAULT_THRESHOLDS = MatchThresholds()


@dataclass(frozen=True)
class PredicateOutcome:
    """One predicate's verdict: the score observed, the threshold applied, the result."""

    kind: IdentifierKind
    op: Operator
    score: float | int | None
    threshold: float | int | None
    verdict: bool
    detail: str | None = None

    def as_dict(self) -> dict:
        return {"kind": self.kind.value, "op": self.op.value, "score": self.score,
                "threshold": self.threshold, "verdict": self.verdict, "detail": self.detail}


@dataclass(frozen=True)
class MatchResult:
    matched: bool
    trace: tuple[PredicateOutcome, ...] = field(default_factory=tuple)


def _eval_predicate(pred: Predicate, contact: ContactRecord, profile: Profile,
                    strictness: Strictness, thresholds: MatchThresholds) -> PredicateOutcome:
    cv = contact.identifiers.get(pred.kind)
    pv = profile.identifiers.get(pred.kind)
    if cv is None or pv is None:
        side = "contact" if cv is None else "profile"
        return PredicateOutcome(pred.kind, pred.op, None, None, False,
                                detail=f"{pred.kind.value} absent on {side} side")
    try:
        if pred.op is Operator.GREATERTHAN:
            value = int(normalize_identifier(pred.kind, pv))
            return PredicateOutcome(pred.kind, pred.op, value, pred.literal,
                                    value > pred.literal)
        if isinstance(cv, ImageHash) and isinstance(pv, ImageHash):
            if pred.op is Operator.EQUALS:
                return PredicateOutcome(pred.kind, pred.op, 1.0 if cv == pv else 0.0,
                                        None, cv == pv)
            level = Strictness.LENIENT if pred.op is Operator.FUZZYMATCHES else strictness
            distance = image_distance(cv, pv)
            limit = thresholds.image_for(level)
            return PredicateOutcome(pred.kind, pred.op, distance, limit, distance <= limit)
        if isinstance(cv, ImageHash) or isinstance(pv, ImageHash):
            raise EvalError(f"mixed text/image values for {pred.kind.value}")
        norm_c = normalize_identifier(pred.kind, cv)
        norm_p = normalize_identifier(pred.kind, pv)
        if pred.op is Operator.EQUALS:
            equal = norm_c == norm_p
            return PredicateOutcome(pred.kind, pred.op, 1.0 if equal else 0.0, None, equal)
        level = Strictness.LENIENT if pred.op is Operator.FUZZYMATCHES else strictness
        score = text_similarity(norm_c, norm_p)
        floor = thresholds.text_for(level)
        return PredicateOutcome(pred.kind, pred.op, score, floor, score >= floor)
    except NormalizeError as exc:
        raise EvalError(str(exc)) from exc


def evaluate_rule(ast: RuleNode, contact: ContactRecord, profile: Profile,
                  strictness: Strictness,
                  thresholds: MatchThresholds = DEFAULT_THRESHOLDS) -> MatchResult:
    """Evaluate a rule for one (contact, profile) pair under a strictness level.

    Every predicate is evaluated (no short-circuit) so the trace is complete;
    a predicate whose kind is missing on either side is false. Raises EvalError
    only on a type mismatch such as GREATERTHAN over a non-numeric Age.
    """
    trace: list[PredicateOutcome] = []

    def walk(node: RuleNode) -> bool:
        if isinstance(node, Predicate):
            outcome = _eval_predicate(node, contact, profile, strictness, thresholds)
            trace.append(outcome)
            return outcome.verdict
        verdicts = [walk(child) for child in node.children]
        return all(verdicts) if isinstance(node, And) else any(verdicts)

    matched = walk(ast)
    return MatchResult(matched, tuple(trace))
