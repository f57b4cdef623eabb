from __future__ import annotations

import pytest

from sbo.errors import ParseError
from sbo.identifiers import IdentifierKind as K
from sbo.rules import And, Operator, Or, Predicate, parse_rule, render_rule

from .oracles import random_ast, split_parse

TWO_CLAUSE_RULE = ("(Full Name MATCHES AND Phone Number MATCHES) OR "
              "(Username MATCHES AND Biodata FUZZYMATCHES)")

# the four-clause example rule, aliases (Photograph, Bio) intact
FOUR_CLAUSE_RULE = ("(Full Name MATCHES AND Phone Number MATCHES) OR "
                "(Photograph MATCHES AND Gender MATCHES AND Location MATCHES) OR "
                "(Bio MATCHES AND Email Id MATCHES) OR "
                "(Username MATCHES AND Bio FUZZYMATCHES)")


def test_two_clause_rule_ast():
    assert parse_rule(TWO_CLAUSE_RULE) == Or((
        And((Predicate(K.FULL_NAME, Operator.MATCHES),
             Predicate(K.PHONE_NUMBER, Operator.MATCHES))),
        And((Predicate(K.USERNAME, Operator.MATCHES),
             Predicate(K.BIODATA, Operator.FUZZYMATCHES))),
    ))


def test_four_clause_rule_with_aliases():
    ast = parse_rule(FOUR_CLAUSE_RULE)
    assert isinstance(ast, Or) and len(ast.children) == 4
    photo_clause = ast.children[1]
    assert photo_clause.children[0] == Predicate(K.PROFILE_IMAGE, Operator.MATCHES)
    bio_clause = ast.children[2]
    assert bio_clause.children[0] == Predicate(K.BIODATA, Operator.MATCHES)
    assert bio_clause.children[1] == Predicate(K.EMAIL_ID, Operator.MATCHES)


def test_single_predicate():
    assert parse_rule("EmailId EQUALS") == Predicate(K.EMAIL_ID, Operator.EQUALS)


def test_kind_spellings_case_insensitive():
    for text in ("FULLNAME MATCHES", "fullname MATCHES", "Full name MATCHES",
                 "FULL NAME MATCHES"):
        assert parse_rule(text) == Predicate(K.FULL_NAME, Operator.MATCHES)


def test_keywords_are_case_sensitive():
    with pytest.raises(ParseError):
        parse_rule("EmailId equals")
    with pytest.raises(ParseError):
        parse_rule("EmailId Matches")


def test_and_binds_tighter_than_or():
    ast = parse_rule("Username MATCHES AND FullName MATCHES OR EmailId MATCHES")
    assert ast == Or((
        And((Predicate(K.USERNAME, Operator.MATCHES),
             Predicate(K.FULL_NAME, Operator.MATCHES))),
        Predicate(K.EMAIL_ID, Operator.MATCHES),
    ))


def test_precedence_against_split_oracle(rng):
    kinds = [K.USERNAME, K.EMAIL_ID, K.BIODATA, K.AGE, K.PROFILE_IMAGE]
    for _ in range(300):
        text = render_rule(random_ast(rng, rng.randint(0, 4), kinds))
        assert parse_rule(text) == split_parse(text)


def test_greaterthan_both_spellings():
    expected = Predicate(K.AGE, Operator.GREATERTHAN, 18)
    assert parse_rule("Age GREATERTHAN 18") == expected
    assert parse_rule("Age GREATER THAN 18") == expected


def test_greaterthan_requires_literal():
    with pytest.raises(ParseError) as err:
        parse_rule("Age GREATERTHAN")
    assert "integer" in str(err.value)


def test_greaterthan_only_on_age():
    with pytest.raises(ParseError):
        parse_rule("Username GREATERTHAN 5")


def test_unknown_identifier_reports_position_and_expected():
    with pytest.raises(ParseError) as err:
        parse_rule("EmailId MATCHES OR Shoe MATCHES")
    assert err.value.position == 19
    assert "FullName" in err.value.expected


def test_dangling_operator():
    with pytest.raises(ParseError):
        parse_rule("EmailId MATCHES AND")


def test_unbalanced_parenthesis():
    with pytest.raises(ParseError) as err:
        parse_rule("(EmailId MATCHES")
    assert ")" in err.value.expected


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse_rule("EmailId MATCHES EmailId")


def test_empty_rule():
    with pytest.raises(ParseError):
        parse_rule("")


def test_render_canonical_form():
    assert render_rule(parse_rule(TWO_CLAUSE_RULE)) == (
        "(FullName MATCHES AND PhoneNumber MATCHES) OR "
        "(Username MATCHES AND Biodata FUZZYMATCHES)")
    assert render_rule(Predicate(K.EMAIL_ID, Operator.EQUALS)) == "EmailId EQUALS"
    assert render_rule(Predicate(K.AGE, Operator.GREATERTHAN, 21)) == "Age GREATERTHAN 21"


def test_render_parse_round_trip(rng):
    kinds = list(K)
    for _ in range(500):
        ast = random_ast(rng, rng.randint(0, 4), kinds)
        assert parse_rule(render_rule(ast)) == ast


def test_nested_parens_preserved():
    ast = parse_rule("(EmailId MATCHES OR Username MATCHES) OR Biodata MATCHES")
    assert ast == Or((
        Or((Predicate(K.EMAIL_ID, Operator.MATCHES),
            Predicate(K.USERNAME, Operator.MATCHES))),
        Predicate(K.BIODATA, Operator.MATCHES),
    ))
    assert parse_rule(render_rule(ast)) == ast


def test_nesting_depth_is_capped():
    def nested(depth: int) -> str:
        return "(" * depth + "Age EQUALS" + ")" * depth

    assert parse_rule(nested(64)) == Predicate(K.AGE, Operator.EQUALS)
    for depth in (65, 5000):  # 5000 is far past the interpreter's stack
        with pytest.raises(ParseError):
            parse_rule(nested(depth))


def test_ast_invariants_enforced():
    with pytest.raises(ValueError):
        And((Predicate(K.EMAIL_ID, Operator.MATCHES),))
    with pytest.raises(ValueError):
        Or((Predicate(K.EMAIL_ID, Operator.MATCHES),))
    with pytest.raises(ValueError):
        Predicate(K.EMAIL_ID, Operator.GREATERTHAN, 5)
    with pytest.raises(ValueError):
        Predicate(K.AGE, Operator.GREATERTHAN)
    with pytest.raises(ValueError):
        Predicate(K.AGE, Operator.MATCHES, 5)
