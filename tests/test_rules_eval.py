from __future__ import annotations

import pytest

from sbo.errors import EvalError
from sbo.identifiers import ContactRecord, IdentifierKind as K, ImageHash, Profile, Strictness
from sbo.rules import (
    And,
    MatchThresholds,
    Operator,
    Predicate,
    default_rule,
    evaluate_rule,
    parse_rule,
    render_rule,
)
from sbo.scenario import load_thresholds

from .oracles import fold_evaluate, random_ast, random_bag

S, M, L = Strictness.STRICT, Strictness.MEDIUM, Strictness.LENIENT


def contact(**kv) -> ContactRecord:
    return ContactRecord("c-001", {K(k): v for k, v in kv.items()})


def profile(**kv) -> Profile:
    return Profile("p-001", {K(k): v for k, v in kv.items()})


def test_matches_thresholds_text():
    # one edit in a 9-char name: similarity 8/9 ~ 0.889
    c = contact(FullName="Johnsmith")
    p = profile(FullName="Jonsmith")
    rule = Predicate(K.FULL_NAME, Operator.MATCHES)
    assert not evaluate_rule(rule, c, p, S).matched
    assert evaluate_rule(rule, c, p, M).matched
    assert evaluate_rule(rule, c, p, L).matched


def test_matches_boundary_is_inclusive():
    # similarity exactly 0.75 passes Medium
    c = contact(Username="abcd")
    p = profile(Username="abcx")
    assert evaluate_rule(Predicate(K.USERNAME, Operator.MATCHES), c, p, M).matched
    # similarity exactly 0.9 passes Strict
    c2 = contact(Username="abcdefghij")
    p2 = profile(Username="abcdefghix")
    assert evaluate_rule(Predicate(K.USERNAME, Operator.MATCHES), c2, p2, S).matched


def test_matches_image_thresholds():
    base = 0x0123456789ABCDEF
    rule = Predicate(K.PROFILE_IMAGE, Operator.MATCHES)
    for flipped, verdicts in [(4, (True, True, True)), (10, (False, True, True)),
                              (16, (False, False, True)), (17, (False, False, False))]:
        other = base
        for bit in range(flipped):
            other ^= 1 << bit
        c = contact(ProfileImage=ImageHash(base))
        p = profile(ProfileImage=ImageHash(other))
        got = tuple(evaluate_rule(rule, c, p, level).matched for level in (S, M, L))
        assert got == verdicts, f"{flipped} flipped bits -> {got}"


def test_fuzzymatches_ignores_strictness():
    c = contact(Biodata="security researcher and cat lover")
    p = profile(Biodata="security researcher and bat lover")
    rule = Predicate(K.BIODATA, Operator.FUZZYMATCHES)
    results = {level: evaluate_rule(rule, c, p, level).matched for level in (S, M, L)}
    assert results[S] == results[M] == results[L] is True


def test_equals_uses_normalized_values():
    c = contact(EmailId="John.Smith@Example.com")
    p = profile(EmailId=" john.smith@EXAMPLE.com ")
    assert evaluate_rule(Predicate(K.EMAIL_ID, Operator.EQUALS), c, p, S).matched
    p2 = profile(EmailId="john.smith@example.org")
    assert not evaluate_rule(Predicate(K.EMAIL_ID, Operator.EQUALS), c, p2, L).matched


def test_equals_on_images():
    c = contact(ProfileImage=ImageHash(42))
    assert evaluate_rule(Predicate(K.PROFILE_IMAGE, Operator.EQUALS), c,
                         profile(ProfileImage=ImageHash(42)), S).matched
    assert not evaluate_rule(Predicate(K.PROFILE_IMAGE, Operator.EQUALS), c,
                             profile(ProfileImage=ImageHash(43)), L).matched


def test_absent_kind_is_false_on_either_side():
    rule = Predicate(K.USERNAME, Operator.MATCHES)
    result = evaluate_rule(rule, contact(EmailId="a@b.c"), profile(Username="x"), L)
    assert not result.matched
    assert result.trace[0].detail == "Username absent on contact side"
    result = evaluate_rule(rule, contact(Username="x"), profile(EmailId="a@b.c"), L)
    assert not result.matched
    assert result.trace[0].detail == "Username absent on profile side"


def test_no_shared_kinds_never_matches(rng):
    rule = parse_rule("(FullName MATCHES AND PhoneNumber MATCHES) OR "
                      "(Username MATCHES AND Biodata FUZZYMATCHES)")
    c = contact(FullName="John Smith", PhoneNumber="15550100000")
    p = profile(EmailId="x@y.z", Gender="male")
    for level in (S, M, L):
        assert not evaluate_rule(rule, c, p, level).matched


def test_greaterthan_compares_profile_value():
    rule = Predicate(K.AGE, Operator.GREATERTHAN, 18)
    c = contact(Age="99")  # only presence matters on the contact side
    assert evaluate_rule(rule, c, profile(Age="19"), S).matched
    assert not evaluate_rule(rule, c, profile(Age="18"), S).matched
    assert not evaluate_rule(rule, contact(EmailId="a@b.c"), profile(Age="19"), S).matched


def test_greaterthan_type_mismatch_raises():
    rule = Predicate(K.AGE, Operator.GREATERTHAN, 18)
    with pytest.raises(EvalError):
        evaluate_rule(rule, contact(Age="30"), profile(Age="unknown"), S)


def test_age_matches_with_bad_value_raises_eval_error():
    rule = Predicate(K.AGE, Operator.MATCHES)
    with pytest.raises(EvalError):
        evaluate_rule(rule, contact(Age="30"), profile(Age="old"), L)


def test_trace_is_complete_no_short_circuit():
    rule = parse_rule("EmailId EQUALS OR Username MATCHES OR Biodata MATCHES")
    c = contact(EmailId="a@b.c", Username="jsmith", Biodata="hello")
    p = profile(EmailId="a@b.c", Username="jsmith", Biodata="hello")
    result = evaluate_rule(rule, c, p, M)
    assert result.matched
    assert [o.kind for o in result.trace] == [K.EMAIL_ID, K.USERNAME, K.BIODATA]
    assert all(o.verdict for o in result.trace)


def test_matched_equals_fold_of_trace_verdicts(rng):
    kinds = [K.USERNAME, K.BIODATA, K.AGE]
    for _ in range(300):
        ast = random_ast(rng, rng.randint(0, 3), kinds)
        c = ContactRecord("c-001", random_bag(rng, kinds))
        p = Profile("p-001", random_bag(rng, kinds))
        result = evaluate_rule(ast, c, p, rng.choice([S, M, L]))
        verdicts = iter(o.verdict for o in result.trace)

        def fold(node):
            if isinstance(node, Predicate):
                return next(verdicts)
            values = [fold(child) for child in node.children]
            return all(values) if isinstance(node, And) else any(values)

        assert result.matched == fold(ast)


def test_oracle_equivalence_sample(rng):
    kinds = [K.USERNAME, K.AGE, K.PROFILE_IMAGE]
    for _ in range(1000):
        ast = random_ast(rng, rng.randint(0, 4), kinds)
        c = ContactRecord("c-001", random_bag(rng, kinds))
        p = Profile("p-001", random_bag(rng, kinds))
        level = rng.choice([S, M, L])
        assert evaluate_rule(ast, c, p, level).matched == fold_evaluate(ast, c, p, level)


def test_strictness_monotonicity(rng):
    kinds = [K.USERNAME, K.FULL_NAME, K.PROFILE_IMAGE]
    rule_by_kind = {k: Predicate(k, Operator.MATCHES) for k in kinds}
    for _ in range(400):
        kind = rng.choice(kinds)
        bag_c = random_bag(rng, [kind], present_p=1.0)
        bag_p = random_bag(rng, [kind], present_p=1.0)
        c, p = ContactRecord("c", bag_c), Profile("p", bag_p)
        strict = evaluate_rule(rule_by_kind[kind], c, p, S).matched
        medium = evaluate_rule(rule_by_kind[kind], c, p, M).matched
        lenient = evaluate_rule(rule_by_kind[kind], c, p, L).matched
        assert (not strict or medium) and (not medium or lenient)


def test_default_rule_shape():
    assert render_rule(default_rule()) == (
        "EmailId EQUALS OR PhoneNumber EQUALS OR "
        "(Username MATCHES AND FullName MATCHES)")
    assert parse_rule(render_rule(default_rule())) == default_rule()


def test_default_rule_equal_email_matches():
    c = contact(EmailId="John.Smith@example.com")
    p = profile(EmailId="john.smith@example.com")
    assert evaluate_rule(default_rule(), c, p, S).matched


def test_default_rule_similarity_08_passes_medium_not_strict():
    # both similarities exactly 0.8: 1 edit over 5 chars
    c = contact(Username="smith", FullName="johns")
    p = profile(Username="smitt", FullName="johnz")
    assert evaluate_rule(default_rule(), c, p, M).matched
    assert not evaluate_rule(default_rule(), c, p, S).matched


def test_two_clause_rule_second_clause_route(canonical_doc):
    base = canonical_doc.block_lists[0].contacts[0]
    enriched = ContactRecord(base.contact_id, {
        **base.identifiers, K.BIODATA: "security researcher and cat lover"})
    rule = parse_rule(canonical_doc.block_lists[0].rule_text)
    p = Profile("p", {K.USERNAME: "jsmith",
                      K.BIODATA: "security researcher and bat lover"})
    result = evaluate_rule(rule, enriched, p, M)
    assert result.matched
    by_kind = {o.kind: o.verdict for o in result.trace}
    assert by_kind[K.FULL_NAME] is False and by_kind[K.PHONE_NUMBER] is False
    assert by_kind[K.USERNAME] is True and by_kind[K.BIODATA] is True


def test_threshold_overrides():
    thresholds = load_thresholds({"text": {"Strict": 0.85}}, "thresholds")
    assert thresholds.text_strict == 0.85
    assert thresholds.text_medium == 0.75  # untouched levels keep defaults
    c = contact(FullName="Johnsmith")  # similarity 8/9 ~ 0.889
    p = profile(FullName="Jonsmith")
    rule = Predicate(K.FULL_NAME, Operator.MATCHES)
    assert not evaluate_rule(rule, c, p, S).matched
    assert evaluate_rule(rule, c, p, S, thresholds).matched


def test_disordered_thresholds_rejected():
    with pytest.raises(ValueError):
        MatchThresholds(text_medium=0.95)  # above Strict
    with pytest.raises(ValueError):
        MatchThresholds(image_medium=2)  # below Strict
