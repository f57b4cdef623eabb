from __future__ import annotations

import pytest

from sbo.errors import NormalizeError
from sbo.identifiers import (
    IdentifierKind,
    ImageHash,
    normalize_identifier,
)


@pytest.mark.parametrize("kind,raw,expected", [
    (IdentifierKind.PHONE_NUMBER, "+1 (555) 010-0000", "15550100000"),
    (IdentifierKind.EMAIL_ID, " John.Smith@Example.COM ", "john.smith@example.com"),
    (IdentifierKind.FULL_NAME, "John  Smith", "john smith"),
    (IdentifierKind.FULL_NAME, "  John\t Smith \n", "john smith"),
    (IdentifierKind.USERNAME, " JSmith ", "jsmith"),
    (IdentifierKind.GENDER, " Male ", "male"),
    (IdentifierKind.AGE, " 42 ", "42"),
    (IdentifierKind.LOCATION, "New   York,  NY", "new york, ny"),
    (IdentifierKind.BIODATA, "Loves   DOGS", "loves dogs"),
])
def test_normalize_rules(kind, raw, expected):
    assert normalize_identifier(kind, raw) == expected


def test_normalize_age_rejects_non_digits():
    # "²" and "①" pass str.isdigit() but int() refuses them
    for raw in ("forty two", "-1", "²", "①"):
        with pytest.raises(NormalizeError):
            normalize_identifier(IdentifierKind.AGE, raw)


def test_normalize_is_idempotent(rng):
    kinds = [k for k in IdentifierKind if k is not IdentifierKind.PROFILE_IMAGE]
    for _ in range(200):
        kind = rng.choice(kinds)
        raw = "".join(rng.choice(" aB.+-(5)\t") for _ in range(rng.randint(0, 12)))
        if kind is IdentifierKind.AGE:
            raw = str(rng.randint(0, 99))
        once = normalize_identifier(kind, raw)
        assert normalize_identifier(kind, once) == once


def test_normalize_rejects_image_kind():
    with pytest.raises(ValueError):
        normalize_identifier(IdentifierKind.PROFILE_IMAGE, "abc")


def test_image_hash_hex_round_trip():
    h = ImageHash(0x0F0F0F0F0F0F0F0F)
    assert h.to_hex() == "0f0f0f0f0f0f0f0f"
    assert ImageHash.from_hex("0f0f0f0f0f0f0f0f") == h
    assert ImageHash.from_hex("0F0F0F0F0F0F0F0F") == h  # accepted, emitted lowercase


def test_image_hash_validation():
    with pytest.raises(ValueError):
        ImageHash.from_hex("xyz")
    with pytest.raises(ValueError):
        ImageHash.from_hex("0f0f")
    with pytest.raises(ValueError):
        ImageHash(1 << 64)

