"""Identifier vocabulary, value types, and per-kind normalization.

Contacts (entries on a block list) and profiles (candidate app users) are
both bags of typed identifiers. Every kind carries text except ProfileImage,
which carries a 64-bit average hash.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Mapping, Union

from .errors import NormalizeError


class IdentifierKind(str, enum.Enum):
    """Closed set of identifier kinds; unknown kinds are a validation error."""

    FULL_NAME = "FullName"
    EMAIL_ID = "EmailId"
    PHONE_NUMBER = "PhoneNumber"
    PROFILE_IMAGE = "ProfileImage"
    USERNAME = "Username"
    GENDER = "Gender"
    AGE = "Age"
    LOCATION = "Location"
    BIODATA = "Biodata"


class Strictness(str, enum.Enum):
    """Required similarity level, ordered Strict > Medium > Lenient."""

    STRICT = "Strict"
    MEDIUM = "Medium"
    LENIENT = "Lenient"


@dataclass(frozen=True)
class ImageHash:
    """A 64-bit average-hash fingerprint, hex-encoded on the wire."""

    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < 1 << 64:
            raise ValueError(f"image hash out of 64-bit range: {self.bits:#x}")

    def to_hex(self) -> str:
        """16 lowercase hex characters, the wire shape."""
        return f"{self.bits:016x}"

    @classmethod
    def from_hex(cls, text: str) -> "ImageHash":
        if not re.fullmatch(r"[0-9a-fA-F]{16}", text):
            raise ValueError(f"expected 16 hex characters, got {text!r}")
        return cls(int(text, 16))


IdentifierValue = Union[str, ImageHash]
IdentifierMap = Mapping[IdentifierKind, IdentifierValue]


@dataclass(frozen=True)
class ContactRecord:
    """A blocked entry: opaque id plus at least one identifier."""

    contact_id: str
    identifiers: dict[IdentifierKind, IdentifierValue]


@dataclass(frozen=True)
class Profile:
    """A candidate app user, shaped exactly like a contact's identifier bag."""

    profile_id: str
    identifiers: dict[IdentifierKind, IdentifierValue]


_WS = re.compile(r"\s+")
_NON_DIGIT = re.compile(r"\D")


def normalize_identifier(kind: IdentifierKind, raw: str) -> str:
    """Normalize a textual identifier value for matching.

    Raises NormalizeError if an Age value holds anything but decimal digits after
    trimming (a superscript or circled digit is not one: int() refuses it).
    """
    if kind is IdentifierKind.PROFILE_IMAGE:
        raise ValueError("ProfileImage values are hashes, not text")
    if kind is IdentifierKind.EMAIL_ID:
        return raw.strip().lower()
    if kind is IdentifierKind.PHONE_NUMBER:
        return _NON_DIGIT.sub("", raw)
    if kind is IdentifierKind.USERNAME:
        return raw.strip().lower()
    if kind is IdentifierKind.GENDER:
        return raw.strip().lower()
    if kind is IdentifierKind.AGE:
        trimmed = raw.strip()
        if not trimmed.isdecimal():
            raise NormalizeError(f"Age value is not a non-negative integer: {raw!r}")
        return trimmed
    # FullName, Location, Biodata: trim, collapse internal whitespace, lowercase.
    return _WS.sub(" ", raw.strip()).lower()


def normalize_value(kind: IdentifierKind, value: IdentifierValue) -> IdentifierValue:
    """Normalize any identifier value; image hashes pass through unchanged."""
    if isinstance(value, ImageHash):
        return value
    return normalize_identifier(kind, value)
