"""Contact Rule Markup Language: document model and its two wire encodings.

One schema, two encodings. The object format is JSON; the markup format uses
tags whose names equal the object-format keys (no attributes): an object is
its keys as child elements, a list is a container of items tagged by
_ITEM_TAGS, and a string is element text. Both parse into the same document
model through one decoder, which is also the only validator, and
serialization is deterministic: a given document always yields
byte-identical text.
"""

from __future__ import annotations

import enum
import json
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from datetime import datetime, timezone

from .errors import CRMLSyntaxError, ParseError, RuleError, SchemaError
from .identifiers import (
    ContactRecord,
    IdentifierKind,
    IdentifierMap,
    IdentifierValue,
    ImageHash,
    Strictness,
)
from .rules import cached_parse_rule

CRML_VERSION = "1.0"

_DOC_KEYS = ("crml_version", "provider", "account", "issued_at", "block_lists")
_LIST_KEYS = ("name", "strictness", "rule_text", "contacts")
_CONTACT_KEYS = ("contact_id", "identifiers")
_TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
_TIMESTAMP_RE = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z")


class WireFormat(str, enum.Enum):
    OBJECT = "object"
    MARKUP = "markup"


def format_timestamp(at: datetime) -> str:
    """The wire form of a UTC instant at seconds precision, e.g. 2025-01-01T00:00:00Z."""
    return at.strftime(_TIMESTAMP_FORMAT)


def parse_timestamp(text: str) -> datetime:
    """Inverse of format_timestamp; raises ValueError on any other shape."""
    if not _TIMESTAMP_RE.fullmatch(text):
        raise ValueError(f"expected UTC seconds precision, got {text!r}")
    return datetime.strptime(text, _TIMESTAMP_FORMAT).replace(tzinfo=timezone.utc)


@dataclass(frozen=True)
class BlockListRecord:
    name: str
    strictness: Strictness
    rule_text: str
    contacts: tuple[ContactRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "contacts", tuple(self.contacts))


@dataclass(frozen=True)
class CRMLDocument:
    """The wire artifact a provider exports. Immutable after construction.

    issued_at is held in UTC at seconds precision; sub-second detail is
    dropped on construction so round-trips are exact.
    """

    crml_version: str
    provider: str
    account: str
    issued_at: datetime
    block_lists: tuple[BlockListRecord, ...]

    def __post_init__(self) -> None:
        at = self.issued_at
        if at.tzinfo is None:
            at = at.replace(tzinfo=timezone.utc)
        at = at.astimezone(timezone.utc).replace(microsecond=0)
        object.__setattr__(self, "issued_at", at)
        object.__setattr__(self, "block_lists", tuple(self.block_lists))


# --- shared raw tree: the object-format shape, used by both encodings ---

def encode_contact(contact: ContactRecord) -> dict:
    """Wire shape of a contact; the inverse of decode_contact."""
    return {"contact_id": contact.contact_id,
            "identifiers": encode_identifier_map(contact.identifiers)}


def encode_block_list(block_list: BlockListRecord) -> dict:
    """Wire shape of a block list; the inverse of decode_block_list."""
    return {
        "name": block_list.name,
        "strictness": block_list.strictness.value,
        "rule_text": block_list.rule_text,
        "contacts": [encode_contact(c) for c in block_list.contacts],
    }


def _doc_to_raw(doc: CRMLDocument) -> dict:
    return {
        "crml_version": doc.crml_version,
        "provider": doc.provider,
        "account": doc.account,
        "issued_at": format_timestamp(doc.issued_at),
        "block_lists": [encode_block_list(bl) for bl in doc.block_lists],
    }


def _require_keys(raw: dict, keys: tuple[str, ...], path: str) -> None:
    for key in keys:
        if key not in raw:
            raise SchemaError(f"missing field {key!r} at {path}")
    for key in raw:
        if key not in keys:
            raise SchemaError(f"unknown field {key!r} at {path}")


def _require_str(value: object, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"expected a string at {path}")
    return value


def _raw_to_value(kind: IdentifierKind, raw: object, path: str) -> IdentifierValue:
    if kind is IdentifierKind.PROFILE_IMAGE:
        if not isinstance(raw, dict):
            raise SchemaError(f"ProfileImage value must be an object at {path}")
        _require_keys(raw, ("phash64",), path)
        try:
            return ImageHash.from_hex(_require_str(raw["phash64"], f"{path}.phash64"))
        except ValueError as exc:
            raise SchemaError(f"bad phash64 at {path}: {exc}") from exc
    return _require_str(raw, path)


def parse_identifier_map(raw: object, path: str = "identifiers") -> dict[IdentifierKind, IdentifierValue]:
    """Decode a wire-shaped identifier map, rejecting unknown kinds and bad shapes."""
    if not isinstance(raw, dict):
        raise SchemaError(f"expected an object at {path}")
    out: dict[IdentifierKind, IdentifierValue] = {}
    for key, value in raw.items():
        try:
            kind = IdentifierKind(key)
        except ValueError:
            raise SchemaError(f"unknown identifier kind {key!r} at {path}") from None
        out[kind] = _raw_to_value(kind, value, f"{path}.{key}")
    return out


def encode_identifier_map(identifiers: IdentifierMap) -> dict:
    """Wire shape of an identifier map; the inverse of parse_identifier_map."""
    return {
        kind.value: {"phash64": v.to_hex()} if isinstance(v, ImageHash) else v
        for kind, v in identifiers.items()
    }


def decode_contact(raw: object, path: str) -> ContactRecord:
    """Decode a wire-shaped contact with at least one identifier, naming path in errors."""
    if not isinstance(raw, dict):
        raise SchemaError(f"expected an object at {path}")
    _require_keys(raw, _CONTACT_KEYS, path)
    identifiers = parse_identifier_map(raw["identifiers"], f"{path}.identifiers")
    if not identifiers:
        raise SchemaError(f"empty identifier set at {path}.identifiers")
    return ContactRecord(_require_str(raw["contact_id"], f"{path}.contact_id"), identifiers)


def check_rule(rule_text: str, list_name: str) -> str:
    """rule_text if it parses under the rule grammar; else a RuleError naming the list."""
    try:
        cached_parse_rule(rule_text)
    except ParseError as exc:
        raise RuleError(f"rule text of list {list_name!r} fails the grammar: {exc}",
                        list_name=list_name) from exc
    return rule_text


def decode_block_list(raw: object, path: str) -> BlockListRecord:
    """Decode a wire-shaped block list with unique contact ids and a valid rule.

    Shape errors name path (SchemaError); bad rule text names the list (RuleError).
    """
    if not isinstance(raw, dict):
        raise SchemaError(f"expected an object at {path}")
    _require_keys(raw, _LIST_KEYS, path)
    name = _require_str(raw["name"], f"{path}.name")
    strictness_raw = _require_str(raw["strictness"], f"{path}.strictness")
    try:
        strictness = Strictness(strictness_raw)
    except ValueError:
        raise SchemaError(f"unknown strictness {strictness_raw!r} at {path}") from None
    rule_text = check_rule(_require_str(raw["rule_text"], f"{path}.rule_text"), name)
    if not isinstance(raw["contacts"], list):
        raise SchemaError(f"expected a list at {path}.contacts")
    contacts: dict[str, ContactRecord] = {}
    for j, raw_contact in enumerate(raw["contacts"]):
        contact = decode_contact(raw_contact, f"{path}.contacts[{j}]")
        if contact.contact_id in contacts:
            raise SchemaError(f"duplicate contact id {contact.contact_id!r} "
                              f"at {path}.contacts[{j}]")
        contacts[contact.contact_id] = contact
    return BlockListRecord(name, strictness, rule_text, tuple(contacts.values()))


def _raw_to_doc(raw: object) -> CRMLDocument:
    if not isinstance(raw, dict):
        raise SchemaError("document must be an object")
    _require_keys(raw, _DOC_KEYS, "document")
    version = _require_str(raw["crml_version"], "crml_version")
    if version != CRML_VERSION:
        raise SchemaError(f"unsupported crml_version {version!r}")
    provider = _require_str(raw["provider"], "provider")
    account = _require_str(raw["account"], "account")
    if not provider or not account:
        raise SchemaError("provider and account must be non-empty")
    try:
        issued_at = parse_timestamp(_require_str(raw["issued_at"], "issued_at"))
    except ValueError as exc:
        raise SchemaError(f"bad issued_at: {exc}") from exc
    if not isinstance(raw["block_lists"], list):
        raise SchemaError("expected a list at block_lists")
    block_lists: dict[str, BlockListRecord] = {}
    for i, raw_list in enumerate(raw["block_lists"]):
        block_list = decode_block_list(raw_list, f"block_lists[{i}]")
        if block_list.name in block_lists:
            raise SchemaError(f"duplicate list name {block_list.name!r} at block_lists[{i}]")
        block_lists[block_list.name] = block_list
    return CRMLDocument(version, provider, account, issued_at, tuple(block_lists.values()))


# --- object format (JSON) ---

def _reject_duplicate_keys(pairs: list[tuple[str, object]]) -> dict:
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise SchemaError(f"duplicate field {key!r}")
        out[key] = value
    return out


def _parse_object(text: str) -> object:
    try:
        return json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise CRMLSyntaxError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except (RecursionError, ValueError) as exc:  # deep nesting; integers over 4,300 digits
        raise CRMLSyntaxError(f"unreadable document: {exc}") from exc


def _serialize_object(raw: dict) -> str:
    return json.dumps(raw, separators=(",", ":"), ensure_ascii=False)


# --- markup format (tags named after the object-format keys) ---

_ITEM_TAGS = {"block_lists": "block_list", "contacts": "contact"}
# crml > block_lists > block_list > contacts > contact > identifiers > ProfileImage > phash64
_MAX_DEPTH = 8


def _raw_to_element(tag: str, value: dict | list | str) -> ET.Element:
    element = ET.Element(tag)
    if isinstance(value, dict):
        element.extend(_raw_to_element(key, child) for key, child in value.items())
    elif isinstance(value, list):
        element.extend(_raw_to_element(_ITEM_TAGS[tag], item) for item in value)
    elif value:
        element.text = value
    return element


def _element_to_raw(element: ET.Element, path: str, depth: int = 1) -> dict | list | str:
    """Inverse of _raw_to_element; which fields must be present is _raw_to_doc's check."""
    if depth > _MAX_DEPTH:
        raise SchemaError(f"nesting deeper than the schema at {path}")
    if element.attrib:
        raise SchemaError(f"attributes are not part of the schema at {path}")
    item_tag = _ITEM_TAGS.get(element.tag)
    if item_tag is None and not len(element):
        return element.text or ""
    if (element.text or "").strip() or any((child.tail or "").strip() for child in element):
        raise SchemaError(f"unexpected text content at {path}")
    if item_tag is not None:
        items = []
        for i, child in enumerate(element):
            if child.tag != item_tag:
                raise SchemaError(f"unknown field {child.tag!r} at {path}[{i}]")
            items.append(_element_to_raw(child, f"{path}[{i}]", depth + 1))
        return items
    fields: dict = {}
    for child in element:
        if child.tag in fields:
            raise SchemaError(f"duplicate field {child.tag!r} at {path}")
        fields[child.tag] = child
    return {tag: _element_to_raw(child, tag if depth == 1 else f"{path}.{tag}", depth + 1)
            for tag, child in fields.items()}


def _parse_markup(text: str) -> object:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, column = exc.position
        raise CRMLSyntaxError(str(exc), line=line, column=column) from exc
    if root.tag != "crml":
        raise SchemaError(f"expected root tag 'crml', got {root.tag!r}")
    return _element_to_raw(root, "document")


def _serialize_markup(raw: dict) -> str:
    return ET.tostring(_raw_to_element("crml", raw), encoding="unicode")


# --- public entry points ---

def parse_crml(text: str, format: WireFormat) -> CRMLDocument:
    """Parse wire text in the named encoding into a validated document.

    Raises CRMLSyntaxError (malformed encoding, position reported), SchemaError
    (missing/unknown field, bad version, empty provider or account, duplicate
    list names or contact ids, an empty identifier set), or RuleError (a list's
    rule_text fails the grammar; the offending list is named). The first fault
    met while decoding is the one reported.
    """
    if format is WireFormat.OBJECT:
        return _raw_to_doc(_parse_object(text))
    return _raw_to_doc(_parse_markup(text))


def serialize_crml(doc: CRMLDocument, format: WireFormat) -> str:
    """Serialize a valid document; same document, same bytes, always."""
    raw = _doc_to_raw(doc)
    if format is WireFormat.OBJECT:
        return _serialize_object(raw)
    return _serialize_markup(raw)
