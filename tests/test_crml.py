from __future__ import annotations

import copy
import json
import re
import xml.etree.ElementTree as ET
from datetime import datetime, timezone
from pathlib import Path
from random import Random

import pytest

from sbo.crml import (
    BlockListRecord,
    CRMLDocument,
    Violation,
    WireFormat,
    parse_crml,
    serialize_crml,
    validate_document,
)
from sbo.errors import CRMLSyntaxError, RuleError, SchemaError
from sbo.identifiers import ContactRecord, IdentifierKind as K, ImageHash, Strictness

from .conftest import CANONICAL_TEXT
from .oracles import random_document

GOLDEN = Path(__file__).parent / "golden"


def minimal_doc() -> CRMLDocument:
    return CRMLDocument(
        crml_version="1.0",
        provider="sbo.aws.com",
        account="alexandergrahambell",
        issued_at=datetime(2025, 1, 1, tzinfo=timezone.utc),
        block_lists=(BlockListRecord(
            "Block List 1", Strictness.MEDIUM,
            "EmailId EQUALS OR PhoneNumber EQUALS OR "
            "(Username MATCHES AND FullName MATCHES)", ()),),
    )


def test_canonical_document_fields(canonical_doc):
    assert canonical_doc.provider == "sbo.aws.com"
    assert canonical_doc.account == "alexandergrahambell"
    assert len(canonical_doc.block_lists) == 1
    block_list = canonical_doc.block_lists[0]
    assert block_list.name == "Block List 1"
    assert block_list.strictness is Strictness.MEDIUM
    contact = block_list.contacts[0]
    assert contact.contact_id == "c-001"
    assert contact.identifiers[K.FULL_NAME] == "John Smith"
    assert contact.identifiers[K.PHONE_NUMBER] == "15550100000"


def test_canonical_reserializes_byte_exactly(canonical_doc):
    assert serialize_crml(canonical_doc, WireFormat.OBJECT) == CANONICAL_TEXT


def test_round_trip_identity_both_formats(canonical_doc):
    for fmt in WireFormat:
        assert parse_crml(serialize_crml(canonical_doc, fmt), fmt) == canonical_doc


def test_serialize_is_deterministic(canonical_doc):
    for fmt in WireFormat:
        assert serialize_crml(canonical_doc, fmt) == serialize_crml(canonical_doc, fmt)


def test_golden_minimal_object():
    assert serialize_crml(minimal_doc(), WireFormat.OBJECT) == \
        (GOLDEN / "minimal.crml.json").read_text()


def test_golden_minimal_markup():
    assert serialize_crml(minimal_doc(), WireFormat.MARKUP) == \
        (GOLDEN / "minimal.crml.xml").read_text()


def contacts_doc() -> CRMLDocument:
    return CRMLDocument(
        crml_version="1.0",
        provider="sbo.aws.com",
        account="alexandergrahambell",
        issued_at=datetime(2025, 1, 1, tzinfo=timezone.utc),
        block_lists=(
            BlockListRecord(
                "Block List 1", Strictness.MEDIUM,
                "EmailId EQUALS OR (Username MATCHES AND ProfileImage MATCHES)",
                (ContactRecord("c-001", {K.EMAIL_ID: "mallory@example.com",
                                         K.USERNAME: "mallory",
                                         K.PROFILE_IMAGE: ImageHash(0xDEADBEEF)}),
                 ContactRecord("c-002", {K.FULL_NAME: "Eve <E> & Co",
                                         K.BIODATA: 'likes "quotes"'}))),
            BlockListRecord("Empty", Strictness.STRICT, "ProfileImage EQUALS", ()),
        ),
    )


def test_golden_contacts_markup():
    """Every level of the markup, down to phash64, pinned byte for byte."""
    golden = (GOLDEN / "contacts.crml.xml").read_text()
    assert serialize_crml(contacts_doc(), WireFormat.MARKUP) == golden
    assert parse_crml(golden, WireFormat.MARKUP) == contacts_doc()


def test_markup_tags_equal_object_keys(canonical_doc):
    object_keys = set()

    def walk(node):
        if isinstance(node, dict):
            for key, value in node.items():
                object_keys.add(key)
                walk(value)
        elif isinstance(node, list):
            for item in node:
                walk(item)

    walk(json.loads(serialize_crml(canonical_doc, WireFormat.OBJECT)))
    markup_tags = {el.tag for el in
                   ET.fromstring(serialize_crml(canonical_doc, WireFormat.MARKUP)).iter()}
    assert object_keys <= markup_tags


def test_round_trip_generated_documents(rng):
    for _ in range(200):
        doc = random_document(rng)
        for fmt in WireFormat:
            assert parse_crml(serialize_crml(doc, fmt), fmt) == doc


def test_cross_format_agreement(rng):
    for _ in range(100):
        doc = random_document(rng)
        from_object = parse_crml(serialize_crml(doc, WireFormat.OBJECT), WireFormat.OBJECT)
        from_markup = parse_crml(serialize_crml(doc, WireFormat.MARKUP), WireFormat.MARKUP)
        assert from_object == from_markup == doc


def test_image_hash_on_the_wire(canonical_doc):
    doc = CRMLDocument(
        "1.0", "sbo.aws.com", "acct", datetime(2025, 1, 1, tzinfo=timezone.utc),
        (BlockListRecord("L", Strictness.STRICT, "ProfileImage MATCHES",
                         (ContactRecord("c-001",
                                        {K.PROFILE_IMAGE: ImageHash(0xDEADBEEF)}),)),))
    text = serialize_crml(doc, WireFormat.OBJECT)
    assert '"ProfileImage":{"phash64":"00000000deadbeef"}' in text
    assert parse_crml(text, WireFormat.OBJECT) == doc


def test_issued_at_truncated_and_utc():
    doc = CRMLDocument("1.0", "p", "a",
                       datetime(2025, 6, 1, 12, 0, 0, 999999), ())
    assert doc.issued_at == datetime(2025, 6, 1, 12, tzinfo=timezone.utc)
    for fmt in WireFormat:
        assert parse_crml(serialize_crml(doc, fmt), fmt) == doc


def test_unknown_version_rejected():
    text = CANONICAL_TEXT.replace('"crml_version":"1.0"', '"crml_version":"2.0"')
    with pytest.raises(SchemaError):
        parse_crml(text, WireFormat.OBJECT)


def test_bad_json_reports_position():
    with pytest.raises(CRMLSyntaxError) as err:
        parse_crml('{"crml_version":', WireFormat.OBJECT)
    assert err.value.line is not None and err.value.column is not None


def test_bad_markup_reports_position():
    with pytest.raises(CRMLSyntaxError) as err:
        parse_crml("<crml><provider>x</crml>", WireFormat.MARKUP)
    assert err.value.line is not None


def test_duplicate_json_keys_rejected():
    text = CANONICAL_TEXT.replace('"provider":"sbo.aws.com"',
                                  '"provider":"sbo.aws.com","provider":"sbo.aws.com"')
    with pytest.raises(SchemaError):
        parse_crml(text, WireFormat.OBJECT)


def test_rule_error_names_offending_list():
    text = CANONICAL_TEXT.replace(
        "(FullName MATCHES AND PhoneNumber MATCHES) OR "
        "(Username MATCHES AND Biodata FUZZYMATCHES)",
        "FullName NONSENSE")
    with pytest.raises(RuleError) as err:
        parse_crml(text, WireFormat.OBJECT)
    assert err.value.list_name == "Block List 1"


def test_validate_canonical_is_clean(canonical_doc):
    assert validate_document(canonical_doc) == []


def test_validate_duplicate_list_name(canonical_doc):
    doc = CRMLDocument(
        canonical_doc.crml_version, canonical_doc.provider, canonical_doc.account,
        canonical_doc.issued_at,
        canonical_doc.block_lists + canonical_doc.block_lists)
    assert Violation("DuplicateListName", "block_lists[1]") in validate_document(doc)


def test_validate_empty_identifier_set():
    doc = CRMLDocument(
        "1.0", "p", "a", datetime(2025, 1, 1, tzinfo=timezone.utc),
        (BlockListRecord("L", Strictness.MEDIUM, "EmailId EQUALS",
                         (ContactRecord("c-001", {}),)),))
    violations = validate_document(doc)
    assert Violation("EmptyIdentifierSet", "block_lists[0].contacts[0].identifiers") \
        in violations


def test_validate_duplicate_contact_id():
    contact = ContactRecord("c-001", {K.EMAIL_ID: "a@b.c"})
    doc = CRMLDocument(
        "1.0", "p", "a", datetime(2025, 1, 1, tzinfo=timezone.utc),
        (BlockListRecord("L", Strictness.MEDIUM, "EmailId EQUALS", (contact, contact)),))
    assert Violation("DuplicateContactId", "block_lists[0].contacts[1]") \
        in validate_document(doc)


def test_validate_wrong_value_shape():
    doc = CRMLDocument(
        "1.0", "p", "a", datetime(2025, 1, 1, tzinfo=timezone.utc),
        (BlockListRecord("L", Strictness.MEDIUM, "EmailId EQUALS",
                         (ContactRecord("c-001", {K.PROFILE_IMAGE: "not-a-hash"}),)),))
    codes = {v.code for v in validate_document(doc)}
    assert "WrongValueShape" in codes


def test_validate_empty_provider_account_and_version():
    doc = CRMLDocument("3.0", "", "", datetime(2025, 1, 1, tzinfo=timezone.utc), ())
    codes = {v.code for v in validate_document(doc)}
    assert codes == {"BadVersion", "EmptyProvider", "EmptyAccount"}


def _corruptions(raw: dict):
    """Targeted structural corruption: field deletion and duplication."""
    for key in list(raw):
        broken = {k: v for k, v in raw.items() if k != key}
        yield f"drop {key}", broken
    dup_list = json.loads(json.dumps(raw))
    if dup_list["block_lists"]:
        dup_list["block_lists"].append(dup_list["block_lists"][0])
        yield "duplicate list", dup_list
        empty_ids = json.loads(json.dumps(raw))
        empty_ids["block_lists"][0]["contacts"][0]["identifiers"] = {}
        yield "empty identifiers", empty_ids
        dup_contact = json.loads(json.dumps(raw))
        contacts = dup_contact["block_lists"][0]["contacts"]
        contacts.append(contacts[0])
        yield "duplicate contact id", dup_contact
        unknown_kind = json.loads(json.dumps(raw))
        unknown_kind["block_lists"][0]["contacts"][0]["identifiers"]["ShoeSize"] = "42"
        yield "unknown kind", unknown_kind
    bad_extra = json.loads(json.dumps(raw))
    bad_extra["surprise"] = 1
    yield "unknown top-level field", bad_extra


def test_rejection_completeness_object_format():
    raw = json.loads(CANONICAL_TEXT)
    for label, broken in _corruptions(raw):
        with pytest.raises((SchemaError, RuleError)):
            parse_crml(json.dumps(broken), WireFormat.OBJECT)


def test_markup_rejects_attributes_and_unknown_tags(canonical_doc):
    text = serialize_crml(canonical_doc, WireFormat.MARKUP)
    root = ET.fromstring(text)
    root.set("version", "1.0")
    with pytest.raises(SchemaError):
        parse_crml(ET.tostring(root, encoding="unicode"), WireFormat.MARKUP)
    root = ET.fromstring(text)
    ET.SubElement(root, "surprise")
    with pytest.raises(SchemaError):
        parse_crml(ET.tostring(root, encoding="unicode"), WireFormat.MARKUP)
    root = ET.fromstring(text)
    root.append(root.find("provider"))  # duplicated scalar element
    with pytest.raises(SchemaError):
        parse_crml(ET.tostring(root, encoding="unicode"), WireFormat.MARKUP)
    root = ET.fromstring(text)
    root.find("block_lists/block_list").tag = "contact"  # item tag of another container
    with pytest.raises(SchemaError):
        parse_crml(ET.tostring(root, encoding="unicode"), WireFormat.MARKUP)


def test_markup_escapes_special_characters():
    doc = CRMLDocument(
        "1.0", "sbo.aws.com", 'a & b <c> "d"', datetime(2025, 1, 1, tzinfo=timezone.utc),
        (BlockListRecord("L&M", Strictness.MEDIUM, "EmailId EQUALS",
                         (ContactRecord("c-001",
                                        {K.BIODATA: "loves <tags> & ampersands"}),)),))
    for fmt in WireFormat:
        assert parse_crml(serialize_crml(doc, fmt), fmt) == doc
    markup = serialize_crml(doc, WireFormat.MARKUP)
    assert "&amp;" in markup and "&lt;" in markup


def test_markup_accepts_indented_input(canonical_doc):
    compact = serialize_crml(canonical_doc, WireFormat.MARKUP)
    pretty = (compact
              .replace("<block_lists>", "\n  <block_lists>\n    ")
              .replace("</block_list>", "</block_list>\n  ")
              .replace("<contacts>", "<contacts>\n      "))
    assert parse_crml(pretty, WireFormat.MARKUP) == canonical_doc


def test_wire_hash_case_is_normalized():
    text = ('{"crml_version":"1.0","provider":"p","account":"a",'
            '"issued_at":"2025-01-01T00:00:00Z","block_lists":[{"name":"L",'
            '"strictness":"Strict","rule_text":"ProfileImage EQUALS","contacts":'
            '[{"contact_id":"c-001","identifiers":{"ProfileImage":'
            '{"phash64":"00000000DEADBEEF"}}}]}]}')
    doc = parse_crml(text, WireFormat.OBJECT)
    out = serialize_crml(doc, WireFormat.OBJECT)
    assert '"phash64":"00000000deadbeef"' in out


_SCHEMA_TAGS = ("crml", "crml_version", "provider", "account", "issued_at", "block_lists",
                "block_list", "name", "strictness", "rule_text", "contacts", "contact",
                "contact_id", "identifiers", "EmailId", "ProfileImage", "phash64", "surprise")


def mutate_markup(text: str, rng: Random) -> str:
    """One to three random structural or textual edits of a markup document."""
    for _ in range(rng.randint(1, 3)):
        root = ET.fromstring(text)
        parents = {child: parent for parent in root.iter() for child in parent}
        elements = list(root.iter())
        target = rng.choice(elements)
        op = rng.randrange(10)
        if op == 0 and target in parents:
            parents[target].remove(target)
        elif op == 1 and target in parents:
            parents[target].append(copy.deepcopy(target))
        elif op == 2:
            target.tag = rng.choice(_SCHEMA_TAGS)
        elif op == 3:
            target.set(rng.choice(_SCHEMA_TAGS), "1")
        elif op == 4:
            target.text = rng.choice(["", " ", "\n  ", "x", "00000000deadbeef", "1.0"])
        elif op == 5 and target in parents:
            target.tail = rng.choice([" ", "\n", "x"])
        elif op == 6:
            for _ in range(rng.randint(1, 12)):
                target = ET.SubElement(target, rng.choice(_SCHEMA_TAGS))
        elif op == 7:
            target[:] = []
        elif op == 8:
            moved = rng.choice(elements)
            if moved in parents and moved is not target and moved not in target.iter() \
                    and target not in moved.iter():
                parents[moved].remove(moved)
                target.append(moved)
        else:
            text = ET.tostring(root, encoding="unicode")
            at = rng.randrange(len(text))
            return text[:at] + rng.choice(["", "<", ">", "/", "&", "<a>", "</a>"]) \
                + text[at + rng.randint(0, 3):]
        text = ET.tostring(root, encoding="unicode")
    return text


def test_mutated_markup_parses_or_raises_a_crml_error(rng, canonical_doc):
    """A mutated document either decodes to what its object form decodes to, or is refused."""
    parsed = refused = 0
    for _ in range(1500):
        doc = rng.choice([canonical_doc, contacts_doc(), random_document(rng)])
        text = mutate_markup(serialize_crml(doc, WireFormat.MARKUP), rng)
        try:
            got = parse_crml(text, WireFormat.MARKUP)
        except (CRMLSyntaxError, SchemaError, RuleError):
            refused += 1
            continue
        parsed += 1
        assert parse_crml(serialize_crml(got, WireFormat.OBJECT), WireFormat.OBJECT) == got
        assert parse_crml(serialize_crml(got, WireFormat.MARKUP), WireFormat.MARKUP) == got
    assert parsed > 100 and refused > 100


@pytest.mark.parametrize("prefix", [
    "<crml>",
    "<crml><block_lists><block_list><contacts><contact><identifiers><ProfileImage><phash64>",
])
def test_markup_nested_beyond_the_schema_is_a_schema_error(prefix):
    text = prefix + "<phash64>" * 5000 + "</phash64>" * 5000
    text += "".join(f"</{tag}>" for tag in reversed(re.findall(r"<(\w+)>", prefix)))
    with pytest.raises(SchemaError):
        parse_crml(text, WireFormat.MARKUP)


@pytest.mark.parametrize("text", ["[" * 100_000, '{"crml_version":' + "1" * 5000 + "}"],
                         ids=["deep", "long-integer"])
def test_unreadable_object_text_is_a_syntax_error(text):
    with pytest.raises(CRMLSyntaxError):
        parse_crml(text, WireFormat.OBJECT)


def test_markup_rejects_stray_text(canonical_doc):
    text = serialize_crml(canonical_doc, WireFormat.MARKUP)
    broken = text.replace("<block_lists>", "<block_lists>loose text")
    with pytest.raises(SchemaError):
        parse_crml(broken, WireFormat.MARKUP)
