"""Seeded inputs for the benchmark workloads.

Everything here is decided before a timed window opens: contact bags, the
profiles the apps are asked about, and the answer each question must get.
Names are drawn from one shared syllable pool, so unrelated names still share
q-grams the way real names do, and similarity scores are not trivially low.

Identifier bags are kept in wire shape (``{"FullName": "...",
"ProfileImage": {"phash64": "..."}}``), the shape the REST API accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from sbo.identifiers import Strictness
from sbo.rules import DEFAULT_THRESHOLDS

SYLLABLES = (
    "ka", "lo", "mi", "ra", "ten", "sho", "vi", "an", "del", "mar", "ro", "su",
    "ne", "ti", "ba", "gor", "el", "li", "po", "zan", "ha", "ru", "fe", "ki",
    "da", "mo", "sel", "vin", "to", "ar", "is", "bel",
)
DOMAINS = ("mail.example", "post.example", "inbox.example")
MALFORMED_AGES = ("twenty", "4O", "n/a", "-7", "30s")
# Share of bags without an Age, so the eval_errors a malformed profile
# raises depend on the seed and are not simply the list size.
AGE_ABSENT = 0.3

DEFAULT_RULE = ("EmailId EQUALS OR PhoneNumber EQUALS OR "
                "(Username MATCHES AND FullName MATCHES)")
CANONICAL_RULE = ("(FullName MATCHES AND PhoneNumber MATCHES) OR "
                  "(Username MATCHES AND Biodata FUZZYMATCHES)")
LENIENT_RULE = "ProfileImage MATCHES OR (EmailId EQUALS AND Age GREATERTHAN 17)"
EXACT_RULE = "EmailId EQUALS OR PhoneNumber EQUALS"
# Near hits are planted only on lists whose rule has this fuzzy clause.
NEAR_CLAUSE = "(Username MATCHES AND FullName MATCHES)"

# Strangers keep their image hash further than this from every listed hash.
IMAGE_LENIENT = DEFAULT_THRESHOLDS.image_lenient

Blocker = tuple[str, str, str]  # (provider host, account, list name)


@dataclass(frozen=True)
class Case:
    """One question put to the apps, with the answer fixed at generation.

    ``target`` is the planted contact that must match, if any; any further
    match the system reports is re-checked with the independent oracle.
    """

    kind: str  # stranger | hit | near | malformed
    wire: dict
    eval_errors: int = 0
    target: tuple[Blocker, int] | None = None  # planted contact: (list, bag index)

    @property
    def expect(self) -> frozenset[Blocker]:
        """The lists that must report a block."""
        return frozenset({self.target[0]}) if self.target else frozenset()


@dataclass
class ListSpec:
    host: str
    account: str
    name: str
    strictness: str
    rule_text: str
    bags: list[dict] = field(default_factory=list)

    @property
    def blocker(self) -> Blocker:
        return (self.host, self.account, self.name)


class Generator:
    """Draws names, bags and profile variants from one seeded RNG."""

    def __init__(self, seed: int):
        self.rng = Random(seed)
        self._serial = 0

    def word(self, low: int, high: int) -> str:
        return "".join(self.rng.choice(SYLLABLES)
                       for _ in range(self.rng.randint(low, high)))

    def _next_serial(self) -> int:
        self._serial += 1
        return self._serial

    def bag(self, image_far_from: list[int] = ()) -> dict:
        """A full identifier bag with an e-mail and phone no other bag has."""
        first, last = self.word(2, 2), self.word(2, 2)
        serial = self._next_serial()
        bag = {
            "FullName": f"{first.capitalize()} {last.capitalize()}",
            "Username": first + last[:2] + str(self.rng.randint(1, 99)),
            "EmailId": f"{first}.{last}{serial}@{self.rng.choice(DOMAINS)}",
            "PhoneNumber": f"1555{serial:07d}",
            "Biodata": " ".join(self.word(1, 2) for _ in range(2)),
            "Age": str(self.rng.randint(18, 80)),
            "ProfileImage": {"phash64": f"{self.image(image_far_from):016x}"},
        }
        if self.rng.random() < AGE_ABSENT:
            del bag["Age"]
        return bag

    def image(self, far_from: list[int] = ()) -> int:
        while True:
            bits = self.rng.getrandbits(64)
            if all((bits ^ other).bit_count() > IMAGE_LENIENT for other in far_from):
                return bits

    def variant(self, bag: dict) -> dict:
        """The same person typed differently: case, spacing, phone punctuation."""
        out = dict(bag)
        out["FullName"] = "  ".join(bag["FullName"].upper().split())
        out["Username"] = f" {bag['Username'].upper()} "
        out["EmailId"] = bag["EmailId"].upper()
        digits = bag["PhoneNumber"]
        out["PhoneNumber"] = f"+{digits[0]} ({digits[1:4]}) {digits[4:7]}-{digits[7:]}"
        out["Biodata"] = bag["Biodata"].title()
        return out

    def edit(self, text: str, edits: int) -> str:
        """Apply ``edits`` random single-character substitutions, inserts or deletes."""
        chars = list(text)
        for _ in range(edits):
            op = self.rng.randrange(3)
            pos = self.rng.randrange(len(chars))
            letter = self.rng.choice("abcdefghijklmnopqrstuvwxyz")
            if op == 0:
                chars[pos] = letter
            elif op == 1:
                chars.insert(pos, letter)
            elif len(chars) > 2:
                del chars[pos]
        return "".join(chars)

    def near(self, bag: dict, threshold: float, image_far_from: list[int]) -> dict:
        """Username and FullName edited to land just inside or just outside ``threshold``."""
        out = self.bag(image_far_from)
        for key in ("Username", "FullName"):
            allowed = int((1 - threshold) * len(bag[key]))
            out[key] = self.edit(bag[key], allowed + self.rng.randint(0, 1))
        return out


def image_bits(bag: dict) -> int:
    return int(bag["ProfileImage"]["phash64"], 16)


def mentions_age(rule_text: str) -> bool:
    return "Age" in rule_text.split()


def plan_cases(gen: Generator, lists: list[ListSpec], count: int,
               shares: dict[str, float], oracle) -> list[Case]:
    """``count`` seeded questions in the given kind shares.

    ``oracle(spec, bag, profile_wire)`` fixes whether a planted near hit
    matches its target contact; exact hits always do.
    """
    lenient_images = [image_bits(b) for spec in lists for b in spec.bags
                      if "ProfileImage" in spec.rule_text]
    age_errors = sum(1 for spec in lists if mentions_age(spec.rule_text)
                     for b in spec.bags if "Age" in b)
    fuzzy_lists = [spec for spec in lists if NEAR_CLAUSE in spec.rule_text]
    kinds = list(shares)
    weights = [shares[k] for k in kinds]
    cases: list[Case] = []
    for _ in range(count):
        kind = gen.rng.choices(kinds, weights)[0]
        if kind == "hit":
            spec = gen.rng.choice(lists)
            index = gen.rng.randrange(len(spec.bags))
            cases.append(Case(kind, gen.variant(spec.bags[index]), 0, (spec.blocker, index)))
        elif kind == "near":
            spec = gen.rng.choice(fuzzy_lists)
            index = gen.rng.randrange(len(spec.bags))
            threshold = DEFAULT_THRESHOLDS.text_for(Strictness(spec.strictness))
            wire = gen.near(spec.bags[index], threshold, lenient_images)
            hit = oracle(spec, spec.bags[index], wire)
            cases.append(Case(kind, wire, 0, (spec.blocker, index) if hit else None))
        elif kind == "malformed":
            wire = gen.bag(lenient_images)
            wire["Age"] = gen.rng.choice(MALFORMED_AGES)
            cases.append(Case(kind, wire, age_errors))
        else:
            cases.append(Case("stranger", gen.bag(lenient_images)))
    return cases


def kind_shares(cases: list[Case]) -> dict[str, float]:
    return {kind: sum(1 for c in cases if c.kind == kind) / len(cases)
            for kind in ("stranger", "hit", "near", "malformed")}
