"""Single Block On: block a contact once, enforce it on every integrated app."""

from .client import (
    BlockDecision,
    BlockSet,
    CachedAccount,
    EnforcementClient,
    IntegrationConfig,
    IntegrationMethod,
    LoginBlockReport,
    Manual,
    OnLogin,
    Periodic,
    PerRequest,
    RefreshPolicy,
    Trigger,
    resolve_integration,
    should_refresh,
)
from .crml import (
    BlockListRecord,
    CRMLDocument,
    WireFormat,
    parse_crml,
    serialize_crml,
)
from .identifiers import (
    ContactRecord,
    IdentifierKind,
    ImageHash,
    Profile,
    Strictness,
    normalize_identifier,
)
from .provider import ProviderService
from .rules import (
    DEFAULT_THRESHOLDS,
    MatchResult,
    MatchThresholds,
    Operator,
    default_rule,
    evaluate_rule,
    parse_rule,
    render_rule,
)
from .runner import ScenarioReport, run_scenario
from .similarity import average_hash, image_distance, levenshtein, text_similarity

__version__ = "0.1.0"

__all__ = [
    "BlockDecision", "BlockSet", "BlockListRecord", "CRMLDocument", "CachedAccount",
    "ContactRecord", "DEFAULT_THRESHOLDS", "EnforcementClient", "IdentifierKind",
    "ImageHash", "IntegrationConfig", "IntegrationMethod", "LoginBlockReport",
    "Manual", "MatchResult", "MatchThresholds", "OnLogin", "Operator", "Periodic",
    "PerRequest", "Profile", "ProviderService", "RefreshPolicy", "ScenarioReport",
    "Strictness", "Trigger", "WireFormat", "average_hash",
    "default_rule", "evaluate_rule", "image_distance", "levenshtein",
    "normalize_identifier", "parse_crml", "parse_rule", "render_rule",
    "resolve_integration", "run_scenario", "serialize_crml", "should_refresh",
    "text_similarity",
]
