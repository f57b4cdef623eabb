"""Exception hierarchy shared across the SBO reference implementation."""

from __future__ import annotations


class SBOError(Exception):
    """Base class for every error raised by this package."""


# --- wire format (crml) ---

class CRMLSyntaxError(SBOError):
    """The input is not well-formed in the requested encoding."""

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None):
        location = "" if line is None else f" at line {line}, column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class SchemaError(SBOError):
    """The document shape violates the CRML schema or a document invariant."""


class RuleError(SBOError):
    """A block list carries rule text that fails the rule grammar."""

    def __init__(self, message: str, *, list_name: str | None = None):
        super().__init__(message)
        self.list_name = list_name


# --- rule language ---

class ParseError(SBOError):
    """Rule text does not conform to the rule grammar."""

    def __init__(self, message: str, *, position: int, expected: tuple[str, ...] = ()):
        hint = f" (expected: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at position {position}{hint}")
        self.position = position
        self.expected = expected


class NormalizeError(SBOError):
    """An identifier value cannot be normalized for its kind."""


class EvalError(SBOError):
    """A predicate hit a type mismatch during evaluation."""


# --- provider service ---

class ServiceError(SBOError):
    """Base for provider-side request failures; carries a wire code and HTTP status."""

    code = "ServiceError"
    http_status = 400

    def __init__(self, message: str, *, path: str | None = None):
        super().__init__(message)
        self.path = path

    def to_wire(self) -> dict:
        body = {"code": self.code, "message": str(self)}
        if self.path is not None:
            body["path"] = self.path
        return body


class ConflictError(ServiceError):
    code = "Conflict"
    http_status = 409


class UnauthorizedError(ServiceError):
    code = "Unauthorized"
    http_status = 401


class NotFoundError(ServiceError):
    code = "NotFound"
    http_status = 404


class ValidationError(ServiceError):
    code = "ValidationError"
    http_status = 400


# --- enforcement client ---

class NoIntegrationAvailable(SBOError):
    """No configured integration method is currently available."""


class FetchError(SBOError):
    """A provider fetch failed (network, transport, or provider-side error)."""


class EmptyBlockSetError(SBOError):
    """Every provider fetch failed and there is no previous cache to fall back on."""


class BrokerUnavailable(SBOError):
    """A delegated credential broker is disabled or cannot issue a token."""


class RestApiError(SBOError):
    """A provider answered with an error body ({code, message, path?})."""

    def __init__(self, code: str, message: str, *, status: int, path: str | None = None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.status = status
        self.path = path


# --- scenario harness ---

class ScenarioError(SBOError):
    """A scenario file failed validation; ``path`` points at the offending element."""

    def __init__(self, message: str, *, path: str | None = None):
        location = f" ({path})" if path else ""
        super().__init__(f"{message}{location}")
        self.path = path
