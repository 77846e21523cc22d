"""Exception hierarchy shared by all pdial modules, and the text check
that every entry point applies to incoming strings.

The CLI maps these onto its exit-code contract: usage/config problems
exit 2, numeric/protocol/transport failures exit 3.
"""

from __future__ import annotations


class PdialError(Exception):
    """Base class for all errors raised by pdial."""


class InputValidationError(PdialError):
    """A caller-supplied value violates an operation's precondition."""


class ConfigurationError(PdialError):
    """A configuration value or file is unusable (exit code 2)."""


class FormatError(ConfigurationError):
    """A data file is malformed or carries the wrong format version."""


class BackendError(PdialError):
    """A remote backend call failed after retries (transport/HTTP)."""


class ProtocolError(PdialError):
    """A remote backend answered with an uninterpretable payload."""


class NumericError(PdialError):
    """A numeric procedure failed (non-finite values, non-convergence)."""


def require_utf8(text: str, error: type[PdialError], where: str) -> str:
    """Return ``text`` if it can be encoded as UTF-8, else raise ``error``
    naming ``where``.

    A JSON string escape such as ``"\\ud800"`` decodes to a lone surrogate,
    which no UTF-8 artifact can hold; rejecting it where text enters the
    program keeps it from failing a write much later.
    """
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise error(
            f"{where} is not valid Unicode ({exc.reason} at position "
            f"{exc.start})"
        ) from exc
    return text
