"""Exception hierarchy shared by all pdial modules, the text, number
and config-field checks that every entry point applies to the values it
is given, and the read-only arrays that the array holders keep.

The CLI maps these onto its exit-code contract: usage/config problems
exit 2, numeric/protocol/transport failures exit 3.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


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


def require_text(value: object, error: type[Exception], what: str) -> str:
    """``value`` if it is a ``str`` that UTF-8 can hold, else ``error``
    naming ``what``.

    A JSON string escape such as ``"\\ud800"`` decodes to a lone surrogate,
    which no UTF-8 artifact can hold; rejecting it where text enters the
    program keeps it from failing a write much later.
    """
    if not isinstance(value, str):
        raise error(f"{what} must be a string, got {type(value).__name__}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        at = f"{exc.reason} at position {exc.start}"
        raise error(f"{what} is not valid Unicode ({at})") from exc
    return value


def require_texts(
    value: object, error: type[Exception], what: str, entry=require_text
) -> list | tuple:
    """``value`` if it is a list or tuple whose entries pass ``entry``,
    else ``error`` naming ``what`` or the entry, ``what[i]``. A bare
    ``str``, which iterated would give its characters, is refused. With
    ``entry=require_texts`` each entry must be a list of texts itself;
    any check of ``require_text``'s signature can be the entry, such as
    ``require_count`` for a list of counts."""
    if not isinstance(value, (list, tuple)):
        raise error(f"{what} must be a list, got {type(value).__name__}")
    for i, item in enumerate(value):
        entry(item, error, f"{what}[{i}]")
    return value


def is_integer(value: object) -> bool:
    """Whether ``value`` is a JSON integer: an ``int``, never a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value: object) -> bool:
    """Whether ``value`` is a JSON number: an ``int`` or a ``float``, never
    a ``bool``. ``np.float64`` is a ``float``; ``np.float32`` is not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def require_count(
    value: object, error: type[Exception], what: str, least: int = 0
) -> int:
    """``value`` if it is a JSON integer of at least ``least``, else
    ``error`` naming ``what``."""
    if not is_integer(value) or value < least:
        raise error(f"{what} must be a JSON integer >= {least}, got {value!r}")
    return value


def require_finite(value: object, error: type[Exception], what: str) -> float:
    """``value`` as a ``float`` if it is a finite JSON number, else
    ``error`` naming ``what``; an integer beyond the largest float64 is
    not one. A holder that stores the ``float`` saves an integer as the
    float it is read back as."""
    if is_number(value) and abs(value) <= sys.float_info.max:
        return float(value)
    raise error(f"{what} must be a finite JSON number, got {value!r}")


def require_numbers(value: object, error: type[Exception], what: str) -> np.ndarray:
    """``value`` as a float64 array if it is a JSON number or equal-length
    lists of them, at any depth, else ``error`` naming ``what``.

    ``np.asarray(..., dtype=float64)`` would read the string ``"0.35"`` as
    0.35 and ``null`` as NaN, and ``np.asarray`` reads a ``true`` among
    numbers as 1, so each entry must pass ``is_number``. An integer
    outside the 64-bit range, which numpy keeps as an object, is read as
    its float64 value; one beyond the float64 range is ``error``. An
    ndarray of integer or float dtype is taken by its dtype, with no walk
    over its entries, and a float64 one is returned as it is. numpy is
    imported by the first call, so that importing the errors alone does
    not load it.
    """
    import numpy as np

    try:
        a = np.asarray(value)
    except ValueError as exc:  # lists of unequal length
        raise error(f"{what}: {exc}") from exc
    if a is not value or a.dtype.kind not in "iuf":
        entries = [value]
        for _ in range(a.ndim):
            entries = list(itertools.chain.from_iterable(entries))
        # isinstance depends only on the type: test one entry of each
        if not all(map(is_number, dict(zip(map(type, entries), entries)).values())):
            raise error(f"{what} must hold only JSON numbers")
    try:
        return a.astype(np.float64, copy=False)
    except OverflowError as exc:
        raise error(f"{what} holds an integer beyond the float64 range") from exc


def read_only_float64(value: object) -> np.ndarray:
    """``value`` as a float64 array that nobody can write, for a holder
    that keeps it and so takes ownership of it.

    An array handed over whole is frozen in place, so the caller's own
    array becomes read-only. A view is kept without a copy only if it and
    every array on its ``.base`` chain are read-only, as is a loader's
    view of a file's bytes; any other view is copied first, since the
    caller can still write its base. numpy is imported by the first call,
    as in ``require_numbers``.
    """
    import numpy as np

    a = np.asarray(value, dtype=np.float64)
    link = a  # ends at the first writable array on the .base chain, if any
    while isinstance(link, np.ndarray) and not link.flags.writeable:
        link = link.base
    if a.base is not None and isinstance(link, np.ndarray):
        a = a.copy()
    a.flags.writeable = False
    return a


# The check of a config field, by its annotation: an int is also a
# float, and a bool is neither.
_FIELD_CHECKS = {"str": lambda value: isinstance(value, str),
                 "int": is_integer, "float": is_number}


def require_field_types(config: object) -> None:
    """Raise ConfigurationError naming the first field of the dataclass
    ``config`` annotated ``str``, ``int`` or ``float`` whose value is not of
    that JSON type. The annotations are read as strings, so the config's
    module must use ``from __future__ import annotations``; fields with
    other annotations, such as a mapping, are not checked."""
    for f in dataclasses.fields(config):
        check = _FIELD_CHECKS.get(f.type)
        value = getattr(config, f.name)
        if check and not check(value):
            raise ConfigurationError(f"{f.name} must be {f.type}, got {value!r}")
