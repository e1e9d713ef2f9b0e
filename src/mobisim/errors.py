"""Exception types shared across the package, the integer check and the
text-file loader that raise them."""

import operator
from typing import Callable, TypeVar

T = TypeVar("T")


class DomainError(ValueError):
    """An argument falls outside the modeled domain (bad cell id, bad weights,
    malformed pattern, ...)."""


class FormatError(DomainError):
    """A graph or trace file does not conform to its text format."""


class GraphNotConnectedError(DomainError):
    """A query needed a path between two cells that have none."""


def as_int(value: object, name: str) -> int:
    """value as an int, if it is an integer; otherwise a DomainError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} {value!r} is not an integer") from None


def load_text(path: str, parse: Callable[[str], T]) -> T:
    """parse() of a file's UTF-8 text, a leading byte-order mark dropped.

    Undecodable bytes and every FormatError from parse() become one
    FormatError that starts with the path.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
        return parse(text)
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
    except FormatError as exc:
        reason = str(exc)
    raise FormatError(f"{path}: {reason}") from None
