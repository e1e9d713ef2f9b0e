"""Exception types shared across the package, the integer check and the
text-file loader that raise them, and the form check of the canonical files
that the graph and trace readers read in bulk."""

import operator
import re
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


# Characters of text that one fullmatch of canonical_windows's `lines` spans.
_WINDOW = 1 << 16


def canonical_windows(
    text: str, head: re.Pattern[str], lines: re.Pattern[str]
) -> list[tuple[int, int]] | None:
    """Where head matches the start of text and lines fullmatches the rest,
    the windows (start, end) that the rest was matched in, each ended just
    after a newline; otherwise None.

    lines is a repeat of whole lines, `(?:<line>\n)*` with no newline inside
    a line. sre's repeat stack takes about 24 bytes per character of one
    match, so each window is at most _WINDOW characters, matched through
    fullmatch's pos and endpos, which copy nothing. A line longer than a
    window fails the check.
    """
    m = head.match(text)
    if m is None:
        return None
    windows = []
    pos, size = m.end(), len(text)
    while pos < size:
        end = text.rfind("\n", pos, pos + _WINDOW) + 1
        if not end or lines.fullmatch(text, pos, end) is None:
            return None
        windows.append((pos, end))
        pos = end
    return windows
