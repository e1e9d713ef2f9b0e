"""Time slots and mobility patterns.

A day is split into eleven 135-minute slots t1..t11 (the last slot is cut
short by midnight and spans 90 minutes); `slot_minutes` gives a slot's
minutes. All timestamp arithmetic in the measures uses the ordinal slot
index, so t3 - t1 = 2 and max(t3, t1) = 3.

A mobility pattern is a non-empty sequence of (cell, slot) points with
non-decreasing slots, held as two int tuples: cell ids and slot indices.
Cells may repeat; equality of points is pairwise equality of cell and
timestamp.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DomainError, FormatError, as_int, load_text

SLOT_MINUTES = 135
SLOT_COUNT = 11
DAY_MINUTES = 1440


# The one check of a slot index and of a cell id: each returns its argument
# as an int or raises DomainError.
def _check_slot(index: int) -> int:
    slot = as_int(index, "timestamp index")
    if not 1 <= slot <= SLOT_COUNT:
        raise DomainError(f"timestamp index {index} outside 1..{SLOT_COUNT}")
    return slot


def _check_cell(cell: int) -> int:
    cell_id = as_int(cell, "cell id")
    if cell_id < 0:
        raise DomainError(f"cell id must be non-negative, got {cell}")
    return cell_id


def slot_minutes(slot: int) -> tuple[int, int]:
    """The closed interval (start, end) of minutes of the day in a slot.

    Slot 11 would run past midnight, so it is cut short at 23:59.
    """
    slot = _check_slot(slot)
    return SLOT_MINUTES * (slot - 1), min(SLOT_MINUTES * slot, DAY_MINUTES) - 1


def timestamp_of_minute(minute: int) -> int:
    """The slot whose interval contains the given minute of the day."""
    m = as_int(minute, "minute")
    if not 0 <= m < DAY_MINUTES:
        raise DomainError(f"minute {minute} outside 0..{DAY_MINUTES - 1}")
    return m // SLOT_MINUTES + 1


class MobilityPattern:
    """Ordered non-empty sequence of points with non-decreasing timestamps.

    Built from (cell id, timestamp index) int pairs, which are validated
    here and stored as two int tuples, `cells` and `slots`. `visits`, built
    from `cells` on first read, maps each cell to the pattern's positions on
    it in ascending order; the cell-local measures read only that index.
    str() gives the points as `<(cell,tN) ...>`, and repr() adds "pattern".

    With strict=True, at most two consecutive points may share a timestamp;
    by default any non-decreasing run is accepted.
    """

    __slots__ = ("cells", "slots", "_visits")

    def __init__(self, pairs: Iterable[tuple[int, int]], strict: bool = False):
        # Every point is checked, slot before cell, before any ordering check.
        checked = [(_check_slot(slot), _check_cell(cell)) for cell, slot in pairs]
        if not checked:
            raise DomainError("a pattern needs at least one point")
        slots, cells = zip(*checked)
        for i in range(1, len(slots)):
            if slots[i] < slots[i - 1]:
                raise DomainError(
                    "timestamps must be non-decreasing "
                    f"(({cells[i - 1]},t{slots[i - 1]}) then ({cells[i]},t{slots[i]}))"
                )
        if strict:
            for i in range(2, len(slots)):
                if slots[i - 2] == slots[i - 1] == slots[i]:
                    raise DomainError(
                        f"more than two consecutive points share t{slots[i]}"
                    )
        self.cells = cells
        self.slots = slots
        self._visits: dict[int, list[int]] | None = None

    @property
    def visits(self) -> dict[int, list[int]]:
        """Each cell mapped to the pattern's positions on it, ascending."""
        if self._visits is None:
            self._visits = {}
            for i, cell in enumerate(self.cells):
                self._visits.setdefault(cell, []).append(i)
        return self._visits

    def __len__(self) -> int:
        return len(self.cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MobilityPattern):
            return NotImplemented
        return self.cells == other.cells and self.slots == other.slots

    def __hash__(self) -> int:
        return hash((self.cells, self.slots))

    def __str__(self) -> str:
        return "<" + " ".join(f"({c},t{t})" for c, t in zip(self.cells, self.slots)) + ">"

    def __repr__(self) -> str:
        return "<pattern " + str(self)[1:]


def make_pattern(
    pairs: Sequence[tuple[int, int]], strict: bool = False
) -> MobilityPattern:
    """Build a validated pattern from (cell id, timestamp index) pairs."""
    return MobilityPattern(pairs, strict=strict)


def is_subpattern(b: MobilityPattern, a: MobilityPattern) -> bool:
    """True iff b's points appear in a, in order (same cell AND timestamp)."""
    it = zip(a.cells, a.slots)
    # `in` consumes the iterator up to the match, so the order is kept.
    return all(pb in it for pb in zip(b.cells, b.slots))


TRACE_HEADER = "pattern_id,seq,cell,timestamp_index"


def parse_trace(text: str) -> dict[str, MobilityPattern]:
    """Parse a trace file into patterns keyed by pattern id.

    Format is comma-separated with header `pattern_id,seq,cell,timestamp_index`,
    rows sorted by (pattern_id, seq). Rows of one pattern must be contiguous
    with strictly increasing seq; pattern ids must be in ascending order.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != TRACE_HEADER:
        raise FormatError(f"expected header {TRACE_HEADER!r}")

    groups: dict[str, list[tuple[int, int]]] = {}
    last_id: str | None = None
    last_seq = 0
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split(",")
        if len(parts) != 4:
            raise FormatError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        pid = parts[0].strip()
        if not pid:
            raise FormatError(f"line {lineno}: empty pattern id")
        try:
            seq, cell, slot = (int(p) for p in parts[1:])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer field") from None
        if pid != last_id:
            if pid in groups:
                raise FormatError(
                    f"line {lineno}: rows for pattern {pid!r} are not contiguous"
                )
            if last_id is not None and pid < last_id:
                raise FormatError(
                    f"line {lineno}: pattern ids out of order ({pid!r} after {last_id!r})"
                )
            pairs = groups[pid] = []
            last_id = pid
        elif seq <= last_seq:
            raise FormatError(
                f"line {lineno}: seq not increasing within pattern {pid!r}"
            )
        last_seq = seq
        pairs.append((cell, slot))

    patterns: dict[str, MobilityPattern] = {}
    for pid, pairs in groups.items():
        try:
            patterns[pid] = MobilityPattern(pairs)
        except DomainError as exc:
            raise FormatError(f"pattern {pid!r}: {exc}") from None
    return patterns


def format_trace(patterns: dict[str, MobilityPattern]) -> str:
    lines = [TRACE_HEADER]
    for pid, pattern in patterns.items():
        for seq, (cell, slot) in enumerate(zip(pattern.cells, pattern.slots)):
            lines.append(f"{pid},{seq},{cell},{slot}")
    return "\n".join(lines) + "\n"


def load_trace(path: str) -> dict[str, MobilityPattern]:
    return load_text(path, parse_trace)


def save_trace(patterns: dict[str, MobilityPattern], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_trace(patterns))
