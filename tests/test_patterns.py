import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mobisim
from mobisim import errors as errors_module, patterns as patterns_module
from mobisim.errors import DomainError, FormatError
from mobisim.patterns import (
    TRACE_HEADER,
    MobilityPattern,
    format_trace,
    is_subpattern,
    load_trace,
    make_pattern,
    parse_trace,
    slot_minutes,
    timestamp_of_minute,
)
from support import brute_make_pattern


@st.composite
def patterns(draw, n_cells=12, min_len=1, max_len=8):
    length = draw(st.integers(min_len, max_len))
    slots = sorted(
        draw(st.lists(st.integers(1, 11), min_size=length, max_size=length))
    )
    cells = draw(
        st.lists(st.integers(0, n_cells - 1), min_size=length, max_size=length)
    )
    return make_pattern(list(zip(cells, slots)))


class TestSlots:
    def test_slot_boundaries(self):
        assert slot_minutes(1) == (0, 134)
        assert slot_minutes(2)[0] == 135
        assert slot_minutes(10)[1] == 1349
        assert slot_minutes(11) == (1350, 1439)

    def test_spans(self):
        for slot in range(1, 11):
            start, end = slot_minutes(slot)
            assert end - start + 1 == 135
        start, end = slot_minutes(11)
        assert end - start + 1 == 90

    def test_out_of_range(self):
        for slot in (0, 12):
            with pytest.raises(DomainError, match=r"outside 1\.\.11"):
                slot_minutes(slot)

    def test_non_integer_rejected(self):
        for slot in (1.5, 2.0, "3", None):
            with pytest.raises(DomainError, match="not an integer"):
                slot_minutes(slot)

    def test_minute_lookup(self):
        assert timestamp_of_minute(0) == 1
        assert timestamp_of_minute(134) == 1
        assert timestamp_of_minute(135) == 2
        assert timestamp_of_minute(1439) == 11
        assert type(timestamp_of_minute(np.int64(135))) is int

    def test_minute_lookup_rejects_bad_minutes(self):
        for minute in (-1, 1440):
            with pytest.raises(DomainError, match=r"outside 0\.\.1439"):
                timestamp_of_minute(minute)
        # A non-integer minute used to fail with a bare TypeError.
        for minute in (134.5, "3", None):
            with pytest.raises(DomainError, match="not an integer"):
                timestamp_of_minute(minute)

    def test_slots_partition_the_day(self):
        covered = []
        for slot in range(1, 12):
            start, end = slot_minutes(slot)
            covered.extend(range(start, end + 1))
        assert covered == list(range(1440))

    def test_minute_lookup_agrees_with_bounds(self):
        for minute in range(1440):
            start, end = slot_minutes(timestamp_of_minute(minute))
            assert start <= minute <= end


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from mobisim import *", namespace)
    assert set(mobisim.__all__) <= namespace.keys()


class TestMakePattern:
    def test_five_point_pattern(self):
        p = make_pattern([(1, 1), (0, 3), (5, 4), (6, 6), (7, 9)])
        assert len(p) == 5
        assert p.cells == (1, 0, 5, 6, 7)
        assert p.slots == (1, 3, 4, 6, 9)

    def test_four_point_pattern(self):
        p = make_pattern([(4, 2), (5, 3), (6, 4), (8, 5)])
        assert len(p) == 4

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(DomainError):
            make_pattern([(0, 5), (1, 3)])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            make_pattern([])

    def test_bad_timestamp_rejected(self):
        with pytest.raises(DomainError):
            make_pattern([(0, 0)])
        with pytest.raises(DomainError):
            make_pattern([(0, 12)])

    def test_negative_cell_rejected(self):
        with pytest.raises(DomainError):
            make_pattern([(-1, 3)])

    def test_equal_consecutive_timestamps_allowed(self):
        p = make_pattern([(1, 3), (2, 3)])
        assert p.slots == (3, 3)

    def test_strict_mode_limits_equal_runs(self):
        make_pattern([(1, 3), (2, 3), (3, 4)], strict=True)
        with pytest.raises(DomainError):
            make_pattern([(1, 3), (2, 3), (3, 3)], strict=True)
        # default accepts any non-decreasing run
        make_pattern([(1, 3), (2, 3), (3, 3)])

    def test_stores_only_cells_and_slots(self):
        p = make_pattern([(1, 1), (2, 11)])
        # _visits is derived from cells, built on first read of `visits`.
        assert MobilityPattern.__slots__ == ("cells", "slots", "_visits")
        assert not hasattr(p, "__dict__")
        assert p._visits is None
        assert p.visits == {1: [0], 2: [1]} and p._visits is p.visits
        assert list(zip(p.cells, p.slots)) == [(1, 1), (2, 11)]
        assert repr(p) == "<pattern (1,t1) (2,t11)>"
        assert str(p) == "<(1,t1) (2,t11)>"

    def test_error_messages_name_points(self):
        with pytest.raises(DomainError, match=r"\(0,t5\) then \(1,t3\)"):
            make_pattern([(0, 5), (1, 3)])
        with pytest.raises(DomainError, match="share t3"):
            make_pattern([(1, 3), (2, 3), (3, 3)], strict=True)

    def test_non_integer_cell_rejected(self):
        # A float cell used to be stored and fail later as a list index; a
        # str cell failed with a TypeError from `<`.
        with pytest.raises(DomainError, match=r"^cell id 1\.5 is not an integer$"):
            make_pattern([(1.5, 1), (2, 3)])
        with pytest.raises(DomainError, match=r"^cell id '3' is not an integer$"):
            make_pattern([("3", 1)])
        with pytest.raises(DomainError, match=r"^cell id 2\.0 is not an integer$"):
            MobilityPattern([(2.0, 1)])

    def test_every_point_is_checked_before_the_order(self):
        with pytest.raises(DomainError, match=r"^cell id must be non-negative, got -1$"):
            make_pattern([(0, 5), (1, 3), (-1, 4)])
        # Within a point the slot is checked first.
        with pytest.raises(DomainError, match=r"^timestamp index 0 outside 1\.\.11$"):
            make_pattern([(-1, 0)])

    def test_integer_like_values_are_stored_as_int(self):
        p = make_pattern([(np.int64(2), np.int64(3))])
        assert p.cells == (2,) and p.slots == (3,)
        assert type(p.cells[0]) is int and type(p.slots[0]) is int

    def test_equality_and_hash(self):
        a = make_pattern([(1, 1), (2, 2)])
        b = make_pattern([(1, 1), (2, 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != make_pattern([(1, 1), (2, 3)])
        assert a.__eq__(1) is NotImplemented and (a == 1) is False


def construction_outcome(build, pairs, strict):
    """The built pattern, or the type and text of the error raised."""
    try:
        return build(pairs, strict=strict)
    except Exception as exc:
        return type(exc), str(exc)


not_an_int = st.sampled_from([2.0, 1.5, "3", None, float("nan")])
any_slot = st.one_of(st.integers(0, 12), not_an_int)
any_cell = st.one_of(st.integers(-2, 6), not_an_int)


@st.composite
def pair_lists(draw):
    """Pair lists that reach each check: bad cells and slots anywhere,
    unordered slots, and equal-slot runs of three."""
    if draw(st.booleans()):
        return draw(st.lists(st.tuples(any_cell, any_slot), max_size=8))
    # Sorted slots from a narrow range make long equal runs, and one swap
    # may break the order.
    lo = draw(st.integers(1, 10))
    slots = sorted(draw(st.lists(st.integers(lo, lo + 1), max_size=8)))
    if len(slots) > 1 and draw(st.booleans()):
        i = draw(st.integers(1, len(slots) - 1))
        slots[i - 1], slots[i] = slots[i], slots[i - 1]
    return [(draw(st.integers(-2, 6)), t) for t in slots]


class TestConstructionOracle:
    @given(pair_lists(), st.booleans())
    @example([(0, 5), (1, 3), (-1, 4)], False)
    @example([(0, 5), (1, 3), (1, 0)], False)
    @example([(1, 3), (2, 3), (3, 3)], True)
    @example([(1, 3), (2, 3), (3, 3)], False)
    @example([(1, 11), (2, 11)], True)
    @example([(1.5, 1), (2, 3)], False)
    @example([("3", 0)], False)
    @example([], True)
    def test_matches_point_timestamp_path(self, pairs, strict):
        want = construction_outcome(brute_make_pattern, pairs, strict)
        assert construction_outcome(make_pattern, pairs, strict) == want
        assert construction_outcome(MobilityPattern, pairs, strict) == want


class TestSubpattern:
    def test_worked_example(self):
        a = make_pattern([(4, 2), (5, 3), (6, 4), (8, 5)])
        b = make_pattern([(5, 3), (8, 5)])
        assert is_subpattern(b, a)

    def test_timestamp_must_match(self):
        assert not is_subpattern(make_pattern([(5, 4)]), make_pattern([(5, 3)]))

    def test_order_must_match(self):
        a = make_pattern([(4, 2), (5, 3)])
        b = make_pattern([(5, 2), (4, 3)])
        assert not is_subpattern(b, a)

    @given(patterns())
    def test_reflexive(self, p):
        assert is_subpattern(p, p)

    @given(patterns(), st.data())
    def test_subsequence_is_subpattern(self, p, data):
        idx = data.draw(
            st.lists(st.integers(0, len(p) - 1), min_size=1, unique=True).map(sorted)
        )
        sub = MobilityPattern((p.cells[i], p.slots[i]) for i in idx)
        assert is_subpattern(sub, p)
        assert len(sub) <= len(p)

    @given(patterns(), patterns())
    def test_length_bound(self, a, b):
        if is_subpattern(b, a):
            assert len(b) <= len(a)

    def test_transitive_chain(self):
        a = make_pattern([(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)])
        b = make_pattern([(2, 2), (4, 4), (5, 5)])
        c = make_pattern([(2, 2), (5, 5)])
        assert is_subpattern(b, a) and is_subpattern(c, b) and is_subpattern(c, a)


HEAD = TRACE_HEADER + "\n"


class TestTraceFormat:
    def test_round_trip(self):
        original = {
            "a01": make_pattern([(1, 1), (0, 3), (2, 4)]),
            "a02": make_pattern([(5, 2), (5, 2), (7, 9)]),
        }
        parsed = parse_trace(format_trace(original))
        assert parsed == original

    def test_blank_lines_skipped(self):
        text = "pattern_id,seq,cell,timestamp_index\n\na,0,1,1\n  \na,1,2,3\n\n"
        assert parse_trace(text) == {"a": make_pattern([(1, 1), (2, 3)])}

    @pytest.mark.parametrize("text, message", [
        ("a,0,1,1\n", "expected header 'pattern_id,seq,cell,timestamp_index'"),
        ("", "expected header 'pattern_id,seq,cell,timestamp_index'"),
        (HEAD + "a,0,1\n", "line 2: expected 4 fields, got 3"),
        (HEAD + "a,0,one,1\n", "line 2: non-integer field"),
        (HEAD + " ,0,1,1\n", "line 2: empty pattern id"),
        (HEAD + "a,0,1,1\n\n  \nb,0,1,1\na,1,2,2\n",
         "line 6: rows for pattern 'a' are not contiguous"),
        (HEAD + "a,0,-1,1\n", "pattern 'a': cell id must be non-negative, got -1"),
        (HEAD + "a,0,1,0\n", "pattern 'a': timestamp index 0 outside 1..11"),
        # Canonical texts, read in bulk until a row breaks a rule.
        (HEAD + "b,0,1,1\na,0,1,1\n", "line 3: pattern ids out of order ('a' after 'b')"),
        (HEAD + "a,0,1,1\nb,0,1,1\na,1,2,2\n",
         "line 4: rows for pattern 'a' are not contiguous"),
        (HEAD + "a,1,1,1\na,1,2,2\n", "line 3: seq not increasing within pattern 'a'"),
        (HEAD + "a,2,1,1\na,1,2,2\n", "line 3: seq not increasing within pattern 'a'"),
        (HEAD + "a,0,1,5\na,1,2,3\n",
         "pattern 'a': timestamps must be non-decreasing ((1,t5) then (2,t3))"),
        (HEAD + "a,0,1,1\nb,0,1,3\nb,1,2,2\n",
         "pattern 'b': timestamps must be non-decreasing ((1,t3) then (2,t2))"),
        (HEAD + "a,0,1,12\n", "pattern 'a': timestamp index 12 outside 1..11"),
    ])
    def test_errors_name_line_or_pattern(self, text, message):
        with pytest.raises(FormatError) as exc:
            parse_trace(text)
        assert str(exc.value) == message

    def test_load_names_file_once(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("pattern_id,seq,cell,timestamp_index\na,0,1,5\na,1,2,3\n")
        with pytest.raises(FormatError) as exc:
            load_trace(str(path))
        assert str(exc.value).startswith(f"{path}: pattern 'a': ")
        assert str(exc.value).count(str(path)) == 1

    def test_byte_order_mark_loads_equal(self, tmp_path):
        text = "pattern_id,seq,cell,timestamp_index\na,0,1,1\na,1,2,3\nb,0,4,2\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_trace(str(bom)) == load_trace(str(plain)) == parse_trace(text)


def trace_outcome(parse, text):
    """The patterns read, in order, or the type and text of the error raised."""
    try:
        return list(parse(text).items())
    except Exception as exc:
        return type(exc), str(exc)


# Ids that sort apart only by a trailing NUL or a non-ASCII letter, and cells
# up to the 18 digits the bulk reader reads, and past them.
trace_ids = st.sets(st.sampled_from(["a", "a\x00", "b", "p1", "p10", "p2", "\xe9"]), max_size=4)
short_cells = st.one_of(st.integers(0, 9), st.just(10**18 - 1))
trace_cells = st.one_of(short_cells, st.sampled_from([10**18, 2**64]))


@st.composite
def traces(draw, cell_ids=trace_cells):
    """Patterns in id order, each of 1-4 points with non-decreasing slots."""
    trace = {}
    for pid in sorted(draw(trace_ids)):
        length = draw(st.integers(1, 4))
        slots = sorted(draw(st.lists(st.integers(1, 11), min_size=length, max_size=length)))
        cells = draw(st.lists(cell_ids, min_size=length, max_size=length))
        trace[pid] = MobilityPattern(zip(cells, slots))
    return trace


@st.composite
def edited_trace_texts(draw):
    """format_trace's text of a trace, as is or after up to three edits, each
    a token inserted or put in place of one character, or one character
    deleted; the tokens reach every rule of both readers."""
    text = format_trace(draw(traces()))
    tokens = st.sampled_from(
        [",", "\n", "\r\n", " ", "\t", "\x1c", "\x85", "0", "1", "9", "12", "-", "+", "_",
         "\u0661", "a", "b"]
    )
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        cut = draw(st.sampled_from([0, 1]))
        text = text[:i] + draw(st.one_of(st.just(""), tokens)) + text[i + cut :]
    return text


class TestBulkTraceReader:
    """parse_trace reads a canonical text in bulk; the line reader
    _parse_lines is its reference."""

    @settings(deadline=None)
    @given(edited_trace_texts())
    @example(HEAD + "a,0,999999999999999999,1\na,1,1234567890123456789,2\n")
    @example(HEAD + "a,0,12399999999999999999999,3\n")
    @example(HEAD + "a,01,1,1\n")
    @example(HEAD + "a,0,+1,1\n")
    @example(HEAD + "a,0,1_0,1\n")
    @example(HEAD + "a,0,\u0661,1\n")
    @example(HEAD + "a,0,1,0\n")
    @example(HEAD + "a,0,1,11\n")
    @example(HEAD + "a,0,1,12\n")
    @example(HEAD + "a b,0,1,1\n")
    @example(HEAD + "a\tb,0,1,1\n")
    @example(HEAD + "a\x1cb,0,1,1\n")
    @example(HEAD + "a\x85b,0,1,1\n")
    @example(HEAD + "a,0,1,1\r\na,1,2,2\r\n")
    @example(HEAD + "a,0,1,1\na,1,2,2")
    @example(HEAD)
    @example("")
    @example(HEAD + "a,0,1,1\n\na,1,2,2\n\n")
    def test_bulk_read_equals_line_reader(self, text):
        want = trace_outcome(patterns_module._parse_lines, text)
        # Windows of 40 characters split most texts across windows, and
        # shut a longer line out of the bulk path.
        for window in (errors_module._WINDOW, 40):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(errors_module, "_WINDOW", window)
                assert trace_outcome(parse_trace, text) == want

    @settings(deadline=None)
    @given(traces(cell_ids=short_cells))
    def test_canonical_text_needs_no_line_reader(self, trace):
        text = format_trace(trace)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(patterns_module, "_parse_lines", None)
            for window in (errors_module._WINDOW, 40):
                mp.setattr(errors_module, "_WINDOW", window)
                got = parse_trace(text)
                assert list(got.items()) == list(trace.items())
                assert all(
                    type(v) is int for p in got.values() for v in p.cells + p.slots
                )
                assert all(p._visits is None for p in got.values())

    def test_long_cells_stay_exact(self):
        text = HEAD + "a,0,999999999999999999,1\na,1,1234567890123456789,2\n"
        assert parse_trace(text)["a"].cells == (999999999999999999, 1234567890123456789)
