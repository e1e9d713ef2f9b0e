import random

import pytest
from hypothesis import given, settings, strategies as st

from mobisim.baselines import (
    cvti,
    lcss,
    oss,
    oss_components,
    tiakas_net,
    tiakas_time,
    tiakas_total,
)
from mobisim.errors import DomainError
from mobisim.graph import CellGraph, example_graph
from mobisim.measures import (
    Weights,
    spatial_dissimilarity,
    temporal_dissimilarity,
    uncommon_cell_count,
    weighted_dissimilarity,
)
from mobisim.patterns import make_pattern
from support import (
    brute_cvti,
    brute_d_space,
    brute_lcss,
    brute_make_pattern,
    brute_uncommon,
    dp_lcss,
    exact_d_time,
    exact_oss,
    exact_tiakas_net,
    exact_tiakas_time,
    random_connected_graph,
    random_pattern,
    scan_oss_components,
)

SA = make_pattern([(1, 1), (0, 3), (2, 4), (8, 6), (7, 9)])
SB = make_pattern([(0, 3), (2, 4), (3, 5), (8, 6), (4, 8)])


@st.composite
def pattern_pairs(draw, n_cells=10, max_len=8, equal_length=False):
    n = draw(st.integers(1, max_len))
    m = n if equal_length else draw(st.integers(1, max_len))

    def one(length):
        slots = sorted(
            draw(st.lists(st.integers(1, 11), min_size=length, max_size=length))
        )
        cells = draw(
            st.lists(st.integers(0, n_cells - 1), min_size=length, max_size=length)
        )
        return make_pattern(list(zip(cells, slots)))

    return one(n), one(m)


class TestTiakas:
    def test_reference_net(self):
        assert tiakas_net(SA, SB, example_graph()) == 0.2

    def test_reference_time(self):
        assert abs(tiakas_time(SA, SB) - 1 / 3) <= 1e-12

    def test_reference_total(self):
        v = tiakas_total(SA, SB, example_graph())
        assert abs(v - (0.1 + 1 / 6)) <= 1e-12
        assert abs(v - 0.267) <= 5e-4

    def test_single_step_gap(self):
        a = make_pattern([(1, 1), (2, 3)])
        b = make_pattern([(1, 1), (2, 2)])
        assert abs(tiakas_time(a, b) - 0.5) <= 1e-12

    def test_net_single_position(self):
        g = example_graph()
        a = make_pattern([(0, 1)])
        b = make_pattern([(1, 1)])
        assert abs(tiakas_net(a, b, g) - 1 / (2 * 4) * 2) <= 1e-12

    def test_net_identical_positions_zero(self):
        g = example_graph()
        p = make_pattern([(0, 1), (5, 3), (11, 7)])
        assert tiakas_net(p, p, g) == 0.0

    def test_cells_outside_graph_rejected(self):
        # Both patterns on the same cell used to skip the lookup and score 0.
        path = CellGraph(3, [(0, 1), (1, 2)])
        p = make_pattern([(999, 1), (998, 2)])
        for fn in (tiakas_net, tiakas_total):
            with pytest.raises(
                DomainError, match=r"^cell id 999 out of range for graph with 3 cells$"
            ):
                fn(p, p, path)
        with pytest.raises(DomainError, match="cell id 3 out of range"):
            tiakas_net(make_pattern([(0, 1), (3, 2)]), make_pattern([(0, 1), (3, 2)]), path)

    def test_one_cell_graph_never_divides_by_zero(self):
        p = make_pattern([(0, 1), (0, 4)])
        assert tiakas_net(p, p, CellGraph(1)) == 0.0

    def test_both_steps_instant(self):
        # equal timestamps on both sides: the 0/0 step counts as agreement
        a = make_pattern([(1, 4), (2, 4)])
        b = make_pattern([(3, 6), (4, 6)])
        assert tiakas_time(a, b) == 0.0

    def test_unequal_lengths_rejected(self):
        a = make_pattern([(1, 1), (2, 2)])
        b = make_pattern([(1, 1)])
        with pytest.raises(DomainError):
            tiakas_net(a, b, example_graph())
        with pytest.raises(DomainError):
            tiakas_time(a, b)

    def test_time_needs_two_points(self):
        with pytest.raises(DomainError):
            tiakas_time(make_pattern([(1, 1)]), make_pattern([(2, 2)]))

    def test_custom_weights(self):
        g = example_graph()
        v = tiakas_total(SA, SB, g, Weights(0.25, 0.75))
        assert abs(v - (0.25 * 0.2 + 0.75 / 3)) <= 1e-12

    @given(pattern_pairs(equal_length=True))
    def test_bounds_and_symmetry(self, pair):
        a, b = pair
        g = example_graph()
        assert 0.0 <= tiakas_net(a, b, g) <= 1.0
        assert tiakas_net(a, b, g) == tiakas_net(b, a, g)
        if len(a) >= 2:
            assert 0.0 <= tiakas_time(a, b) <= 1.0
            assert tiakas_time(a, b) == tiakas_time(b, a)
            assert 0.0 <= tiakas_total(a, b, g) <= 1.0

    @given(pattern_pairs(equal_length=True))
    def test_self_zero(self, pair):
        a, _ = pair
        assert tiakas_net(a, a, example_graph()) == 0.0
        if len(a) >= 2:
            assert tiakas_time(a, a) == 0.0


class TestOss:
    def test_reference_pair(self):
        f, g = oss_components(SA, SB)
        assert g == 4
        assert abs(f - 0.4) <= 1e-12
        assert abs(oss(SA, SB) - 0.44) <= 1e-12

    def test_position_displacement_pair(self):
        s1 = make_pattern([(1, 1), (0, 3), (5, 4), (6, 6), (7, 9)])
        s2 = make_pattern([(0, 3), (5, 4), (7, 9)])
        f, g = oss_components(s1, s2)
        assert abs(f - 0.8) <= 1e-12
        assert g == 2

    def test_identical_patterns_zero(self):
        assert oss(SA, SA) == 0.0

    def test_value_is_rounded_once(self):
        # (0.4 + 4) / 10 rounded f first and read 0.44000000000000006; one
        # division of 22 by 50 gives the double nearest 11/25.
        assert oss(SA, SB) == oss(SB, SA) == 11 / 25
        eight = make_pattern([(0, 1)] * 8 + [(1, 1)])
        one = make_pattern([(1, 1)])
        assert oss(eight, one) == exact_oss(eight, one) == (8 + 8 * 9) / (9 * 10)

    def test_repeated_cells_pair_in_order(self):
        a = make_pattern([(5, 1), (3, 2), (5, 4)])
        b = make_pattern([(9, 2), (5, 3), (5, 5)])
        f, g = oss_components(a, b)
        # occurrences of 5 pair as (0,1) and (2,2); 3 and 9 are uncommon
        assert abs(f - 1 / 3) <= 1e-12
        assert g == 2

    def test_extra_occurrences_ignored(self):
        a = make_pattern([(5, 1), (5, 2), (7, 3)])
        b = make_pattern([(5, 2), (9, 4)])
        f, g = oss_components(a, b)
        assert f == 0.0
        assert g == 2

    @given(pattern_pairs())
    def test_bounds_and_symmetry(self, pair):
        a, b = pair
        assert 0.0 <= oss(a, b) <= 1.0
        assert oss(a, b) == oss(b, a)
        assert oss(a, a) == 0.0


class TestLcss:
    def test_reference_pair(self):
        assert lcss(SA, SB) == 3

    def test_disjoint(self):
        assert lcss(make_pattern([(1, 1)]), make_pattern([(2, 2)])) == 0

    def test_identical(self):
        assert lcss(SA, SA) == 5

    def test_interleaved(self):
        a = make_pattern([(1, 1), (2, 2), (3, 3), (1, 4)])
        b = make_pattern([(2, 1), (1, 2), (1, 3), (3, 4)])
        assert lcss(a, b) == 2

    def test_matches_enumeration_oracle(self):
        rng = random.Random(21)
        for _ in range(200):
            a = random_pattern(rng, 6, max_len=7)
            b = random_pattern(rng, 6, max_len=7)
            assert lcss(a, b) == brute_lcss(a, b)

    @given(pattern_pairs())
    def test_bounded_by_shorter(self, pair):
        a, b = pair
        v = lcss(a, b)
        assert 0 <= v <= min(len(a), len(b))
        assert lcss(a, b) == lcss(b, a)


class TestCvti:
    def test_reference_pair(self):
        # three shared cells visited in the same full slots
        assert cvti(SA, SB) == 3 * 135

    def test_single_full_slot(self):
        a = make_pattern([(4, 3)])
        b = make_pattern([(4, 3)])
        assert cvti(a, b) == 135

    def test_last_slot_is_short(self):
        a = make_pattern([(4, 11)])
        assert cvti(a, a) == 90

    def test_adjacent_slots_do_not_overlap(self):
        a = make_pattern([(4, 3)])
        b = make_pattern([(4, 4)])
        assert cvti(a, b) == 0

    def test_no_common_cells(self):
        assert cvti(make_pattern([(1, 1)]), make_pattern([(2, 1)])) == 0

    def test_matches_minute_set_oracle(self):
        rng = random.Random(22)
        for _ in range(200):
            a = random_pattern(rng, 6, max_len=8)
            b = random_pattern(rng, 6, max_len=8)
            assert cvti(a, b) == brute_cvti(a, b)

    def test_every_slot_pair_matches_minute_sets(self):
        for ta in range(1, 12):
            for tb in range(1, 12):
                a, b = make_pattern([(4, ta)]), make_pattern([(4, tb)])
                assert cvti(a, b) == brute_cvti(a, b)

    def test_repeats_and_last_slot_match_minute_sets(self):
        # Consecutive lists form the pairs.
        cases = [
            [(4, 10), (4, 11), (4, 11)], [(4, 11), (5, 11), (4, 11)],
            [(1, 1), (2, 5), (1, 11)], [(1, 1), (1, 11), (1, 11)],
            [(3, 11)], [(3, 10), (3, 11), (2, 11), (3, 11)],
        ]
        rng = random.Random(24)
        for _ in range(400):
            # Two cells and the last two slots: many repeats, many on t11.
            slots = sorted(rng.choices((10, 11), k=rng.randint(1, 6)))
            cases.append([(rng.randrange(2), t) for t in slots])
        for pa, pb in zip(cases[::2], cases[1::2]):
            a, b = make_pattern(pa), make_pattern(pb)
            assert cvti(a, b) == cvti(b, a) == brute_cvti(a, b)

    @given(pattern_pairs())
    def test_symmetric_and_nonnegative(self, pair):
        a, b = pair
        assert cvti(a, b) >= 0
        assert cvti(a, b) == cvti(b, a)


@st.composite
def dense_pairs(draw):
    """Two patterns of 1-40 points on the same 1-4 cells, so repeats and
    shared cells abound; one-point patterns and slot 11 are drawn often.
    The second is built by the oracle constructor."""
    n_cells = draw(st.integers(1, 4))

    def one(build):
        length = draw(st.one_of(st.just(1), st.integers(1, 40)))
        slots = draw(st.lists(st.integers(1, 11), min_size=length, max_size=length))
        if draw(st.booleans()):
            slots[-1] = 11
        cells = draw(st.lists(st.integers(0, n_cells - 1), min_size=length, max_size=length))
        return build(list(zip(cells, sorted(slots))))

    return one(make_pattern), one(brute_make_pattern)


@settings(max_examples=300, deadline=None)
@given(dense_pairs(), st.floats(0.0, 1.0))
def test_visit_index_kernels_equal_scan_oracles(pair, space):
    """Every cell-local kernel reads the visits index; each equals the scan
    over both patterns' points bit for bit, in both argument orders."""
    w = Weights(space, 1.0 - space)
    for a, b in (pair, pair[::-1]):
        assert a.visits == {
            c: [i for i, x in enumerate(a.cells) if x == c] for c in a.cells
        }
        assert uncommon_cell_count(a, b) == brute_uncommon(a, b)
        assert spatial_dissimilarity(a, b) == brute_d_space(a, b)
        assert temporal_dissimilarity(a, b) == exact_d_time(a, b)
        assert weighted_dissimilarity(a, b, w) == (
            w.space * brute_d_space(a, b) + w.time * exact_d_time(a, b)
        )
        f, g = scan_oss_components(a, b)
        assert oss_components(a, b) == (f, g)
        assert oss(a, b) == exact_oss(a, b)
        assert lcss(a, b) == dp_lcss(a, b)
        assert cvti(a, b) == brute_cvti(a, b)


def test_tiakas_net_scales_with_any_graph():
    rng = random.Random(23)
    for _ in range(20):
        g = random_connected_graph(rng, 4, 10)
        n = g.vertex_count
        a = random_pattern(rng, n, min_len=3, max_len=3)
        b = random_pattern(rng, n, min_len=3, max_len=3)
        v = tiakas_net(a, b, g)
        assert 0.0 <= v <= 1.0


def test_tiakas_net_matches_per_position_definition():
    # 0 on a shared cell, otherwise hops over the diameter, their mean exact.
    rng = random.Random(31)
    for _ in range(50):
        g = random_connected_graph(rng, 2, 10)
        length = rng.randint(1, 8)
        a = random_pattern(rng, g.vertex_count, min_len=length, max_len=length)
        b = random_pattern(rng, g.vertex_count, min_len=length, max_len=length)
        for x, y in ((a, b), (a, a)):
            assert tiakas_net(x, y, g) == exact_tiakas_net(x, y, g)


def test_tiakas_net_mean_is_rounded_once():
    # Hops 2 and 3 over diameter 3: the exact mean 5/6, where summing the
    # rounded terms 2/3 and 1.0 gave 0.8333333333333333.
    g = CellGraph(4, [(0, 1), (1, 2), (2, 3)])
    a, b = make_pattern([(0, 1), (0, 2)]), make_pattern([(2, 1), (3, 2)])
    assert tiakas_net(a, b, g) == tiakas_net(b, a, g) == 0.8333333333333334


def test_tiakas_time_matches_per_step_definition_on_every_increment_pair():
    for da in range(11):
        for db in range(11):
            a = make_pattern([(0, 1), (0, 1 + da)])
            b = make_pattern([(1, 1), (1, 1 + db)])
            assert tiakas_time(a, b) == exact_tiakas_time(a, b)


@settings(max_examples=200, deadline=None)
@given(pattern_pairs(max_len=30, equal_length=True).filter(lambda pair: len(pair[0]) > 1))
def test_tiakas_time_matches_per_step_definition(pair):
    a, b = pair
    for x, y in ((a, b), (b, a), (a, a)):
        assert tiakas_time(x, y) == exact_tiakas_time(x, y)
