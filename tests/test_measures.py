import random

import pytest
from hypothesis import given, strategies as st

from mobisim.errors import DomainError
from mobisim.measures import (
    Weights,
    spatial_dissimilarity,
    temporal_dissimilarity,
    uncommon_cell_count,
    weighted_dissimilarity,
)
from mobisim.patterns import make_pattern
from support import (
    brute_d_space,
    brute_d_time,
    brute_uncommon,
    has_repeat_at_distinct_slots,
    random_pattern,
)

SA = make_pattern([(1, 1), (0, 3), (2, 4), (8, 6), (7, 9)])
SB = make_pattern([(0, 3), (2, 4), (3, 5), (8, 6), (4, 8)])


@st.composite
def patterns(draw, n_cells=10, max_len=10):
    length = draw(st.integers(1, max_len))
    slots = sorted(
        draw(st.lists(st.integers(1, 11), min_size=length, max_size=length))
    )
    cells = draw(
        st.lists(st.integers(0, n_cells - 1), min_size=length, max_size=length)
    )
    return make_pattern(list(zip(cells, slots)))


class TestWeights:
    def test_default_is_half_half(self):
        w = Weights()
        assert w.space == w.time == 0.5

    def test_any_convex_split_accepted(self):
        Weights(0.3, 0.7)
        Weights(1.0, 0.0)

    def test_sum_must_be_one(self):
        with pytest.raises(DomainError):
            Weights(0.5, 0.6)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            Weights(-0.1, 1.1)

    @pytest.mark.parametrize(
        "space, time",
        [(float("nan"), 0.5), (0.5, float("nan")), (float("inf"), 0.5), (0.5, float("-inf"))],
    )
    def test_non_finite_rejected(self, space, time):
        with pytest.raises(DomainError, match="finite"):
            Weights(space, time)


class TestGoldenValues:
    def test_reference_pair(self):
        assert uncommon_cell_count(SA, SB) == 4
        assert abs(spatial_dissimilarity(SA, SB) - 0.4) <= 1e-12
        assert temporal_dissimilarity(SA, SB) == 0.0
        assert abs(weighted_dissimilarity(SA, SB) - 0.2) <= 1e-12

    def test_short_overlap_pair(self):
        s1 = make_pattern([(1, 1), (0, 3), (5, 4), (6, 6), (7, 9)])
        s2 = make_pattern([(0, 3), (5, 4), (7, 9)])
        assert temporal_dissimilarity(s1, s2) == 0.0
        assert uncommon_cell_count(s1, s2) == 2
        assert abs(spatial_dissimilarity(s1, s2) - 0.25) <= 1e-12

    def test_no_common_cells_means_one(self):
        a = make_pattern([(1, 1)])
        b = make_pattern([(2, 5)])
        assert temporal_dissimilarity(a, b) == 1.0
        assert spatial_dissimilarity(a, b) == 1.0
        assert weighted_dissimilarity(a, b) == 1.0

    def test_single_shared_cell_gap(self):
        a = make_pattern([(3, 2), (7, 5)])
        b = make_pattern([(4, 5), (7, 10)])
        assert abs(temporal_dissimilarity(a, b) - 0.5) <= 1e-12
        assert abs(spatial_dissimilarity(a, b) - 0.5) <= 1e-12

    def test_revisit_matches_all_index_pairs(self):
        # (5,t2),(5,t4) against (5,t3): pairs contribute 1/3 and 1/4.
        a = make_pattern([(5, 2), (5, 4)])
        b = make_pattern([(5, 3)])
        assert abs(temporal_dissimilarity(a, b) - 7 / 24) <= 1e-12

    def test_temporal_mean_is_rounded_once(self):
        # Terms 0, 0, 0, 4/5, 4/5 and 4/5: the exact mean 2/5, where summing
        # the rounded terms gave 0.4000000000000001.
        a = make_pattern([(0, 1)] * 3)
        b = make_pattern([(0, 1), (0, 5)])
        assert temporal_dissimilarity(a, b) == temporal_dissimilarity(b, a) == 0.4

    def test_revisit_self_comparison_is_nonzero(self):
        # All four index pairs count, including the two cross terms.
        p = make_pattern([(5, 1), (5, 9)])
        assert abs(temporal_dissimilarity(p, p) - 4 / 9) <= 1e-12
        assert temporal_dissimilarity(p, p) == brute_d_time(p, p)

    def test_custom_weights(self):
        a = make_pattern([(3, 2), (7, 5)])
        b = make_pattern([(4, 5), (7, 10)])
        v = weighted_dissimilarity(a, b, Weights(0.2, 0.8))
        assert abs(v - (0.2 * 0.5 + 0.8 * 0.5)) <= 1e-12


class TestProperties:
    @given(patterns(), patterns())
    def test_bounds(self, a, b):
        for fn in (spatial_dissimilarity, temporal_dissimilarity, weighted_dissimilarity):
            assert 0.0 <= fn(a, b) <= 1.0

    @given(patterns(), patterns())
    def test_symmetry_is_exact(self, a, b):
        assert uncommon_cell_count(a, b) == uncommon_cell_count(b, a)
        assert spatial_dissimilarity(a, b) == spatial_dissimilarity(b, a)
        assert temporal_dissimilarity(a, b) == temporal_dissimilarity(b, a)
        assert weighted_dissimilarity(a, b) == weighted_dissimilarity(b, a)

    @given(patterns())
    def test_spatial_self_zero(self, p):
        assert uncommon_cell_count(p, p) == 0
        assert spatial_dissimilarity(p, p) == 0.0

    @given(patterns())
    def test_temporal_self_zero_without_revisits(self, p):
        if not has_repeat_at_distinct_slots(p):
            assert temporal_dissimilarity(p, p) == 0.0
            assert weighted_dissimilarity(p, p) == 0.0

    @given(patterns(), patterns())
    def test_matches_definition_oracles(self, a, b):
        assert uncommon_cell_count(a, b) == brute_uncommon(a, b)
        assert abs(spatial_dissimilarity(a, b) - brute_d_space(a, b)) <= 1e-12
        assert abs(temporal_dissimilarity(a, b) - brute_d_time(a, b)) <= 1e-12

    @given(patterns(), patterns(), st.floats(0.0, 1.0))
    def test_composite_is_affine_in_weights(self, a, b, ws):
        w = Weights(ws, 1.0 - ws)
        expect = ws * spatial_dissimilarity(a, b) + (1.0 - ws) * temporal_dissimilarity(a, b)
        assert abs(weighted_dissimilarity(a, b, w) - expect) <= 1e-12


class TestInvariance:
    def test_spatial_ignores_timestamps(self):
        rng = random.Random(11)
        for _ in range(50):
            a = random_pattern(rng, 8, max_len=10)
            b = random_pattern(rng, 8, max_len=10)
            slots = sorted(rng.randint(1, 11) for _ in range(len(a)))
            a2 = make_pattern(list(zip(a.cells, slots)))
            assert spatial_dissimilarity(a2, b) == spatial_dissimilarity(a, b)

    def test_temporal_ignores_unshared_cells(self):
        rng = random.Random(12)
        checked = 0
        while checked < 50:
            a = random_pattern(rng, 8, max_len=10)
            b = random_pattern(rng, 8, max_len=10)
            shared = set(a.cells) & set(b.cells)
            if len(shared) == len(set(a.cells)):
                continue
            # re-slot the unshared points arbitrarily, keep shared ones fixed
            pairs = [
                (c, t if c in shared else rng.randint(1, 11))
                for c, t in zip(a.cells, a.slots)
            ]
            pairs.sort(key=lambda cs: cs[1])
            a2 = make_pattern(pairs)
            assert temporal_dissimilarity(a2, b) == temporal_dissimilarity(a, b)
            checked += 1
