import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mobisim import baselines, measures
from mobisim.clustering import (
    _DISJOINT_PAIR,
    MEASURES,
    DissimilarityMatrix,
    build_matrix,
    kmedoids,
    resolve_measure,
)
from mobisim.errors import DomainError
from mobisim.graph import CellGraph, example_graph, hex_grid
from mobisim.measures import Weights
from mobisim.patterns import make_pattern
from support import (
    brute_build_matrix,
    brute_d_space,
    brute_kmedoids,
    dp_lcss,
    exact_oss,
    exact_tiakas,
    has_repeat_at_distinct_slots,
    random_connected_graph,
    random_pattern,
)

SA = make_pattern([(1, 1), (0, 3), (2, 4), (8, 6), (7, 9)])
SB = make_pattern([(0, 3), (2, 4), (3, 5), (8, 6), (4, 8)])


def random_symmetric_matrix(rng: random.Random, n: int) -> DissimilarityMatrix:
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = rng.uniform(0.05, 1.0)
    return DissimilarityMatrix(values)


# A few values that are not exact binary fractions, so equal swaps are
# common and their sums depend on the order of addition.
TIE_VALUES = (0.1, 0.2, 0.3, 0.7, 0.9)


def oracle_matrix(rng: random.Random, n: int, family: str) -> DissimilarityMatrix:
    """uniform: symmetric, zero diagonal; ties: symmetric over TIE_VALUES;
    diagonal: uniform plus a nonzero diagonal; asymmetric: every entry
    drawn from TIE_VALUES, diagonal included; signed-zeros: every entry
    drawn from -0.0, 0.0 and 1.0, diagonal included."""
    if family in ("asymmetric", "signed-zeros"):
        pool = TIE_VALUES if family == "asymmetric" else (-0.0, 0.0, 1.0)
        values = np.array([[rng.choice(pool) for _ in range(n)] for _ in range(n)])
        return DissimilarityMatrix(values)
    draw = (lambda: rng.choice(TIE_VALUES)) if family == "ties" else (
        lambda: rng.uniform(0.05, 1.0)
    )
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = draw()
    if family == "diagonal":
        for i in range(n):
            values[i, i] = rng.uniform(0.0, 0.3)
    return DissimilarityMatrix(values)


def grid_walk(rng: random.Random, grid, length: int) -> list[tuple[int, int]]:
    slots = sorted(rng.randint(1, 11) for _ in range(length))
    cell = rng.randrange(grid.vertex_count)
    pairs = [(cell, slots[0])]
    for t in slots[1:]:
        cell = rng.choice((cell, *grid.neighbors(cell)))
        pairs.append((cell, t))
    return pairs


class TestResolveMeasure:
    def test_all_selectors_resolve(self):
        g = example_graph()
        for name in MEASURES:
            fn = resolve_measure(name, graph=g)
            assert callable(fn)

    def test_unknown_selector(self):
        with pytest.raises(DomainError):
            resolve_measure("euclid")

    def test_graph_required_for_net_measures(self):
        with pytest.raises(DomainError):
            resolve_measure("tiakas-net")
        with pytest.raises(DomainError):
            resolve_measure("tiakas-total")

    @pytest.mark.parametrize("name", MEASURES)
    def test_matches_direct_call(self, name):
        # Weights other than the default, so a measure that drops them fails.
        g, w = example_graph(), Weights(0.8, 0.2)
        want = {
            "space": lambda: measures.spatial_dissimilarity(SA, SB),
            "time": lambda: measures.temporal_dissimilarity(SA, SB),
            "composite": lambda: measures.weighted_dissimilarity(SA, SB, w),
            "tiakas-net": lambda: baselines.tiakas_net(SA, SB, g),
            "tiakas-time": lambda: baselines.tiakas_time(SA, SB),
            "tiakas-total": lambda: baselines.tiakas_total(SA, SB, g, w),
            "oss": lambda: baselines.oss(SA, SB),
            "lcss": lambda: baselines.lcss(SA, SB),
            "cvti": lambda: baselines.cvti(SA, SB),
        }[name]()
        got = resolve_measure(name, graph=g, weights=w)(SA, SB)
        assert type(got) is float
        assert got == want


class TestBuildMatrix:
    def test_reference_pair(self):
        m = build_matrix([SA, SB], "composite")
        assert m.n == 2
        assert m.values[0, 0] == m.values[1, 1] == 0.0
        assert abs(m.values[0, 1] - 0.2) <= 1e-12
        assert abs(m.values[1, 0] - 0.2) <= 1e-12

    def test_single_pattern(self):
        m = build_matrix([SA], "composite")
        assert m.values.shape == (1, 1)
        assert m.values[0, 0] == 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(DomainError):
            build_matrix([], "composite")

    def test_entries_match_direct_calls(self):
        rng = random.Random(31)
        pats = [random_pattern(rng, 8, max_len=8) for _ in range(3)]
        m = build_matrix(pats, "oss")
        for i, j in itertools.product(range(3), repeat=2):
            assert m.values[i, j] == baselines.oss(pats[i], pats[j])

    def test_symmetric_for_every_measure(self):
        rng = random.Random(32)
        g = example_graph()
        pats = [random_pattern(rng, 12, min_len=4, max_len=4) for _ in range(4)]
        for name in MEASURES:
            m = build_matrix(pats, name, graph=g)
            assert np.array_equal(m.values, m.values.T), name

    def test_precondition_failure_names_the_pair(self):
        pats = [
            make_pattern([(0, 1), (1, 2)]),
            make_pattern([(0, 1), (1, 2)]),
            make_pattern([(0, 1)]),
        ]
        with pytest.raises(DomainError, match=r"0 and 2"):
            build_matrix(pats, "tiakas-time")

    def test_ids_length_checked(self):
        with pytest.raises(DomainError):
            build_matrix([SA, SB], "composite", ids=["only-one"])


class TestKmedoids:
    def test_k_equals_n(self):
        rng = random.Random(41)
        m = random_symmetric_matrix(rng, 6)
        result = kmedoids(m, 6, seed=0)
        assert result.medoids == tuple(range(6))
        assert result.total_cost == 0.0
        assert result.assignment == tuple(range(6))

    def test_k_one_picks_column_sum_minimizer(self):
        rng = random.Random(42)
        for trial in range(20):
            m = random_symmetric_matrix(rng, 7)
            result = kmedoids(m, 1, seed=trial)
            sums = m.values.sum(axis=0)
            assert result.medoids[0] == int(np.argmin(sums))

    def test_k_bounds(self):
        rng = random.Random(43)
        m = random_symmetric_matrix(rng, 4)
        with pytest.raises(DomainError):
            kmedoids(m, 0)
        with pytest.raises(DomainError):
            kmedoids(m, 5)

    def test_deterministic_per_seed(self):
        rng = random.Random(44)
        m = random_symmetric_matrix(rng, 9)
        a = kmedoids(m, 3, seed=5)
        b = kmedoids(m, 3, seed=5)
        assert a == b

    def test_cost_history_non_increasing(self):
        rng = random.Random(45)
        for trial in range(30):
            m = random_symmetric_matrix(rng, 10)
            result = kmedoids(m, 3, seed=trial)
            hist = result.cost_history
            assert all(x > y for x, y in zip(hist, hist[1:]))
            assert hist[-1] == pytest.approx(result.total_cost)

    def test_single_swap_optimality(self):
        rng = random.Random(46)
        for trial in range(30):
            n = rng.randint(4, 8)
            k = rng.randint(1, 3)
            m = random_symmetric_matrix(rng, n)
            result = kmedoids(m, k, seed=trial)

            def cost_of(medoids):
                return sum(
                    min(m.values[i, c] for c in medoids)
                    for i in range(n)
                    if i not in medoids
                )

            base = cost_of(result.medoids)
            for med in result.medoids:
                for cand in range(n):
                    if cand in result.medoids:
                        continue
                    trial_set = [c for c in result.medoids if c != med] + [cand]
                    assert cost_of(trial_set) >= base - 1e-12

    def test_two_separated_groups(self):
        grid = hex_grid(2, 8)
        left = {r * 8 + c for r in range(2) for c in range(4)}
        rng = random.Random(47)

        def walk(region):
            length = rng.randint(6, 10)
            slots = sorted(rng.randint(1, 11) for _ in range(length))
            cell = rng.choice(sorted(region))
            pairs = [(cell, slots[0])]
            for t in slots[1:]:
                options = [cell] + [v for v in grid.neighbors(cell) if v in region]
                cell = rng.choice(options)
                pairs.append((cell, t))
            return make_pattern(pairs)

        pats = [walk(left) for _ in range(4)]
        pats += [walk(set(range(16)) - left) for _ in range(4)]
        m = build_matrix(pats, "composite")
        result = kmedoids(m, 2, seed=0)
        groups = {}
        for i, med in enumerate(result.assignment):
            groups.setdefault(med, set()).add(i)
        assert sorted(groups.values(), key=min) == [{0, 1, 2, 3}, {4, 5, 6, 7}]

    def test_medoids_assigned_to_themselves(self):
        rng = random.Random(48)
        m = random_symmetric_matrix(rng, 8)
        result = kmedoids(m, 3, seed=1)
        for med in result.medoids:
            assert result.assignment[med] == med

    def test_assignment_ties_take_lowest_medoid(self):
        values = np.zeros((3, 3))
        values[0, 1] = values[1, 0] = 0.5
        values[0, 2] = values[2, 0] = 0.5
        values[1, 2] = values[2, 1] = 0.9
        m = DissimilarityMatrix(values)
        result = kmedoids(m, 2, seed=0)
        assert result.assignment[0] == min(result.medoids)


class TestKmedoidsOracle:
    """kmedoids must equal the loop PAM bit for bit: same medoids, assignment,
    total_cost and cost_history, so the same swap is taken on every tie."""

    @pytest.mark.parametrize(
        "family", ["uniform", "ties", "diagonal", "asymmetric", "signed-zeros"]
    )
    def test_matches_loop_pam_on_random_matrices(self, family):
        # == cannot tell a cost of -0.0 from 0.0, so the costs are compared
        # bit for bit too.
        rng = random.Random(f"oracle/{family}")
        sizes = set()
        for trial in range(80):
            n = rng.randint(1, 16)
            sizes.add(n)
            m = oracle_matrix(rng, n, family)
            for k in sorted({1, rng.randint(1, n), n}):
                got, want = kmedoids(m, k, seed=trial), brute_kmedoids(m, k, seed=trial)
                assert got == want
                assert same_bits(np.array(got.cost_history), np.array(want.cost_history))
        assert 1 in sizes

    def test_matches_loop_pam_on_composite_walks(self):
        grid = hex_grid(3, 4)
        rng = random.Random(61)
        for trial in range(12):
            n = rng.randint(6, 14)
            pats = [make_pattern(grid_walk(rng, grid, rng.randint(6, 12))) for _ in range(n)]
            m = build_matrix(pats, "composite")
            assert np.diagonal(m.values).any()
            for k in sorted({1, rng.randint(2, n - 1), n}):
                result = kmedoids(m, k, seed=trial)
                assert result == brute_kmedoids(m, k, seed=trial)
                assert result.total_cost == result.cost_history[-1]

    def test_matches_loop_pam_on_planted_routes(self):
        # n=64, k=8: eight routes on a 5x5 grid, each followed by seven
        # copies with a quarter of their cells moved to a neighbour.
        grid = hex_grid(5, 5)
        rng = random.Random(62)
        routes = [grid_walk(rng, grid, 8 + g) for g in range(8)]
        pats = []
        for i in range(64):
            route = routes[i % 8]
            if i >= 8:
                route = [
                    (rng.choice(grid.neighbors(c)), t) if rng.random() < 0.25 else (c, t)
                    for c, t in route
                ]
            pats.append(make_pattern(route))
        m = build_matrix(pats, "composite")
        assert np.diagonal(m.values).any()
        result = kmedoids(m, 8, seed=1)
        assert len(result.cost_history) > 1
        assert result == brute_kmedoids(m, 8, seed=1)
        assert result.total_cost == result.cost_history[-1]
        assert {type(c) for c in (result.total_cost, *result.cost_history)} == {float}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(2, 20_000), st.integers(0, 2**32 - 1))
@example(9, 2, 0)
@example(40, 8193, 0)
def test_column_sums_add_rows_in_order(rows, cols, seed):
    # kmedoids sums its costs by np.add.reduce over axis 0 of a C-order
    # table with two or more columns. Magnitudes 2**53 apart, so adding a
    # column in another order, such as numpy's pairwise sum of nine or more
    # values along a contiguous axis, rounds differently somewhere. Rows
    # wider than numpy's 8192-element buffer are summed a block at a time.
    values = np.random.default_rng(seed).choice([2.0**53, 1.0, 0.1, 0.3, 3.0], (rows, cols))
    want = values[0].copy()
    for row in values[1:]:
        want = want + row
    assert same_bits(np.add.reduce(values, axis=0), want)


# Default weights, two skewed ones, and one whose parts do not add up to
# exactly 1.0 in floating point, so a composite fill of plain 1.0 is wrong.
ORACLE_WEIGHTS = (None, Weights(0.8, 0.2), Weights(0.3, 0.7), Weights(0.5, 0.5 + 4e-13))
ORACLE_GRID = hex_grid(4, 4)
# The measures that read only the cells two patterns share.
CELL_LOCAL = ("space", "time", "composite", "oss", "lcss", "cvti")


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and bytes, so 0.0 and -0.0 differ."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def outcome(build, pats, name, weights, graph=ORACLE_GRID, named=True):
    """The values build gives, a read-only float64 array, or the text of the
    DomainError it raises; the patterns are named q00, q01, ... unless named
    is false."""
    ids = [f"q{i:02d}" for i in range(len(pats))] if named else None
    try:
        m = build(pats, name, graph=graph, weights=weights, ids=ids)
    except DomainError as exc:
        return str(exc)
    assert m.ids == (ids and tuple(ids))
    assert m.values.dtype == np.float64 and not m.values.flags.writeable
    return m.values


def assert_matches_loop_build(pats, name, weights):
    want = outcome(brute_build_matrix, pats, name, weights)
    got = outcome(build_matrix, pats, name, weights)
    if isinstance(want, str):
        assert got == want
    else:
        assert same_bits(got, want)
        assert same_bits(got, got.T)


def oracle_traces(rng: random.Random):
    """Seeded traces on ORACLE_GRID, each a list of patterns."""
    lengths = [1, 1] + [rng.randint(2, 10) for _ in range(12)]
    walks = [make_pattern(grid_walk(rng, ORACLE_GRID, n)) for n in lengths]
    walks.append(make_pattern([(0, 2), (1, 3), (0, 7)]))
    assert has_repeat_at_distinct_slots(walks[-1])
    equal = [make_pattern(grid_walk(rng, ORACLE_GRID, 5)) for _ in range(10)]
    one_point = [make_pattern([(rng.randrange(6), rng.randint(1, 11))]) for _ in range(8)]
    # Pattern i stays on cell i, revisiting it: no pair shares a cell and
    # every diagonal of the temporal part is nonzero.
    disjoint = [make_pattern([(i, 1), (i, 4 + i)]) for i in range(8)]
    single = [make_pattern(grid_walk(rng, ORACLE_GRID, rng.randint(1, 6)))]
    return {"walks": walks, "equal": equal, "one-point": one_point,
            "disjoint": disjoint, "single": single}


@st.composite
def traces(draw, n_cells=6):
    """Up to eight patterns on cells 0..n_cells-1, equal-length or not."""
    count = draw(st.integers(1, 8))
    equal = draw(st.booleans())
    fixed = draw(st.integers(1, 6))
    pats = []
    for _ in range(count):
        length = fixed if equal else draw(st.integers(1, 6))
        slots = sorted(draw(st.lists(st.integers(1, 11), min_size=length, max_size=length)))
        cells = draw(st.lists(st.integers(0, n_cells - 1), min_size=length, max_size=length))
        pats.append(make_pattern(list(zip(cells, slots))))
    return pats


class TestBuildMatrixOracle:
    """build_matrix, which evaluates only pairs that share a cell, must equal
    the loop over every ordered pair bit for bit, and fail with the same
    message naming the same pattern ids."""

    @pytest.mark.parametrize("weights", ORACLE_WEIGHTS, ids=str)
    @pytest.mark.parametrize("name", MEASURES)
    def test_matches_loop_build_on_seeded_traces(self, name, weights):
        rng = random.Random(f"build/{name}")
        for _ in range(3):
            for pats in oracle_traces(rng).values():
                assert_matches_loop_build(pats, name, weights)

    def test_disjoint_trace_has_nonzero_diagonal(self):
        pats = oracle_traces(random.Random(0))["disjoint"]
        m = build_matrix(pats, "composite")
        assert np.diagonal(m.values).all()
        assert (m.values[~np.eye(len(pats), dtype=bool)] == 1.0).all()

    @settings(max_examples=150, deadline=None)
    @given(
        traces(),
        st.sampled_from(MEASURES),
        st.sampled_from(ORACLE_WEIGHTS),
    )
    def test_matches_loop_build_on_generated_traces(self, pats, name, weights):
        assert_matches_loop_build(pats, name, weights)

    @pytest.mark.parametrize("name", ["tiakas-net", "tiakas-time", "tiakas-total"])
    def test_failure_names_the_same_pair(self, name):
        # Lengths 2, 2, 3, 1: the first pair in row-major order with unequal
        # lengths is (0, 2).
        pats = [
            make_pattern([(0, 1), (1, 2)]),
            make_pattern([(2, 1), (3, 2)]),
            make_pattern([(0, 1), (1, 2), (2, 3)]),
            make_pattern([(0, 1)]),
        ]
        want = outcome(brute_build_matrix, pats, name, None)
        assert "'q00' and 'q02': patterns must have equal length, got 2 and 3" in want
        assert outcome(build_matrix, pats, name, None) == want

    @pytest.mark.parametrize("name", CELL_LOCAL)
    def test_disjoint_value_is_the_measures_value(self, name):
        rng = random.Random(f"disjoint/{name}")
        for weights in ORACLE_WEIGHTS:
            fn = resolve_measure(name, weights=weights)
            fill = fn(*_DISJOINT_PAIR)
            for _ in range(50):
                # a visits cells 0..4 and b cells 5..9.
                a = random_pattern(rng, 5, max_len=8)
                b = random_pattern(rng, 5, max_len=8)
                b = make_pattern([(c + 5, t) for c, t in zip(b.cells, b.slots)])
                assert fn(a, b) == fn(b, a) == fill


@st.composite
def revisit_traces(draw, count=40, length=30):
    """Up to count patterns of up to length points on at most six cells:
    most pairs share a cell, and most patterns revisit one."""
    n_cells = draw(st.integers(1, 6))
    pats = []
    for _ in range(draw(st.integers(1, count))):
        size = draw(st.integers(1, length))
        cells = draw(st.lists(st.integers(0, n_cells - 1), min_size=size, max_size=size))
        slots = sorted(draw(st.lists(st.integers(1, 11), min_size=size, max_size=size)))
        pats.append(make_pattern(list(zip(cells, slots))))
    return pats


def assert_join_tables_match(pats, names=("space", "time", "oss", "lcss", "cvti")):
    """The tables built on the same-cell join equal the loop build bit for
    bit: those of names, and composite at every ORACLE_WEIGHTS weighting."""
    for name in names:
        assert_matches_loop_build(pats, name, None)
    for weights in ORACLE_WEIGHTS:
        assert_matches_loop_build(pats, "composite", weights)


class TestSameCellJoin:
    """Every cell-local table reads one join of the points on each cell:
    space, time, composite, oss and cvti sum integers over it, and lcss runs
    on each candidate pair. Their matrices must be the per-pair functions'
    bit for bit, however the join is cut into chunks, and on patterns of
    thousands of points."""

    @settings(max_examples=30, deadline=None)
    @given(revisit_traces())
    def test_tables_match_loop_build(self, pats):
        assert_join_tables_match(pats)

    @settings(max_examples=40, deadline=None)
    # Chunks of 1 and 7 point pairs cut the join inside one point's slice;
    # the traces are smaller, as each chunk costs a few dozen numpy calls.
    @given(revisit_traces(8, 8), st.sampled_from([1, 7]))
    def test_chunked_tables_match_loop_build(self, pats, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(baselines, "_CHUNK", chunk)
            assert_join_tables_match(pats)

    @settings(max_examples=40, deadline=None)
    @given(revisit_traces(8, 8), st.sampled_from([1, 7]))
    def test_oss_table_is_the_exact_fraction(self, pats, chunk):
        # One division of two exact integers per pair, in the table as in
        # oss: each value is the nearest double to the exact Fraction.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(baselines, "_CHUNK", chunk)
            got = build_matrix(pats, "oss").values
        want = [[exact_oss(a, b) for b in pats] for a in pats]
        assert got.tolist() == want
        assert want == [[baselines.oss(a, b) for b in pats] for a in pats]

    def test_time_is_the_exact_mean_on_long_patterns(self):
        # Two 3 000-point patterns on four cells: each pair of them has
        # over 2**21 same-cell point pairs. The oracle counts each slot pair
        # on each cell and sums their Fraction terms. On this seed, an exact
        # sum of the rounded terms, as math.fsum gives, misses three of the
        # four exact means by an ulp.
        rng = random.Random(21)
        pats = [random_pattern(rng, 4, 3000, 3000) for _ in range(2)]
        slots = [
            [Counter(t for c, t in zip(p.cells, p.slots) if c == cell) for cell in range(4)]
            for p in pats
        ]

        def exact(i, j):
            total, count = Fraction(0), 0
            for sa, sb in zip(slots[i], slots[j]):
                for (ta, na), (tb, nb) in itertools.product(sa.items(), sb.items()):
                    total += na * nb * Fraction(abs(ta - tb), max(ta, tb))
                    count += na * nb
            return float(total / count)

        want = np.array([[exact(i, j) for j in range(2)] for i in range(2)])
        assert same_bits(build_matrix(pats, "time").values, want)
        space = np.array([[brute_d_space(a, b) for b in pats] for a in pats])
        for weights in ORACLE_WEIGHTS:
            w = measures.DEFAULT_WEIGHTS if weights is None else weights
            got = build_matrix(pats, "composite", weights=weights).values
            assert same_bits(got, w.space * space + w.time * want)

    def test_lcss_across_word_lengths(self):
        # Two patterns of each length on three cells, so cells repeat: one
        # point, and either side of the 53 bits of a double's mantissa and
        # of the 64 bits of a machine word, where a bit-parallel LCS would
        # change how it holds a pattern's match mask.
        rng = random.Random(23)
        pats = [
            random_pattern(rng, 3, length, length)
            for length in (1, 53, 54, 63, 64, 65)
            for _ in range(2)
        ]
        got = build_matrix(pats, "lcss").values
        assert same_bits(got, brute_build_matrix(pats, "lcss").values)
        want = [[dp_lcss(a, b) for b in pats] for a in pats]
        assert got.tolist() == want

    def test_dense_join_is_chunked(self):
        # 120 walks of 20 points on 4 cells: about 720 000 same-cell point
        # pairs, which a join kept whole would hold in each of a dozen arrays.
        rng = random.Random(11)
        pats = [random_pattern(rng, 4, 20, 20) for _ in range(120)]
        tracemalloc.start()
        try:
            m = build_matrix(pats, "composite")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * m.values.nbytes + 16 * 8 * baselines._CHUNK
        picks = rng.sample(range(120), 10)
        for i, j in itertools.product(picks, repeat=2):
            assert m.values[i, j] == measures.weighted_dissimilarity(pats[i], pats[j])


TIAKAS = ("tiakas-net", "tiakas-time", "tiakas-total")


def assert_tables_match(pats, graph, names=TIAKAS, weightings=ORACLE_WEIGHTS):
    """The positional measures' matrices equal the loop build bit for bit,
    on the patterns in the given order and reversed, or fail the same way."""
    for name in names:
        for weights in weightings:
            want = outcome(brute_build_matrix, pats, name, weights, graph)
            got = outcome(build_matrix, pats, name, weights, graph)
            if isinstance(want, str):
                assert got == want
                continue
            assert same_bits(got, want)
            back = outcome(build_matrix, pats[::-1], name, weights, graph)
            assert same_bits(back, want[::-1, ::-1].copy())


def slot_walks(rng, graph, count, length):
    """count walks of the given length; one keeps its first slot throughout,
    so every increment of it is zero."""
    walks = [make_pattern(grid_walk(rng, graph, length)) for _ in range(count)]
    flat = walks[0]
    walks[0] = make_pattern([(c, flat.slots[0]) for c in flat.cells])
    return walks


# A connected and a disconnected graph on cells 0..5.
FAULT_GRAPHS = (
    CellGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]),
    CellGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
)


@st.composite
def failing_traces(draw):
    """Up to six patterns on cells 0..5 of a common length, of which any,
    pattern 0 included, may break a tiakas precondition: one point, another
    length, or a cell off FAULT_GRAPHS at some position, or two of these."""
    length = draw(st.integers(2, 4))
    pats = []
    for _ in range(draw(st.integers(1, 6))):
        size = draw(st.sampled_from([length, length, 1, length + 1]))
        cells = draw(st.lists(st.integers(0, 5), min_size=size, max_size=size))
        if draw(st.integers(0, 3)) == 0:
            cells[draw(st.integers(0, size - 1))] = draw(st.integers(6, 9))
        slots = sorted(draw(st.lists(st.integers(1, 11), min_size=size, max_size=size)))
        pats.append(make_pattern(list(zip(cells, slots))))
    return pats


def int_rows(high, rows, cols):
    """rows lists of cols ints in 0..high."""
    row = st.lists(st.integers(0, high), min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows)


@st.composite
def pair_sum_inputs(draw):
    """codes (n x L, in 0..U-1) and an int32 table (U x U)."""
    n, length, u = draw(st.integers(1, 4)), draw(st.integers(1, 12)), draw(st.integers(1, 3))
    codes = draw(int_rows(u - 1, n, length))
    table = draw(int_rows(2**31 - 1, u, u))
    return np.array(codes), np.array(table, dtype=np.int32)


@settings(max_examples=300, deadline=None)
# _CHUNK 1 and 5 split even these small inputs into blocks of rows and of
# columns.
@given(pair_sum_inputs(), st.sampled_from([1, 5, 1 << 16]))
# Twelve int32 maxima sum past the int32 range.
@example((np.zeros((2, 12), dtype=np.intp), np.full((1, 1), 2**31 - 1, dtype=np.int32)), 5)
def test_pair_sums_is_the_loop_sum(inputs, chunk):
    codes, table = inputs
    n, length = codes.shape
    want = [
        [sum(int(table[codes[i, l], codes[j, l]]) for l in range(length)) for j in range(n)]
        for i in range(n)
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "_CHUNK", chunk)
        got = baselines._pair_sums(codes, table)
    assert got.dtype == np.int64 and got.tolist() == want


def bfs_runs(monkeypatch) -> list[int]:
    """The source of every CellGraph._bfs run from here on."""
    bfs, runs = CellGraph._bfs, []

    def counted(self, source):
        runs.append(source)
        return bfs(self, source)

    monkeypatch.setattr(CellGraph, "_bfs", counted)
    return runs


def pair_outcome(fn, a, b):
    """fn(a, b) as hex, or the type and text of the DomainError it raises."""
    try:
        return fn(a, b).hex()
    except DomainError as exc:
        return type(exc), str(exc)


class TestTiakasTables:
    """build_matrix computes the tiakas measures for every pair at once from
    a hop table and integer sums; each value must be the per-pair function's
    bit for bit, and any failure the loop's, naming the same pair. The loop
    runs each measure's exact oracle from tests/support.py, as the public
    per-pair functions are themselves the tables on one pair."""

    def test_random_graphs(self):
        rng = random.Random("tiakas/random")
        diameters = set()
        while len(diameters) < 5:
            g = random_connected_graph(rng, 6, 40)
            dia = g.diameter()
            if dia & (dia - 1) == 0 or dia in diameters:
                continue
            diameters.add(dia)
            for length in (1, 2, 3, 70):
                assert_tables_match(slot_walks(rng, g, rng.randint(1, 7), length), g)

    def test_one_cell_graph(self):
        g = CellGraph(1)
        rng = random.Random(5)
        for length in (1, 2, 70):
            assert_tables_match(slot_walks(rng, g, 4, length), g)

    def test_long_path_sums_hops_exactly(self):
        # Terms h / 1200 need up to 63 fraction bits as doubles, so a sum of
        # the rounded terms can miss the exact mean: the table sums the hops.
        dia = 1200
        g = CellGraph(dia + 1, [(i, i + 1) for i in range(dia)])
        bits = max((h / dia).as_integer_ratio()[1] for h in range(1, dia + 1))
        assert bits.bit_length() - 1 > 62
        rng = random.Random(6)
        pats = [random_pattern(rng, dia + 1, 66, 66) for _ in range(4)]
        # Two ends swapped: every hop is the diameter.
        pats.append(make_pattern([(0, 1)] * 33 + [(dia, 11)] * 33))
        pats.append(make_pattern([(dia, 1)] * 33 + [(0, 11)] * 33))
        assert_tables_match(pats, g, ("tiakas-net", "tiakas-total"), (None,))

    def test_table_runs_no_pair_loop(self, monkeypatch):
        pats = slot_walks(random.Random(7), ORACLE_GRID, 6, 5)
        want = outcome(brute_build_matrix, pats, "tiakas-total", None)
        runs = bfs_runs(monkeypatch)
        assert same_bits(outcome(build_matrix, pats, "tiakas-total", None), want)
        assert runs == []

    @pytest.mark.parametrize("names, graph, cells, message", [
        (("tiakas-net", "tiakas-total"), ORACLE_GRID, [[0, 1], [2, 3], [16, 4]],
         "'q00' and 'q02': cell id 16 out of range for graph with 16 cells"),
        (("tiakas-net", "tiakas-total"), CellGraph(4, [(0, 1), (2, 3)]), [[0, 1], [2, 3]],
         "'q00' and 'q00': graph is not connected"),
        (("tiakas-time", "tiakas-total"), ORACLE_GRID, [[0], [1], [2]],
         "'q00' and 'q00': patterns need at least two points"),
    ])
    def test_failure_is_the_loops(self, names, graph, cells, message):
        pats = [make_pattern([(c, t + 1) for t, c in enumerate(row)]) for row in cells]
        for name in names:
            want = outcome(brute_build_matrix, pats, name, None, graph)
            assert want == f"measure {name!r} failed for patterns {message}"
            assert outcome(build_matrix, pats, name, None, graph) == want

    @pytest.mark.parametrize("last, reason", [
        ([(1600, t) for t in range(1, 11)], "cell id 1600 out of range for graph with 1600 cells"),
        ([(0, t) for t in range(1, 10)], "patterns must have equal length, got 10 and 9"),
    ])
    def test_failing_pair_runs_no_bfs(self, last, reason, monkeypatch):
        # A pair loop sharing one hop lookup ran the BFS of each cell of
        # walk 0 before it reached the last walk: 7 BFS runs here, and about
        # 2000 with a fresh lookup per pair. The table names pair (0, 299),
        # whose error comes before any hop is looked up.
        g = hex_grid(40, 40)
        rng = random.Random(9)
        pats = [make_pattern(grid_walk(rng, g, 10)) for _ in range(299)]
        pats.append(make_pattern(last))
        g.diameter()
        runs = bfs_runs(monkeypatch)
        for name in ("tiakas-net", "tiakas-total"):
            got = outcome(build_matrix, pats, name, None, g)
            assert got == f"measure {name!r} failed for patterns 'q00' and 'q299': {reason}"
            assert runs == []
        short = pats[:30] + pats[-1:]
        for name in ("tiakas-net", "tiakas-total"):
            assert outcome(build_matrix, short, name, None, g) == (
                outcome(brute_build_matrix, short, name, None, g)
            )

    @settings(max_examples=200, deadline=None)
    @given(failing_traces(), st.sampled_from(FAULT_GRAPHS), st.booleans())
    def test_competing_failures_name_the_loops_pair(self, pats, graph, named):
        for name in TIAKAS:
            want = outcome(brute_build_matrix, pats, name, None, graph, named)
            got = outcome(build_matrix, pats, name, None, graph, named)
            if isinstance(want, str):
                assert got == want
            else:
                assert same_bits(got, want)
            # Each pair alone fails as its oracle does, even where the
            # pattern's own row would fail first on another precondition.
            fn, oracle = resolve_measure(name, graph=graph), exact_tiakas(name, graph, None)
            for a, b in itertools.product(pats, repeat=2):
                assert pair_outcome(fn, a, b) == pair_outcome(oracle, a, b)

    def test_each_table_checks_each_row_once(self, monkeypatch):
        # tiakas-total's table checked its rows, then each of its two parts
        # checked them again, each check asking for the diameter: 3n
        # checks, and the pair function added a fourth.
        checks, check_pair = [], baselines._check_pair

        def counted(*args):
            checks.append(args)
            return check_pair(*args)

        monkeypatch.setattr(baselines, "_check_pair", counted)
        pats = slot_walks(random.Random(12), ORACLE_GRID, 5, 4)
        for name in TIAKAS:
            checks.clear()
            build_matrix(pats, name, graph=ORACLE_GRID)
            assert len(checks) == len(pats)
            checks.clear()
            resolve_measure(name, graph=ORACLE_GRID)(pats[0], pats[1])
            assert len(checks) == 1

    def test_tables_of_every_length_sum_exactly(self, monkeypatch):
        pair_sums, lengths = baselines._pair_sums, []

        def recorded(codes, table):
            values = pair_sums(codes, table)
            assert isinstance(values, np.ndarray)
            lengths.append(codes.shape[1])
            return values

        monkeypatch.setattr(baselines, "_pair_sums", recorded)
        rng = random.Random("tiakas/inexact")
        g = random_connected_graph(rng, 6, 40)
        for length in (1, 2, 3, 70):
            pats = slot_walks(rng, g, rng.randint(1, 7), length)
            assert_tables_match(pats, g)
            if length > 1:
                with monkeypatch.context() as patched:
                    runs = bfs_runs(patched)
                    for name in TIAKAS:
                        build_matrix(pats, name, graph=g)
                    assert runs == []
        assert 70 in lengths
        # Walk 3 leaves the graph and walk 5 is one point short.
        pats = slot_walks(rng, g, 5, 4)
        pats[3] = make_pattern([(g.vertex_count, 1)] * 4)
        pats.append(make_pattern([(0, 1)] * 3))
        for name, j in (("tiakas-net", 3), ("tiakas-time", 5), ("tiakas-total", 3)):
            want = outcome(brute_build_matrix, pats, name, None, g)
            assert f"'q00' and 'q0{j}'" in want
            assert outcome(build_matrix, pats, name, None, g) == want

    def test_long_trace_on_long_path_runs_no_bfs(self, monkeypatch):
        # Terms h / 99992 need 68 fraction bits as doubles, and each walk
        # has 2**15 positions. A pair loop ran a BFS over the whole path per
        # source cell per pair.
        size = 99993
        g = CellGraph(size, [(i, i + 1) for i in range(size - 1)])
        assert g.diameter() == size - 1
        rng = random.Random(10)
        pats = []
        for _ in range(3):
            cell, points = rng.randint(0, 3), []
            for slot in sorted(rng.randint(1, 11) for _ in range(2**15)):
                cell = min(3, max(0, cell + rng.choice((-1, 0, 1))))
                points.append((cell, slot))
            pats.append(make_pattern(points))
        want = outcome(brute_build_matrix, pats, "tiakas-net", None, g)
        runs = bfs_runs(monkeypatch)
        assert same_bits(outcome(build_matrix, pats, "tiakas-net", None, g), want)
        assert runs == []

    def test_matrix_leaves_no_levels_on_the_graph(self):
        # A graph-wide BFS cache kept a 900-long level list for each of the
        # several hundred cells these walks use, about 5 MB.
        g = hex_grid(30, 30)
        rng = random.Random(8)
        pats = [make_pattern(grid_walk(rng, g, 8)) for _ in range(120)]
        g.diameter()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            m = build_matrix(pats, "tiakas-net", graph=g)
            pair = [baselines.tiakas_net(a, b, g) for a, b in zip(pats, pats[1:20])]
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert pair == [m.values[i, i + 1] for i in range(19)]
        assert set(vars(g)) == {"_n", "_adj", "_diameter", "_neighbors"}
        assert retained - m.values.nbytes < 2**17


class TestMatrixValidation:
    def test_shape_mismatch(self):
        for shape in ((3, 2), (3,), (2, 2, 2)):
            with pytest.raises(DomainError, match="not square"):
                DissimilarityMatrix(np.zeros(shape))

    def test_non_finite_rejected(self):
        bad = np.zeros((2, 2))
        bad[0, 1] = float("nan")
        with pytest.raises(DomainError):
            DissimilarityMatrix(bad)

    def test_nested_lists_become_float64(self):
        m = DissimilarityMatrix(values=[[0, 1], [1.0, 0.0]])
        assert m.values.dtype == np.float64 and m.values.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert kmedoids(m, 1).total_cost == 1.0

    def test_read_only_float64_is_not_copied(self):
        values = np.zeros((2, 2))
        values.setflags(write=False)
        assert DissimilarityMatrix(values).values is values

    @pytest.mark.parametrize("values", [
        np.array([["a", "b"], ["c", "d"]]),
        np.array([[0.0, "x"], [1.0, 0.0]], dtype=object),
        [[0.0, 1.0], [1.0]],
        [[0.0, {}], [1.0, 0.0]],
        "ab",
        np.array([[0, 1 + 2j], [1 + 2j, 0]]),
        np.array([["0", "1"], ["1", "0"]]),
        np.array([[0, "1"], ["1", 0]], dtype=object),
    ])
    def test_non_numbers_rejected(self, values):
        with pytest.raises(DomainError, match="matrix values are not numbers"):
            DissimilarityMatrix(values)

    @pytest.mark.parametrize("values", [
        np.array([[0, 1.5], [True, 0]], dtype=object),
        np.array([[False, True], [True, False]]),
    ])
    def test_real_objects_and_bools_accepted(self, values):
        assert DissimilarityMatrix(values).values.tolist() == values.astype(float).tolist()

    def test_none_is_not_finite(self):
        with pytest.raises(DomainError, match="non-finite"):
            DissimilarityMatrix([[0.0, None], [1.0, 0.0]])

    def test_ids_length_checked(self):
        assert DissimilarityMatrix(np.zeros((2, 2)), ids=("a", "b")).n == 2
        with pytest.raises(DomainError, match="1 ids for 2 patterns"):
            DissimilarityMatrix(np.zeros((2, 2)), ids=("a",))
