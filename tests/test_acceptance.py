"""Acceptance gate: one test per release criterion, one PASS line each.

Criterion 4's "all measures zero on identical inputs" cannot hold in full
generality for the temporal part: its definition sums over ALL index pairs
that share a cell, so a pattern revisiting a cell at two different slots
has a nonzero self-dissimilarity (the cross pairs contribute). The same
criterion pins the definition via a brute-force oracle, which this suite
checks on every pair, self-comparisons included. The self-zero assertion
is therefore scoped to patterns without such revisits; everything else is
asserted unconditionally. See the companion notes for the full analysis.
"""

import random
import time

import numpy as np

from mobisim import baselines, measures
from mobisim.casestudy import SA, SB
from mobisim.cli import main
from mobisim.clustering import DissimilarityMatrix, build_matrix, kmedoids
from mobisim.graph import example_graph, hex_grid, save_graph
from mobisim.measures import Weights
from mobisim.patterns import load_trace, make_pattern
from support import (
    brute_cvti,
    brute_d_space,
    brute_d_time,
    brute_lcss,
    brute_uncommon,
    exact_tiakas_net,
    exact_tiakas_time,
    exact_tiakas_total,
    has_repeat_at_distinct_slots,
    random_connected_graph,
    random_pattern,
)


def _ok(line: str) -> None:
    print(f"PASS: {line}")


def test_criterion_1_case_study_golden_values():
    g = example_graph()
    # warm the diameter, so timing covers the measures only
    g.diameter()

    def compute():
        return (
            baselines.tiakas_net(SA, SB, g),
            baselines.tiakas_time(SA, SB),
            baselines.tiakas_total(SA, SB, g),
            baselines.oss_components(SA, SB),
            baselines.oss(SA, SB),
            measures.uncommon_cell_count(SA, SB),
            measures.spatial_dissimilarity(SA, SB),
            measures.temporal_dissimilarity(SA, SB),
            measures.weighted_dissimilarity(SA, SB),
        )

    compute()
    elapsed = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        compute()
        elapsed = min(elapsed, time.perf_counter() - start)

    t_net, t_time, t_total, (oss_f, oss_g), oss_v, unc, d_s, d_t, d_c = compute()
    assert t_net == 0.2
    assert abs(t_time - 1 / 3) <= 1e-12
    assert abs(t_time - 0.333) <= 5e-4
    assert abs(t_total - (0.1 + 1 / 6)) <= 1e-12
    assert abs(t_total - 0.267) <= 5e-4
    assert oss_g == 4
    assert abs(oss_f - 0.4) <= 1e-12
    assert abs(oss_v - 0.44) <= 1e-12
    assert unc == 4
    assert abs(d_s - 0.4) <= 1e-12
    assert d_t == 0.0
    assert abs(d_c - 0.2) <= 1e-12
    assert elapsed < 1e-3, f"measures took {elapsed * 1e3:.3f} ms"
    _ok("criterion 1 - case-study golden values, all tolerances, < 1 ms")


def test_criterion_2_ordering_contrast():
    s1 = make_pattern([(1, 1), (0, 3), (5, 4), (6, 6), (7, 9)])
    s2 = make_pattern([(0, 3), (5, 4), (7, 9)])
    f, _ = baselines.oss_components(s1, s2)
    assert abs(f - 0.8) <= 1e-12
    assert measures.temporal_dissimilarity(s1, s2) == 0.0
    assert f > 0
    _ok("criterion 2 - OSS f-component 0.8 while temporal part is 0")


def test_criterion_3_example_graph_constraints():
    g = example_graph()
    assert g.diameter() == 4
    listed = [(0, 1), (0, 2), (1, 0), (1, 2), (1, 9), (2, 0), (2, 1), (2, 3),
              (2, 8), (2, 9), (11, 6), (11, 7), (11, 10)]
    for a, b in listed:
        assert g.has_edge(a, b)
        assert g.has_edge(b, a)
    assert g.hop_distance(7, 4) == 1
    assert g.hop_distance(0, 1) == 1
    assert g.hop_distance(0, 2) == 1
    assert g.hop_distance(2, 3) == 1
    _ok("criterion 3 - example graph: diameter 4, listed edges, unit hops")


def test_criterion_4_property_suite_10000_pairs():
    rng = random.Random(20240)
    pairs = 0
    lcss_checked = 0
    while pairs < 10_000:
        graph = random_connected_graph(rng, 6, 30)
        n = graph.vertex_count
        tiakas_pairs = []
        for _ in range(50):
            a = random_pattern(rng, n, 1, 12)
            b = random_pattern(rng, n, 1, 12)

            d_s = measures.spatial_dissimilarity(a, b)
            d_t = measures.temporal_dissimilarity(a, b)
            d_c = measures.weighted_dissimilarity(a, b)
            oss_v = baselines.oss(a, b)
            for v in (d_s, d_t, d_c, oss_v):
                assert 0.0 <= v <= 1.0

            assert d_s == measures.spatial_dissimilarity(b, a)
            assert d_t == measures.temporal_dissimilarity(b, a)
            assert d_c == measures.weighted_dissimilarity(b, a)
            assert oss_v == baselines.oss(b, a)
            assert baselines.lcss(a, b) == baselines.lcss(b, a)
            assert baselines.cvti(a, b) == baselines.cvti(b, a)

            assert measures.spatial_dissimilarity(a, a) == 0.0
            assert baselines.oss(a, a) == 0.0
            if not has_repeat_at_distinct_slots(a):
                assert measures.temporal_dissimilarity(a, a) == 0.0
                assert measures.weighted_dissimilarity(a, a) == 0.0

            assert measures.uncommon_cell_count(a, b) == brute_uncommon(a, b)
            assert abs(d_s - brute_d_space(a, b)) <= 1e-12
            assert abs(d_t - brute_d_time(a, b)) <= 1e-12
            assert abs(
                measures.temporal_dissimilarity(a, a) - brute_d_time(a, a)
            ) <= 1e-12
            assert baselines.cvti(a, b) == brute_cvti(a, b)
            if len(a) <= 7 and len(b) <= 7:
                assert baselines.lcss(a, b) == brute_lcss(a, b)
                lcss_checked += 1

            # tiakas family needs equal lengths; checked per graph below
            length = rng.randint(2, 12)
            c = random_pattern(rng, n, length, length)
            d = random_pattern(rng, n, length, length)
            tiakas_pairs.append((c, d))

            # d_space blind to timestamps; d_time blind to unshared cells
            new_slots = sorted(rng.randint(1, 11) for _ in range(len(a)))
            a_reslotted = make_pattern(list(zip(a.cells, new_slots)))
            assert measures.spatial_dissimilarity(a_reslotted, b) == d_s

            shared = set(a.cells) & set(b.cells)
            moved = [
                (c, t if c in shared else rng.randint(1, 11))
                for c, t in zip(a.cells, a.slots)
            ]
            moved.sort(key=lambda cs: cs[1])
            assert measures.temporal_dissimilarity(make_pattern(moved), b) == d_t

            pairs += 1
        check_tiakas_pairs(graph, tiakas_pairs)

    assert pairs == 10_000
    assert lcss_checked > 1000
    _ok(
        "criterion 4 - 10000 random pairs: bounds, symmetry, scoped "
        "self-zero, oracle equivalence, invariances"
    )


def check_tiakas_pairs(graph, pairs):
    """Each tiakas measure on each pair (c, d), read from one matrix per
    measure over all pairs of a length: in [0, 1], exactly symmetric, zero
    on (c, c) and equal to the exact oracle."""
    by_length = {}
    for c, d in pairs:
        by_length.setdefault(len(c), []).extend((c, d))
    hops = {}
    for name, oracle in (
        ("tiakas-net", lambda c, d: exact_tiakas_net(c, d, graph, hops)),
        ("tiakas-time", exact_tiakas_time),
        ("tiakas-total", lambda c, d: exact_tiakas_total(c, d, graph, None, hops)),
    ):
        for pats in by_length.values():
            m = build_matrix(pats, name, graph=graph).values
            for i in range(0, len(pats), 2):
                v = m[i, i + 1]
                assert 0.0 <= v <= 1.0
                assert v == m[i + 1, i]
                assert m[i, i] == 0.0
                assert v == oracle(pats[i], pats[i + 1])


def test_criterion_5_clustering_properties():
    rng = random.Random(50)

    # cost trace never increases; swap-optimal at rest; k = n is free
    for trial in range(25):
        n = rng.randint(4, 8)
        k = rng.randint(1, 3)
        values = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                values[i, j] = values[j, i] = rng.uniform(0.05, 1.0)
        m = DissimilarityMatrix(values)

        result = kmedoids(m, k, seed=trial)
        hist = result.cost_history
        assert all(x > y for x, y in zip(hist, hist[1:]))
        assert kmedoids(m, k, seed=trial) == result
        assert kmedoids(m, n, seed=trial).total_cost == 0.0

        def cost_of(medoids):
            return sum(
                min(values[i, c] for c in medoids)
                for i in range(n)
                if i not in medoids
            )

        base = cost_of(result.medoids)
        for med in result.medoids:
            for cand in range(n):
                if cand not in result.medoids:
                    swap = [c for c in result.medoids if c != med] + [cand]
                    assert cost_of(swap) >= base - 1e-12

    # planted two-group recovery: walks confined to disjoint grid halves
    grid = hex_grid(2, 8)
    left = {r * 8 + c for r in range(2) for c in range(4)}
    right = set(range(16)) - left

    def confined_walk(trial_rng, region):
        length = trial_rng.randint(8, 12)
        slots = sorted(trial_rng.randint(1, 11) for _ in range(length))
        cell = trial_rng.choice(sorted(region))
        pairs = [(cell, slots[0])]
        for t in slots[1:]:
            options = [cell] + [v for v in grid.neighbors(cell) if v in region]
            cell = trial_rng.choice(options)
            pairs.append((cell, t))
        return make_pattern(pairs)

    recovered = 0
    for trial in range(100):
        trial_rng = random.Random(1000 + trial)
        pats = [confined_walk(trial_rng, left) for _ in range(8)]
        pats += [confined_walk(trial_rng, right) for _ in range(8)]
        m = build_matrix(pats, "composite", weights=Weights(0.5, 0.5))
        result = kmedoids(m, 2, seed=trial)
        groups: dict[int, set[int]] = {}
        for i, med in enumerate(result.assignment):
            groups.setdefault(med, set()).add(i)
        if sorted(groups.values(), key=min) == [set(range(8)), set(range(8, 16))]:
            recovered += 1
    assert recovered >= 95, f"recovered {recovered}/100"
    _ok(
        f"criterion 5 - clustering: monotone cost, swap-optimal, k=n free, "
        f"deterministic, planted groups recovered {recovered}/100"
    )


def test_criterion_6_cli_contract(capsys, tmp_path):
    code = main(["casestudy"])
    out = capsys.readouterr().out
    assert code == 0
    for needle in (
        "D_net = 0.200",
        "D_time(tiakas) = 0.333",
        "D_total(tiakas) = 0.267",
        "g = 4",
        "f = 0.400",
        "d_OSS = 0.440",
        "f(Sa,Sb) = 4",
        "D_space = 0.400",
        "D_time(proposed) = 0.000",
        "D_total(proposed) = 0.200",
    ):
        assert needle in out

    graph_path = tmp_path / "g.txt"
    save_graph(example_graph(), str(graph_path))

    trace_a = tmp_path / "a.csv"
    trace_b = tmp_path / "b.csv"
    for target in (trace_a, trace_b):
        code = main([
            "gen", "--graph", str(graph_path), "--count", "10",
            "--min-len", "2", "--max-len", "8", "--seed", "77",
            "--out", str(target),
        ])
        capsys.readouterr()
        assert code == 0
    assert trace_a.read_bytes() == trace_b.read_bytes()

    matrix_path = tmp_path / "m.csv"
    code = main([
        "matrix", "--trace", str(trace_a), "--out", str(matrix_path),
    ])
    capsys.readouterr()
    assert code == 0

    patterns = load_trace(str(trace_a))
    lines = matrix_path.read_text().strip().splitlines()
    ids = lines[0].split(",")[1:]
    assert ids == list(patterns)
    for row in lines[1:]:
        fields = row.split(",")
        pid = fields[0]
        for other, text in zip(ids, fields[1:]):
            direct = measures.weighted_dissimilarity(patterns[pid], patterns[other])
            assert abs(float(text) - direct) <= 1e-6
    _ok(
        "criterion 6 - CLI: case-study report values, same-seed generation "
        "byte-identical, matrix round trip within 1e-6"
    )
