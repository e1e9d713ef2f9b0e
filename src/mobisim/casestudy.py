"""Worked example: every measure evaluated on one fixed pattern pair.

Two five-point patterns over the bundled 12-cell graph exercise the
network/time baseline, the ordering-based baseline, and the weighted
spatial-temporal measure side by side. The report prints each quantity
rounded to three decimals; callers wanting full precision use values().
"""

from __future__ import annotations

from . import baselines, measures
from .graph import example_graph
from .patterns import MobilityPattern, make_pattern

SA: MobilityPattern = make_pattern([(1, 1), (0, 3), (2, 4), (8, 6), (7, 9)])
SB: MobilityPattern = make_pattern([(0, 3), (2, 4), (3, 5), (8, 6), (4, 8)])


def values() -> dict[str, float | int]:
    """All case-study quantities at full precision."""
    g = example_graph()
    oss_f, oss_g = baselines.oss_components(SA, SB)
    return {
        "diameter": g.diameter(),
        "tiakas_net": baselines.tiakas_net(SA, SB, g),
        "tiakas_time": baselines.tiakas_time(SA, SB),
        "tiakas_total": baselines.tiakas_total(SA, SB, g),
        "oss_g": oss_g,
        "oss_f": oss_f,
        "oss": baselines.oss(SA, SB),
        "uncommon": measures.uncommon_cell_count(SA, SB),
        "d_space": measures.spatial_dissimilarity(SA, SB),
        "d_time": measures.temporal_dissimilarity(SA, SB),
        "d_composite": measures.weighted_dissimilarity(SA, SB),
    }


def report() -> str:
    v = values()
    lines = [
        f"example graph: 12 cells, diameter D_G = {v['diameter']}",
        f"Sa = {SA}",
        f"Sb = {SB}",
        "",
        "network/time baseline (equal-length trajectories):",
        f"  D_net = {v['tiakas_net']:.3f}",
        f"  D_time(tiakas) = {v['tiakas_time']:.3f}",
        f"  D_total(tiakas) = {v['tiakas_total']:.3f}",
        "",
        "ordering-based baseline:",
        f"  g = {v['oss_g']}",
        f"  f = {v['oss_f']:.3f}",
        f"  d_OSS = {v['oss']:.3f}",
        "",
        "weighted spatial-temporal measure (w_space = w_time = 0.5):",
        f"  uncommon cells f(Sa,Sb) = {v['uncommon']}",
        f"  D_space = {v['d_space']:.3f}",
        f"  D_time(proposed) = {v['d_time']:.3f}",
        f"  D_total(proposed) = {v['d_composite']:.3f}",
    ]
    return "\n".join(lines)
