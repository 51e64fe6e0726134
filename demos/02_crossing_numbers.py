"""Projected crossing numbers of random geometric graphs.

Edges form under one of four connection kernels; the crossing number counts
unordered pairs of non-adjacent edges whose projections onto the first two
coordinates properly cross.  The optimized counter and the brute-force double
loop must agree exactly.
"""
from pairfunc import (
    DirectedRandom,
    FixedRadius,
    Localized,
    MarkModel,
    MaxKernel,
    Window,
    build_edges,
    crossing_number,
    crossing_number_direct,
    sample_ppp,
)
from pairfunc.fixtures import SNOWFLAKE_KERNEL, snowflake_configuration

window = Window(n=5.0, dim=3)

print("kernel comparison on one Poisson sample (d=3, unit intensity):")
cfg = sample_ppp(window, 1.0, MarkModel.uniform_radius(0.0, 1.2), seed=11)
for kernel in (FixedRadius(), DirectedRandom(), MaxKernel(), Localized(cap=4)):
    g = build_edges(cfg, kernel)
    fast = crossing_number(g)
    slow = crossing_number_direct(g)
    name = type(kernel).__name__
    print(f"  {name:<14} edges={len(g.edges):<4} crossings={fast} (direct: {slow})")

# The ordered pair score carries a 1/8 weight that collapses onto the integer
# count once summed over ordered point pairs: each unordered pair of ids in
# pair_scores counts at both of its orders.
g = build_edges(cfg, FixedRadius())
ordered = 2 * sum(g.pair_scores.values()) / 8
print("\nordered 1/8-weighted sum:", ordered, "| integer count:", crossing_number(g))

# Six overlapping snowflake stars: three arm pairs overlap, crossing number 3.
snow = build_edges(snowflake_configuration(), SNOWFLAKE_KERNEL)
print("\nsnowflake layout crossing number:", crossing_number(snow))
