"""Merge forests, the Elder rule, and barcode inversion counts.

Each point links to the earliest later point inside a unit spatial cylinder.
Where branches merge, the oldest leaf survives; the others die and fix their
bar lifetimes.  Bars with lifetimes in (0, 1) are compared for inversions.
"""
import math

import numpy as np

from pairfunc import (
    MarkModel,
    Window,
    build_merge_forest,
    elder_lifetimes,
    inversion_count,
    sample_ppp,
    uniform_lifetimes,
)
from pairfunc.fixtures import poisson_tree_figure_configuration

# The reference layout: leaves born at times 0, 2 and 1; merges at times 4 and
# 8; the Elder rule gives branch lifetimes 2, 7 and +inf.
cfg = poisson_tree_figure_configuration()
forest = build_merge_forest(cfg)
# The forest is indexed by configuration row; cfg.ids turns rows into point ids.
print("leaf ids:", cfg.ids[forest.leaves].tolist(),
      "merge point ids:", cfg.ids[forest.merge_points].tolist())
barcode = elder_lifetimes(forest)
print("leaf branch lifetimes:", barcode.lifetimes[forest.leaves].tolist())

# Lifetime models: i.i.d. uniform marks versus tree branch lengths.
window = Window(n=24.0, dim=2)
uniform_cfg = sample_ppp(window, 1.0, MarkModel.uniform01(), seed=3)
tree_cfg = sample_ppp(window, 1.0, seed=3)
bc_uniform = uniform_lifetimes(uniform_cfg)
bc_tree = elder_lifetimes(build_merge_forest(tree_cfg))

finite = [b.lifetime for b in bc_tree.bars if 0 < b.lifetime < math.inf]
print(f"tree model: {len(bc_tree)} bars, {len(finite)} finite positive lifetimes,")
print(f"            mean finite lifetime {np.mean(finite):.3f}")

# Inversion counts (ordered convention: every unordered inversion counts twice).
print("\ninversions, uniform lifetimes:", inversion_count(bc_uniform))
print("inversions, tree lifetimes:   ", inversion_count(bc_tree))
