"""Pair functionals, difference operators and empirical stabilization radii.

The double sum adds the pair score over ordered pairs; the sum-log-sum adds
log G(Z) over admissible points with positive compound score G.  Difference
operators measure the effect of inserting points, and the stabilization radius
is the smallest cube outside of which an insertion changes nothing.
"""
import collections

import numpy as np

from pairfunc import (
    MarkedPoint,
    Window,
    diff_first,
    diff_second,
    double_sum,
    empirical_stabilization_radius,
    get_model,
)
from pairfunc.experiment import stabilization_survey

inversion = get_model("inversion-uniform")
treelog = get_model("treelog-uniform")

window = Window(n=16.0, dim=2)
cfg = inversion.sample(window, seed=21)
print("configuration size:", len(cfg))
print("double sum (ordered inversions):", double_sum(cfg, inversion))

fv = treelog.evaluate(treelog.sample(window, seed=21))
mant, expo = fv.product_mantissa_exponent()
print(f"\nsum-log-sum: {fv.value:.3f} over {fv.admissible_count} admissible points "
      f"({fv.dropped_zero_g} dropped with G=0)")
print(f"tree realization number: {mant:.4f}e{expo:+d}")

# Difference operators recompute the model from scratch on augmented input.
f = inversion.functional()
x = MarkedPoint((8.0, 8.0), 0.9, 0)
y = MarkedPoint((8.1, 12.0), 0.5, 0)
print("\nD_x  of the inversion count:", diff_first(cfg, x, f))
print("D_xy of the inversion count:", diff_second(cfg, x, y, f))

# Fixed-radius crossings stabilize at radius 1; the tree model's radius has an
# exponentially decaying tail.
crossing = get_model("crossing-fixed")
w3 = Window(n=4.0, dim=3)
cfg3 = crossing.sample(w3, seed=5)
print("\ncrossing model stabilization radius:",
      empirical_stabilization_radius(cfg3, (2.0, 2.0, 2.0), crossing))

survey = stabilization_survey("inversion-tree", n=16.0, draws=300, seed=5)
print("tree model radii:", dict(collections.Counter(survey.radii)))
print(f"survival slope {survey.slope:.3f} (r^2 {survey.r_squared:.3f})")
