"""Windows, cubes and reproducible Poisson sampling.

Run with: python demos/01_windows_and_sampling.py
"""
import numpy as np

from pairfunc import Cube, MarkModel, Window, sample_ppp

# A growing rectangle: first side n, the others a_j * n^alpha_j.
window = Window(n=16.0, dim=3, coefficients=(1.0, 0.5), exponents=(1.0, 1.0))
print("sides:", window.sides)
print("volume:", window.volume)
print("shrunk window lower corner:", window.shrunk().lower)

# Unit-intensity Poisson sample with uniform marks; same seed, same points.
cfg = sample_ppp(window, intensity=1.0, marks=MarkModel.uniform01(), seed=7)
again = sample_ppp(window, intensity=1.0, marks=MarkModel.uniform01(), seed=7)
print("\npoints:", len(cfg), "| deterministic rerun identical:", cfg == again)

# Counting measure over a cube: its vectorized mask over the position column.
cube = Cube(tuple(s / 2 for s in window.sides), half_side=2.0)
print("points in the central cube: ", int(cube.mask(cfg.positions).sum()))

# Empirical check of the Poisson law on a fixed region.
region = Cube((8.0, 8.0, 4.0), 1.0)
counts = [int(region.mask(sample_ppp(window, 1.0, seed=(123, r)).positions).sum())
          for r in range(2000)]
print("\nmean count in a volume-8 cube over 2000 draws:", np.mean(counts))
