"""Shield configurations: boxes whose padded boundary absorbs insertions.

A side-8 box is a shield when its outer half-unit time slabs are covered by
radius-1/4 balls around pad points, the pads satisfy the 1/2 successor and
earliest-child gap bounds away from the exempt top strip, and the rest of the
annulus is void.  Inserting anything into the central side-4 cube of a shield
box leaves every pair score between outside points unchanged.
"""
from pairfunc import Window, shield_membership, shield_property_check
from pairfunc.barcodes import outside_pair_scores
from pairfunc.fixtures import sample_shielded_configuration
from pairfunc.process import derive_rng

window = Window(n=24.0, dim=2)
center = (12.0, 12.0)

cfg = sample_shielded_configuration(window, center, seed=40)
print("points in total:", len(cfg))
print("shield membership:", shield_membership(cfg, center))

ids, pairs = outside_pair_scores(cfg, center)
print("outside points:", len(ids), "| outside inversions:", len(pairs))

rng = derive_rng(40, 99)
all_clean = True
for k in range(10):
    x = tuple(rng.uniform(10.0, 14.0, 2))
    ok = shield_property_check(cfg, center, x)
    all_clean = all_clean and ok
print("10 random inner-cube insertions, outside scores unchanged:", all_clean)

print("\n(the checker itself recomputes both merge forests exactly;")
print(" see tests/test_barcodes.py for a configuration where it reports a change)")
