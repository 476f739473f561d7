"""Canonical forms, isomorphism testing, and the 36-point orbit census.

Two constructions of the 36-point design live on different point sets (the
6x6 grid vs the 36 order-20 Frobenius subgroups of Sym(6)); canonical
certificates identify them.  The census then shows the design is the only
one of its kind: among the 20250 8-subsets of the grid meeting four rows
and four columns in 2 points each, exactly five group orbits have size 90,
exactly two of those are 2-designs, and the two are isomorphic.
"""

from ftdesigns.autgrp import are_isomorphic, canonical_form, uniqueness_census_36
from ftdesigns.construct import construction_36, construction_36_cosets

grid = construction_36()
cosets = construction_36_cosets()
print("grid model blocks:  first =", grid.blocks[0])
print("coset model blocks: first =", cosets.blocks[0])

cf1, cf2 = canonical_form(grid), canonical_form(cosets)
print("equal canonical certificates:", cf1.certificate == cf2.certificate)

iso, witness = are_isomorphic(grid, cosets)
print("isomorphic:", iso)
print("witness relabeling (first 12 images):", witness.images[:12])

print("\nrunning the orbit census (well under a second)...")
report = uniqueness_census_36()
print("qualifying 8-subsets:", report.qualifying_subsets)
print("orbit sizes (size, count):", report.orbit_sizes)
print("orbits of size 90:", report.size90_orbits)
print("of which 2-designs:", report.design_orbits)
print("the two designs isomorphic:", report.isomorphic)
