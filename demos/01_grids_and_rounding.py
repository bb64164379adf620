"""Quantization grids 101: block scaling, brackets, interpolation, accounting.

Every weight gets a finite menu of representable values. Rounding is
restricted to the two menu entries bracketing the weight, and a vector
x in [0,1]^n parameterizes where inside its bracket each weight sits.
"""

import numpy as np

from discq import (bits_per_param, bracket_of, build_block_scaling,
                   explicit_grid, interp_weights, rtn)
from discq.grid import grid_to_record

w = np.array([0.9, -0.3, 0.1, 0.6, 1.4, -2.2, 0.05, -0.6])
print("weights:", w)

grid = build_block_scaling(w, bits=3, groupsize=4)
print("\n3-bit block scaling, groups of 4")
print("  scales:", grid.scales)
print("  menu for coordinate 0:", grid.points_for(0))
print("  effective bits/parameter:", bits_per_param(grid))
print("  (3.25 needs groupsize 64: ",
      bits_per_param(build_block_scaling(np.ones(64), 3, 64)), ")", sep="")

br = bracket_of(w, grid)
print("\nbrackets (down <= w <= up):")
for j in range(len(w)):
    print(f"  w={w[j]:+.2f}  down={br.w_down[j]:+.2f}  up={br.w_up[j]:+.2f}")

print("\nround-to-nearest:", rtn(w, grid))

y = br.position()
print("interpolating at the weights' own position reproduces them:")
print("  max |w^y - w| =", np.max(np.abs(interp_weights(br, y) - w)))
print("  midpoint x=0.5 lands halfway:", interp_weights(br, np.full(len(w), 0.5)))

uni = explicit_grid(np.arange(-30, 31) * 0.1, n=len(w))
print("\nexplicit uniform grid, spacing 0.1:", rtn(w, uni))

print("\nserialized record keys:", sorted(grid_to_record(grid)))
