"""The layering map of a tropical line, rasterized on a grid.

theta(point) is the layer of the evaluated polynomial: 1 on the open
regions, 2 on the three rays (two monomials tie) and 3 at the vertex.
Lifting the coordinate layers scales the pattern.  The corner locus of
two lines in special position is a ray.
"""

from fractions import Fraction as F

import laytrop as lt

line = lt.parse_poly("x1 + x2 + 0:1")
print("f =", lt.format_poly(line))

for ell in (1, 2):
    print(f"\ntheta on a 5x5 grid with coordinate layers ({ell},{ell}):")
    rows = list(lt.grid_scan(line, [(-2, 2, 1), (-2, 2, 1)], [ell, ell], lt.NAT))
    by_point = {row.point: row for row in rows}
    for x2 in range(2, -3, -1):
        cells = []
        for x1 in range(-2, 3):
            row = by_point[(F(x1), F(x2))]
            cells.append(str(row.theta).rjust(2))
        print("   ", " ".join(cells))

# components: which monomial owns each region
print()
for point in [(2, 0), (0, 2), (-2, -2), (1, 1)]:
    p = tuple(lt.scalar(v, 1) for v in point)
    print(f"component at {point}:", lt.component_index(line, p, lt.NAT))

# the corner locus of two parallel-ish lines is the diagonal ray
print()
other = lt.parse_poly("x1 + x2 + -2:1")
locus = list(lt.corner_locus_on_grid([line, other], [(-2, 2, 1), (-2, 2, 1)], [1, 1], lt.NAT))
print("corner locus of {f, x1 + x2 + -2:1} on the grid:", locus)
print("(the ray x1 = x2 >= 0, a degenerate intersection of two tropical lines)")
