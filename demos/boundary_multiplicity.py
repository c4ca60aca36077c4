"""
Boundary solutions with multiplicity on a quadrilateral fan
===========================================================

A system of two Laurent polynomials whose four solutions (counted with
multiplicity) all lie on the boundary of the compactification: two
double points, each with one vanishing homogeneous coordinate. Torus
methods see nothing here; the homogeneous eigenvalue approach recovers
both points, their multiplicities, and their vanishing patterns.
"""

from toricsolve import homogenize, improved_pair, solve, verify_pair

f1 = [((1, 0), 1.0), ((0, -1), -1.0), ((0, 1), 1.0), ((-1, 0), 1.0)]
f2 = [((1, 0), 2.0), ((0, -1), 1.0), ((0, 1), -1.0), ((-1, 0), -1.0)]
rays = [(1, 1), (-1, 1), (1, -1), (-1, -1)]

# inspect the degree pair before solving
system = homogenize([f1, f2], rays=rays)
pair = improved_pair(system)
coranks = verify_pair(system, pair)
print("pair:", pair)
print("coranks:", coranks, " total multiplicity:", coranks[0])

result = solve([f1, f2], rays=rays, seed=0)
print()
print("solutions (homogeneous coordinates, one per ray):")
for s in result.solutions:
    coords = ", ".join(f"{z:.6g}" for z in s.z)
    print(f"  z = ({coords})")
    print(f"      multiplicity {s.multiplicity}, "
          f"vanishing coordinates {sorted(s.zero_pattern)}, "
          f"residual {max(s.residuals):.1e}")

# each point is only defined up to the torus action on the coordinates;
# ratios balanced against the vanishing coordinate are the invariants
s0 = next(s for s in result.solutions if 0 in s.zero_pattern)
s2 = next(s for s in result.solutions if 2 in s.zero_pattern)
print()
print("orbit invariants:")
print("  z3^2 / z2^2 =", f"{s0.z[2] ** 2 / s0.z[1] ** 2:.6g}", "(exact: 1)")
print("  z1^2 / z4^2 =", f"{s2.z[0] ** 2 / s2.z[3] ** 2:.6g}", "(exact: -1)")
