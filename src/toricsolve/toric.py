"""Complete fans, divisor classes, and sheaf cohomology dimension counts.

A Fan here is always the normal fan of a full-dimensional lattice
polytope (the Minkowski sum of the Newton polytopes of a system). Rays
are primitive inner facet normals; a maximal cone corresponds to a
vertex of the polytope and is stored as the tuple of indices of the
facets through that vertex.

The grading group of the total coordinate ring is the cokernel of the
transposed ray matrix, computed through the Smith normal form, so
torsion (quotient constructions such as fake weighted projective
spaces) is handled exactly.
"""

from __future__ import annotations

import math
from itertools import combinations, product

from .errors import InputError
from .lattice import (
    Polytope,
    det_int,
    dot,
    integer_kernel,
    primitive,
    rank_int,
    right_inverse,
    smith_normal_form,
    solve_int,
)

__all__ = [
    "Fan",
    "ClassGroup",
    "DivisorClass",
    "divisor_of_polytope",
    "nef_witness",
    "is_nef_cartier",
    "is_effective",
    "cohomology_dims",
    "projective_product_structure",
    "weighted_projective_weights",
    "boundary_stratum_check",
]


class Fan:
    """Normal fan of a full-dimensional lattice polytope.

    Attributes:
        rays: list of primitive integer inner normals (order is the
            variable order of the Cox ring).
        max_cones: sorted tuples of ray indices, one per polytope vertex.
        polytope: the source polytope.
        offsets: per-ray facet offsets a_j of the source polytope, so that
            ray_j . x + a_j >= 0 holds on it with equality on facet j.

    The fan owns the section polytope of every divisor representative
    asked for through DivisorClass.polytope, so each is built once, and
    computes its class group and product structure once on first use.
    """

    def __init__(self, rays, max_cones, polytope=None, offsets=None):
        self.rays = [tuple(int(x) for x in r) for r in rays]
        self.n = len(self.rays[0]) if self.rays else 0
        self.k = len(self.rays)
        self.max_cones = [tuple(sorted(c)) for c in max_cones]
        self.polytope = polytope
        self.offsets = list(offsets) if offsets is not None else None
        self._class_group = None
        self._ray_inverse = None
        self._product_structure = False  # not computed yet; None is a result
        self._sections = {}
        for r in self.rays:
            if r != primitive(r):
                raise InputError(f"fan ray {r} is not primitive")

    @classmethod
    def normal_fan(cls, polytope, rays=None):
        """Normal fan of a full-dimensional polytope.

        Args:
            polytope: full-dimensional Polytope with facet data.
            rays: optional explicit ray order. Must coincide with the set
                of primitive inner facet normals; used to pin down the
                variable order of the Cox ring.
        """
        if polytope.dim != polytope.n:
            raise InputError(
                f"normal fan needs a full-dimensional polytope "
                f"(dim {polytope.dim} in ambient {polytope.n}); "
                f"the system is deficient in some torus direction"
            )
        facets = polytope.ineqs
        computed = [g for g, _ in facets]
        offs = {g: c for g, c in facets}
        if rays is None:
            order = computed
        else:
            order = [tuple(int(x) for x in r) for r in rays]
            if set(order) != set(computed) or len(order) != len(computed):
                raise InputError(
                    "supplied rays do not match the facet normals of the "
                    f"Minkowski sum polytope; expected {sorted(computed)}"
                )
        cones = []
        for v in polytope.vertices:
            active = tuple(
                j for j, g in enumerate(order) if dot(g, v) + offs[g] == 0
            )
            cones.append(active)
        return cls(order, sorted(set(cones)), polytope, [offs[g] for g in order])

    @property
    def class_group(self):
        if self._class_group is None:
            self._class_group = ClassGroup(self.rays)
        return self._class_group

    @property
    def ray_inverse(self):
        """Rational right inverse of the n x k ray matrix, or None when the
        rays do not span."""
        if self._ray_inverse is None:
            self._ray_inverse = right_inverse([list(col) for col in zip(*self.rays)])
        return self._ray_inverse

    @property
    def product_structure(self):
        """projective_product_structure of this fan, computed once."""
        if self._product_structure is False:
            self._product_structure = projective_product_structure(self)
        return self._product_structure

    def divisor(self, a):
        return DivisorClass(self, a)

    def __repr__(self):
        return f"Fan(n={self.n}, rays={self.k}, max_cones={len(self.max_cones)})"


class ClassGroup:
    """The grading group Z^k / im(rays^T) of the Cox ring, via Smith form.

    degree() maps an integer divisor vector to a canonical image tuple
    (free part, torsion part); two vectors are linearly equivalent
    exactly when their images agree.
    """

    def __init__(self, rays):
        self.k = len(rays)
        self.n = len(rays[0]) if rays else 0
        a = [list(r) for r in rays]  # k x n, row i = ray i
        u, d, _ = smith_normal_form(a)
        self._u = u
        diag = [d[i][i] for i in range(min(self.k, self.n))]
        self.rank = sum(1 for x in diag if x != 0)
        self.free_rank = self.k - self.rank
        self._free_idx = [
            i for i in range(self.k) if i >= len(diag) or diag[i] == 0
        ]
        self._tors_idx = [i for i, x in enumerate(diag) if x > 1]
        self.torsion = [diag[i] for i in self._tors_idx]

    def degree(self, a):
        """Canonical image of a divisor vector in the class group."""
        if len(a) != self.k:
            raise InputError(f"divisor vector has length {len(a)}, expected {self.k}")
        w = [dot(row, a) for row in self._u]
        free = tuple(w[i] for i in self._free_idx)
        tors = tuple(w[i] % m for i, m in zip(self._tors_idx, self.torsion))
        return (free, tors)

    def __repr__(self):
        parts = [f"Z^{self.free_rank}"] + [f"Z/{m}" for m in self.torsion]
        return "ClassGroup(" + " + ".join(parts) + ")"


class DivisorClass:
    """A divisor class on a fan, stored as an explicit representative.

    Arithmetic acts on representatives; equality and hashing go through
    the canonical class group image, so different representatives of the
    same class compare equal.
    """

    __slots__ = ("fan", "a")

    def __init__(self, fan, a):
        if len(a) != fan.k:
            raise InputError(f"divisor vector has length {len(a)}, expected {fan.k}")
        self.fan = fan
        self.a = tuple(int(x) for x in a)

    def degree(self):
        return self.fan.class_group.degree(self.a)

    def polytope(self):
        """Section polytope {m : <u_j, m> + a_j >= 0 for all rays u_j}.

        Built on first request and kept by the fan for this
        representative.
        """
        sections = self.fan._sections
        if self.a not in sections:
            sections[self.a] = Polytope.from_inequalities(self.fan.rays, self.a)
        return sections[self.a]

    def __add__(self, other):
        self._check(other)
        return DivisorClass(self.fan, tuple(x + y for x, y in zip(self.a, other.a)))

    def __sub__(self, other):
        self._check(other)
        return DivisorClass(self.fan, tuple(x - y for x, y in zip(self.a, other.a)))

    def __rmul__(self, t):
        return DivisorClass(self.fan, tuple(int(t) * x for x in self.a))

    def __mul__(self, t):
        return self.__rmul__(t)

    def __neg__(self):
        return DivisorClass(self.fan, tuple(-x for x in self.a))

    def _check(self, other):
        if self.fan is not other.fan:
            raise InputError("divisor classes live on different fans")

    def __eq__(self, other):
        if not isinstance(other, DivisorClass) or self.fan is not other.fan:
            return NotImplemented
        return self.degree() == other.degree()

    def __hash__(self):
        return hash(self.degree())

    def __repr__(self):
        return f"DivisorClass(a={self.a}, degree={self.degree()})"


def divisor_of_polytope(fan, support):
    """Divisor class of a Newton polytope (or bare support set).

    Uses the tight representative a_j = -min over the support of
    <u_j, .>, the standard choice that makes the section polytope
    reproduce the input polytope.
    """
    pts = list(support.vertices) if isinstance(support, Polytope) else [tuple(p) for p in support]
    if not pts:
        raise InputError("empty support has no divisor class")
    a = tuple(-min(dot(u, p) for p in pts) for u in fan.rays)
    return DivisorClass(fan, a)


def nef_witness(div):
    """Cone-wise linear support data of a divisor, if it is nef Q-Cartier.

    For each maximal cone sigma the system <u_j, m> = -a_j over the rays
    of sigma must have a unique rational solution m_sigma, and every
    m_sigma has to lie in the section polytope. Returns the dict
    {cone: (d, numerators)}, m_sigma = numerators / d with d > 0, on
    success, None otherwise.
    """
    fan = div.fan
    witnesses = {}
    for cone in fan.max_cones:
        sol = solve_int([fan.rays[j] for j in cone], [-div.a[j] for j in cone])
        if sol is None:
            return None  # no solution, or the cone does not determine m
        d, num = sol
        if any(dot(u, num) + ai * d < 0 for u, ai in zip(fan.rays, div.a)):
            return None
        witnesses[cone] = sol
    return witnesses


def is_nef_cartier(div):
    """Nef and Cartier: nef Q-Cartier with integral cone-wise support points."""
    w = nef_witness(div)
    if w is None:
        return False
    return all(x % d == 0 for d, num in w.values() for x in num)


def is_effective(div):
    """Whether the class contains an effective divisor (a section exists)."""
    return len(div.polytope().lattice_point_array()) > 0


def projective_product_structure(fan):
    """Recognize a product of projective spaces.

    Looks for a partition of the rays into groups that each sum to zero,
    span a subspace of dimension (size - 1), and together split the
    lattice unimodularly, with the maximal cones being exactly the
    drop-one-ray-per-group selections. That data identifies the variety
    with P^{n_1} x ... x P^{n_g} (honest product, no finite quotient).

    Returns a list of (ray index tuple, n_j) per factor, or None.
    """
    k, n = fan.k, fan.n
    remaining = list(range(k))
    groups = []
    while remaining:
        first = remaining[0]
        found = None
        for size in range(2, len(remaining) + 1):
            for extra in combinations([r for r in remaining if r != first], size - 1):
                grp = (first,) + extra
                if all(sum(fan.rays[j][c] for j in grp) == 0 for c in range(n)):
                    if rank_int([fan.rays[j] for j in grp]) == size - 1:
                        found = grp
                        break
            if found:
                break
        if not found:
            return None
        groups.append(found)
        remaining = [r for r in remaining if r not in found]
    if sum(len(g) - 1 for g in groups) != n:
        return None
    # the chosen bases (all rays but the last of each group) must span Z^n
    basis = [fan.rays[j] for g in groups for j in g[:-1]]
    if abs(det_int(basis)) != 1:
        return None
    expected = set()
    for drop in product(*groups):
        dropped = set(drop)
        expected.add(tuple(j for j in range(k) if j not in dropped))
    if expected != set(fan.max_cones):
        return None
    return [(g, len(g) - 1) for g in groups]


def weighted_projective_weights(fan):
    """Weights (q_0, ..., q_n) if the fan is a weighted projective space.

    Requires exactly n+1 rays whose single primitive relation has all
    positive coefficients. Returns the weight tuple in ray order, or None.
    """
    if fan.k != fan.n + 1:
        return None
    rel = integer_kernel([[fan.rays[j][c] for j in range(fan.k)] for c in range(fan.n)])
    if len(rel) != 1:
        return None
    q = rel[0]
    if all(x < 0 for x in q):
        q = tuple(-x for x in q)
    if not all(x > 0 for x in q):
        return None
    # max cones of P(q) are all n-subsets
    expected = {tuple(c) for c in combinations(range(fan.k), fan.n)}
    if set(fan.max_cones) != expected:
        return None
    return q


def _proj_space_h(d, n):
    """Cohomology dimensions of O(d) on P^n: (h^0, 0, ..., 0, h^n)."""
    h = [0] * (n + 1)
    if d >= 0:
        h[0] = math.comb(d + n, n)
    if d <= -(n + 1):
        h[n] = math.comb(-d - 1, n)
    return h


def cohomology_dims(div):
    """All sheaf cohomology dimensions h^0..h^n of O(div), when decidable.

    Three routes, tried in order:
      * div nef Q-Cartier: h^0 counts lattice points of the section
        polytope, higher cohomology vanishes,
      * -div nef Q-Cartier: only h^n can survive and it counts interior
        lattice points of the section polytope of -div,
      * the fan is a product of projective spaces: Kunneth from the
        one-factor formulas.

    Returns (dims, reason): dims is a list of length n+1 or None when no
    route applies, and reason says which route fired or why none did.
    """
    fan = div.fan
    n = fan.n
    if nef_witness(div) is not None:
        dims = [0] * (n + 1)
        dims[0] = len(div.polytope().lattice_point_array())
        return dims, "nef"
    if nef_witness(-div) is not None:
        dims = [0] * (n + 1)
        dims[n] = len((-div).polytope().relint_lattice_points())
        return dims, "anti-nef"
    prod = fan.product_structure
    if prod is not None:
        factors = []
        for grp, nj in prod:
            dj = sum(div.a[j] for j in grp)
            factors.append(_proj_space_h(dj, nj))
        dims = [0] * (n + 1)
        # Kunneth: convolve the factor tables
        acc = [1]
        for table in factors:
            nxt = [0] * (len(acc) + len(table) - 1)
            for i, x in enumerate(acc):
                for j, y in enumerate(table):
                    nxt[i + j] += x * y
            acc = nxt
        for i in range(min(len(acc), n + 1)):
            dims[i] = acc[i]
        return dims, "product of projective spaces"
    return None, "class is neither nef nor anti-nef and the fan is not a recognized product"


def boundary_stratum_check(fan, ray_set):
    """Validate a declared set of vanishing coordinates against the fan.

    The rays in `ray_set` must span a face of the fan's source polytope:
    the vertices lying on all the corresponding facets must be nonempty,
    and the set of facets containing *all* of those vertices must give
    back exactly `ray_set` (otherwise the declared zeros force more
    zeros and the pattern is inconsistent).

    Returns (valid, simplicial) where simplicial reports whether the
    spanned cone is simplicial.
    """
    rs = sorted(set(ray_set))
    if fan.polytope is None or fan.offsets is None:
        raise InputError("fan carries no polytope data for stratum checks")
    verts = [
        v
        for v in fan.polytope.vertices
        if all(dot(fan.rays[j], v) + fan.offsets[j] == 0 for j in rs)
    ]
    if not verts:
        return False, False
    closure = [
        j
        for j in range(fan.k)
        if all(dot(fan.rays[j], v) + fan.offsets[j] == 0 for v in verts)
    ]
    if closure != rs:
        return False, False
    simplicial = rank_int([fan.rays[j] for j in rs]) == len(rs)
    return True, simplicial
