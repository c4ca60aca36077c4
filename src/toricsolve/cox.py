"""Graded pieces of the Cox ring and Laurent -> homogeneous transfer.

The Cox ring of a complete toric variety has one variable per ray of its
fan and is graded by the class group.  For a divisor representative
a in Z^k the graded piece S_alpha has the monomial basis

    { x^(F^T m + a)  :  m a lattice point of P_a },

where F has the primitive rays as columns and P_a = {m : F^T m + a >= 0}
is the section polytope.  Everything in this module is exact lattice
point bookkeeping on top of that identification; floating point enters
only through coefficient vectors.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import InputError
from .lattice import Polytope, all_int, int_vector
from .toric import DivisorClass, Fan, divisor_of_polytope

__all__ = [
    "GradedBasis",
    "CoxPolynomial",
    "HomogeneousSystem",
    "graded_basis",
    "homogenize",
]


class GradedBasis:
    """Monomial basis of one graded piece of the Cox ring.

    One row per lattice point m of the section polytope, in lex order (the
    row/column order used everywhere). x^b in S_alpha times x^c in S_beta is
    the monomial of S_(alpha+beta) at m_b + m_c: `rows` is the one lookup.
    The fan keeps one basis per representative (graded_basis), shared by
    every later solve on it, so the arrays are read-only.

    Attributes:
        degree: the DivisorClass (with its chosen representative a).
        points: (N x n) int64 array of the lattice points m.
        exponents: (N x k) int64 array of the Cox exponents F^T m + a.
        lattice_points: the points as a list of tuples.
        monomials: the exponents as a list of tuples.

    The basis also keeps the index arrays of the power table that
    evaluation gathers from (_power_index).
    """

    __slots__ = ("degree", "points", "exponents", "lattice_points",
                 "monomials", "_lo", "_radix", "_keys", "_powers", "_coords")

    def __init__(self, degree):
        fan = degree.fan
        self.degree = degree
        self.points = pts = degree.polytope().lattice_point_array()
        self.exponents = np.zeros((0, fan.k), dtype=np.int64)
        self._lo = self._radix = np.zeros(fan.n, dtype=np.int64)
        if len(pts):
            self.exponents = pts @ np.array(fan.rays, dtype=np.int64).T + degree.a
            # mixed-radix key over the box of the points, first coordinate
            # most significant, so the keys of lex-sorted points ascend
            self._lo = pts.min(axis=0)
            size = (pts.max(axis=0) - self._lo + 1).tolist()
            self._radix = np.array([math.prod(size[j + 1:]) for j in range(fan.n)])
        self._keys = (pts - self._lo) @ self._radix
        self._powers, self._coords = _power_index(self.exponents)
        for arr in (self.exponents, self._lo, self._radix, self._keys,
                    self._powers, self._coords):
            arr.flags.writeable = False
        self.lattice_points = list(map(tuple, pts.tolist()))
        self.monomials = list(map(tuple, self.exponents.tolist()))

    def rows(self, points):
        """Row index of every lattice point in `points` (an int array whose
        last axis has length n), -1 where the point is not in the basis."""
        pts = np.asarray(points, dtype=np.int64)
        if not len(self):
            return np.full(pts.shape[:-1], -1)
        at = np.searchsorted(self._keys, (pts - self._lo) @ self._radix)
        at = np.minimum(at, len(self) - 1)
        # a point outside the box may share a key; only equality counts
        return np.where((self.points[at] == pts).all(axis=-1), at, -1)

    def position(self, exponent):
        """Index of a monomial given by its exponent tuple, or None."""
        exponent = tuple(exponent)
        if len(exponent) != self.exponents.shape[1]:
            return None
        hit = np.flatnonzero((self.exponents == exponent).all(axis=1))
        return int(hit[0]) if len(hit) else None

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"GradedBasis(degree={self.degree!r}, size={len(self)})"


def _power_index(exponents):
    """The powers 0..max of the power table that evaluation raises each
    coordinate to, and the coordinate index that gathers x_j^b_j from it."""
    return np.arange(exponents.max(initial=0) + 1), np.arange(exponents.shape[1])


def as_divisor(fan, alpha):
    """alpha as a DivisorClass on fan: a representative vector becomes
    one, and a class on another fan raises InputError."""
    if not isinstance(alpha, DivisorClass):
        return fan.divisor(alpha)
    if alpha.fan is not fan:
        raise InputError("divisor class belongs to a different fan")
    return alpha


def graded_basis(fan, alpha):
    """Monomial basis of S_alpha for a divisor class or representative.

    Args:
        fan: the Fan.
        alpha: DivisorClass on that fan, or an integer representative
            vector of length fan.k.

    Returns:
        GradedBasis, built on first request and kept by the fan for this
        representative, so a repeat call returns the same object. An
        empty basis is a valid result (the degree has no sections at
        this representative).
    """
    alpha = as_divisor(fan, alpha)
    return fan.kept(("basis", alpha.a), GradedBasis, alpha)


class CoxPolynomial:
    """Homogeneous polynomial stored as a dense vector over a GradedBasis."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (len(basis),):
            raise InputError(
                f"coefficient vector has length {coeffs.shape}, "
                f"basis has {len(basis)} monomials"
            )
        if not np.isfinite(coeffs).all():
            raise InputError("coefficients must be finite (found NaN or inf)")
        self.basis = basis
        self.coeffs = coeffs

    @classmethod
    def from_terms(cls, basis, terms):
        """Build from {exponent tuple: coefficient} or an iterable of pairs."""
        coeffs = np.zeros(len(basis), dtype=complex)
        items = terms.items() if isinstance(terms, dict) else terms
        for exp, c in items:
            pos = basis.position(exp)
            if pos is None:
                raise InputError(f"monomial exponent {tuple(exp)} is not in the basis")
            coeffs[pos] += c
        return cls(basis, coeffs)

    @property
    def degree(self):
        return self.basis.degree

    def terms(self):
        """Nonzero (exponent tuple, coefficient) pairs in basis order."""
        return [
            (b, complex(c))
            for b, c in zip(self.basis.monomials, self.coeffs)
            if c != 0
        ]

    def evaluate(self, z):
        """Evaluate at a point of C^k.

        Returns:
            (value, scale) with scale = sum |c_b| |z|^b, the natural
            normalizer for relative residuals. 0^0 counts as 1.
        """
        z = np.asarray(z, dtype=complex)
        k = self.basis.exponents.shape[1]
        if z.shape != (k,):
            raise InputError(f"point has shape {z.shape}, expected ({k},)")
        value, scale = self._evaluate(z)
        return complex(value), float(scale)

    def _evaluate(self, z):
        """evaluate's (value, scale) over the leading axes of z (..., k)."""
        basis = self.basis
        # one power table per coordinate, gathered per monomial; the ufunc
        # reductions are what np.prod and np.sum call
        powers = z[..., None] ** basis._powers
        monvals = np.multiply.reduce(powers[..., basis._coords, basis.exponents], axis=-1)
        return (np.add.reduce(self.coeffs * monvals, axis=-1),
                np.add.reduce(np.abs(self.coeffs) * np.abs(monvals), axis=-1))

    def __repr__(self):
        parts = []
        for b, c in self.terms()[:6]:
            mon = "*".join(f"x{j + 1}^{e}" if e > 1 else f"x{j + 1}"
                           for j, e in enumerate(b) if e) or "1"
            parts.append(f"({c:.3g})*{mon}")
        tail = " + ..." if len(self.terms()) > 6 else ""
        return " + ".join(parts) + tail if parts else "0"


class HomogeneousSystem:
    """A Laurent system homogenized to the Cox ring of its Minkowski fan.

    Attributes:
        fan: the Fan (normal fan of the Minkowski sum of Newton polytopes
            unless an explicit ray order was supplied).
        polys: CoxPolynomial per equation.
        degrees: DivisorClass per equation (tight representatives).
    """

    __slots__ = ("fan", "polys", "degrees")

    def __init__(self, fan, polys, degrees):
        self.fan = fan
        self.polys = list(polys)
        self.degrees = list(degrees)

    @property
    def n(self):
        return self.fan.n

    @property
    def k(self):
        return self.fan.k

    def __len__(self):
        return len(self.polys)

    def residuals(self, z):
        """Relative residual |f_i(z)| / sum |c| |z^b| per equation.

        z is one point of C^k, giving one residual per equation, or a
        sequence of points, giving one row per point from one array
        pass. A vanishing scale counts as residual 0 with a vanishing
        value and as inf otherwise.
        """
        z = np.asarray(z, dtype=complex)
        if z.ndim not in (1, 2) or z.shape[-1] != self.k:
            raise InputError(f"points have shape {z.shape}, expected (..., {self.k})")
        value = np.empty(z.shape[:-1] + (len(self.polys),), dtype=complex)
        scale = np.empty(value.shape)
        for i, f in enumerate(self.polys):
            value[..., i], scale[..., i] = f._evaluate(z)
        mag = np.abs(value)
        flat = scale == 0.0
        return np.where(flat, np.where(mag == 0.0, 0.0, np.inf),
                        mag / np.where(flat, 1.0, scale))

    def __repr__(self):
        degs = [d.degree() for d in self.degrees]
        return f"HomogeneousSystem({len(self.polys)} equations, degrees={degs})"


# coefficient types that need no numbers.Number check, an ABC lookup
_NUMBER_TYPES = (complex, float, int)


def _merge_terms(i, terms):
    def bad(what):
        return InputError(f"equation {i}, term {term!r}: {what}")

    acc = {}
    for term in terms:
        try:
            exp, c = term
        except (TypeError, ValueError):
            raise bad("expected an (exponent tuple, coefficient) pair") from None
        key = exp if type(exp) is tuple else tuple(exp) if np.iterable(exp) else ()
        if not key or not all_int(key):
            raise bad("the exponent must be a nonempty tuple of integers "
                      "(not bools or floats)")
        if type(c) not in _NUMBER_TYPES and (
                isinstance(c, bool) or not isinstance(c, numbers.Number)):
            raise bad("the coefficient must be a number")
        key = tuple(map(int, key))
        acc[key] = acc.get(key, 0j) + complex(c)
    return {e: c for e, c in acc.items() if c != 0}


# number of (supports, rays) keys whose fan, degrees, bases and exponent
# rows homogenize keeps; inserting one more drops the oldest, and with its
# fan everything the fan keeps
SUPPORTS_MAX = 8
_supports = {}


def ray_list(rays):
    """`rays` as a list of integer tuples; InputError unless it is a
    sequence of integer vectors."""
    if not np.iterable(rays):
        raise InputError(f"rays must be a list of integer vectors, got {rays!r}")
    return [int_vector(r, f"ray {j}") for j, r in enumerate(rays)]


def _build(merged, exponents, rays):
    """Fan of the Minkowski sum and, per equation, (tight degree, basis,
    row of each exponent in `exponents`)."""
    newtons = [Polytope.from_points(list(terms)) for terms in merged]
    total = newtons[0]
    for q in newtons[1:]:
        total = total.minkowski(q)
    fan = Fan.normal_fan(total, rays=rays)
    pieces = []
    for terms, exps in zip(merged, exponents):
        div = divisor_of_polytope(fan, list(terms))
        basis = graded_basis(fan, div)
        # the tight representative makes P_a the Newton polytope, so each
        # exponent m is its own lattice point
        pos = basis.rows(list(exps))
        if (pos < 0).any():  # cannot happen: Newton points lie in P_a
            raise InputError("a support point escaped its section polytope")
        pieces.append((div, basis, pos))
    return fan, pieces


def homogenize(equations, rays=None):
    """Homogenize a Laurent system into the Cox ring of its Minkowski fan.

    Everything but the coefficients depends on the supports alone: the
    fan, the tight degrees, the graded bases and the row of every
    exponent in its basis are kept for the last SUPPORTS_MAX distinct
    (supports, rays) arguments, so a repeat call with new coefficients
    only scatters them into the kept rows.

    Args:
        equations: list of equations; each equation is an iterable of
            (exponent tuple, coefficient) Laurent terms. Repeated
            exponents are summed, exact-zero coefficients dropped.
        rays: optional explicit ray order for the fan (must equal the set
            of facet normals of the Minkowski sum polytope).

    Returns:
        HomogeneousSystem with tight degree representatives, so each
        section polytope reproduces the corresponding Newton polytope.

    Raises:
        InputError: empty input, a term that is not an (exponent,
            coefficient) pair, an exponent that is not a nonempty tuple of
            integers, a coefficient that is not a number, a ray entry
            that is not an integer, inconsistent dimensions, or a
            Minkowski sum that is not full-dimensional (the torus
            direction in the deficient subspace would never compactify).
    """
    if not equations:
        raise InputError("no equations supplied")
    if rays is not None:
        rays = ray_list(rays)
    merged = [_merge_terms(i, eq) for i, eq in enumerate(equations)]
    for i, terms in enumerate(merged):
        if not terms:
            raise InputError(f"equation {i} has empty support")
    n = len(next(iter(merged[0])))
    for i, terms in enumerate(merged):
        if set(map(len, terms)) != {n}:
            raise InputError(f"equation {i} mixes exponent lengths")

    key = (tuple([tuple(sorted(terms)) for terms in merged]),
           None if rays is None else tuple(rays))
    fan, pieces = entry = _supports.get(key) or _build(merged, key[0], rays)

    polys = []
    for terms, exps, (_div, basis, pos) in zip(merged, key[0], pieces):
        coeffs = np.zeros(len(basis), dtype=complex)
        coeffs[pos] = [terms[e] for e in exps]
        polys.append(CoxPolynomial(basis, coeffs))
    if key not in _supports:
        if len(_supports) >= SUPPORTS_MAX:
            del _supports[next(iter(_supports))]
        _supports[key] = entry
    return HomogeneousSystem(fan, polys, [div for div, _basis, _pos in pieces])
