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

import numpy as np

from .errors import InputError
from .lattice import Polytope, dot
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

    Attributes:
        degree: the DivisorClass (with its chosen representative a).
        lattice_points: lattice points m of the section polytope, in lex
            order; this order is the row/column order used everywhere.
        monomials: exponent tuples F^T m + a, aligned with lattice_points.
    """

    __slots__ = ("degree", "lattice_points", "monomials", "_pos")

    def __init__(self, degree):
        fan = degree.fan
        self.degree = degree
        self.lattice_points = degree.polytope().lattice_points()
        a = degree.a
        mons = []
        for m in self.lattice_points:
            mons.append(tuple(dot(u, m) + a[j] for j, u in enumerate(fan.rays)))
        self.monomials = mons
        self._pos = {b: i for i, b in enumerate(mons)}

    @property
    def fan(self):
        return self.degree.fan

    def position(self, exponent):
        """Index of a monomial given by its exponent tuple, or None."""
        return self._pos.get(tuple(exponent))

    def exponent_matrix(self):
        """Exponents as an integer array of shape (len(self), k)."""
        if not self.monomials:
            return np.zeros((0, self.degree.fan.k), dtype=np.int64)
        return np.array(self.monomials, dtype=np.int64)

    def __len__(self):
        return len(self.monomials)

    def __repr__(self):
        return f"GradedBasis(degree={self.degree!r}, size={len(self)})"


def graded_basis(fan, alpha):
    """Monomial basis of S_alpha for a divisor class or representative.

    Args:
        fan: the Fan.
        alpha: DivisorClass on that fan, or an integer representative
            vector of length fan.k.

    Returns:
        GradedBasis. An empty basis is a valid result (the degree has no
        sections at this representative).
    """
    if not isinstance(alpha, DivisorClass):
        alpha = fan.divisor(alpha)
    elif alpha.fan is not fan:
        raise InputError("divisor class belongs to a different fan")
    return GradedBasis(alpha)


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
        if z.shape != (self.basis.fan.k,):
            raise InputError(f"point has shape {z.shape}, expected ({self.basis.fan.k},)")
        if len(self.basis) == 0:
            return 0j, 0.0
        expmat = self.basis.exponent_matrix()
        monvals = np.prod(z[None, :] ** expmat, axis=1)
        value = complex(np.sum(self.coeffs * monvals))
        scale = float(np.sum(np.abs(self.coeffs) * np.abs(monvals)))
        return value, scale

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

        A vanishing scale with a vanishing value counts as residual 0.
        """
        out = []
        for f in self.polys:
            value, scale = f.evaluate(z)
            if scale == 0.0:
                out.append(0.0 if value == 0 else float("inf"))
            else:
                out.append(abs(value) / scale)
        return np.array(out)

    def __repr__(self):
        degs = [d.degree() for d in self.degrees]
        return f"HomogeneousSystem({len(self.polys)} equations, degrees={degs})"


def _merge_terms(terms):
    acc = {}
    for exp, c in terms:
        key = tuple(int(x) for x in exp)
        acc[key] = acc.get(key, 0j) + complex(c)
    return {e: c for e, c in acc.items() if c != 0}


def homogenize(equations, rays=None):
    """Homogenize a Laurent system into the Cox ring of its Minkowski fan.

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
        InputError: empty input, inconsistent dimensions, or a Minkowski
            sum that is not full-dimensional (the torus direction in the
            deficient subspace would never compactify).
    """
    if not equations:
        raise InputError("no equations supplied")
    merged = [_merge_terms(eq) for eq in equations]
    for i, terms in enumerate(merged):
        if not terms:
            raise InputError(f"equation {i} has empty support")
    n = len(next(iter(merged[0])))
    for i, terms in enumerate(merged):
        if any(len(e) != n for e in terms):
            raise InputError(f"equation {i} mixes exponent lengths")

    newtons = [Polytope.from_points(list(terms)) for terms in merged]
    total = newtons[0]
    for q in newtons[1:]:
        total = total.minkowski(q)
    fan = Fan.normal_fan(total, rays=rays)

    polys = []
    degrees = []
    for terms in merged:
        div = divisor_of_polytope(fan, list(terms))
        basis = GradedBasis(div)
        coeffs = np.zeros(len(basis), dtype=complex)
        a = div.a
        for m, c in terms.items():
            exp = tuple(dot(u, m) + a[j] for j, u in enumerate(fan.rays))
            pos = basis.position(exp)
            if pos is None:  # cannot happen: Newton points lie in P_a
                raise InputError(f"support point {m} escaped its section polytope")
            coeffs[pos] = c
        polys.append(CoxPolynomial(basis, coeffs))
        degrees.append(div)
    return HomogeneousSystem(fan, polys, degrees)
