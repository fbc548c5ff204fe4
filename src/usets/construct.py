"""Concrete group families as permutation groups.

Alternating and symmetric groups and M11 come from fixed generator
patterns; PSL(n,q) is realized as the image of SL(n,q), generated by
elementary transvections, acting on the points of projective
(n-1)-space.  Scalar matrices act trivially on projective points, so the
permutation image of SL(n,q) is exactly PSL(n,q); class-size invariants
only depend on the abstract group, so no explicit coset construction is
needed.  U3(3) and U4(2) are SU(3,3) and PSp(4,3) acting the same way,
each generated by a few transvections of its form.

Projective points are normalized so the first nonzero coordinate is 1
and enumerated in ascending coefficient order, which makes every
permutation image stable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .gf import FieldElement, FieldSpec, field_create, primitive_element
from .perm import PermGroup, Permutation

Vector = tuple


@dataclass(frozen=True)
class Matrix:
    """Square matrix over a finite field (rows of FieldElement)."""

    rows: tuple[tuple[FieldElement, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if n == 0 or any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square and nonempty")
        specs = {e.spec for r in self.rows for e in r}
        if len(specs) != 1:
            raise ValueError("matrix entries must share one field")

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def spec(self) -> FieldSpec:
        return self.rows[0][0].spec

    @classmethod
    def identity(cls, n: int, spec: FieldSpec) -> "Matrix":
        one, zero = spec.one, spec.zero
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.n != other.n or self.spec != other.spec:
            raise ValueError("matrix dimension or field mismatch")
        n = self.n
        cols = tuple(zip(*other.rows))
        rows = []
        for r in self.rows:
            row = []
            for c in cols:
                acc = self.spec.zero
                for a, b in zip(r, c):
                    acc = acc + a * b
                row.append(acc)
            rows.append(tuple(row))
        return Matrix(tuple(rows))

    def row_apply(self, vec: Vector) -> Vector:
        """Row vector times matrix; vec -> vec @ M, skipping zero products."""
        out = []
        for col in zip(*self.rows):
            acc = self.spec.zero
            for x, a in zip(vec, col):
                if x and a:
                    acc = acc + x * a
            out.append(acc)
        return tuple(out)

    def det(self) -> FieldElement:
        n = self.n
        m = [list(r) for r in self.rows]
        det = self.spec.one
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col]), None)
            if pivot is None:
                return self.spec.zero
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            det = det * m[col][col]
            inv = m[col][col].inverse()
            m[col] = [x * inv for x in m[col]]
            for r in range(col + 1, n):
                f = m[r][col]
                if f:
                    m[r] = [x - f * y for x, y in zip(m[r], m[col])]
        return det


def transvection(n: int, spec: FieldSpec, i: int, j: int, value: FieldElement) -> Matrix:
    """Elementary matrix: identity plus ``value`` in position (i, j), i != j."""
    if i == j:
        raise ValueError("transvection needs i != j")
    rows = [list(r) for r in Matrix.identity(n, spec).rows]
    rows[i][j] = value
    return Matrix(tuple(tuple(r) for r in rows))


def sl_generators(n: int, spec: FieldSpec) -> list[Matrix]:
    """All elementary transvections E_ij(theta^m), m < k, theta primitive.

    The powers theta^0..theta^(k-1) span GF(p^k) additively, so these
    matrices generate SL(n, p^k).  The set is deliberately redundant;
    order validation downstream catches construction errors.
    """
    if n < 2:
        raise ValueError("SL(n,q) needs n >= 2")
    theta = primitive_element(spec)
    out = []
    for i in range(n):
        for j in range(n):
            if i != j:
                for m in range(spec.k):
                    out.append(transvection(n, spec, i, j, theta ** m))
    return out


def normalize_point(vec: Vector) -> Vector:
    """Canonical representative of a projective point: first nonzero
    coordinate scaled to 1."""
    for x in vec:
        if x:
            inv = x.inverse()
            return tuple(y * inv for y in vec)
    raise ValueError("the zero vector is not a projective point")


def projective_points(spec: FieldSpec, n: int) -> list[Vector]:
    """All points of PG(n-1, q) as normalized vectors, ascending order."""
    points = []
    def walk(prefix: list[FieldElement], leading_zero: bool) -> None:
        if len(prefix) == n:
            if not leading_zero:
                points.append(tuple(prefix))
            return
        if leading_zero:
            walk(prefix + [spec.zero], True)
            walk(prefix + [spec.one], False)
        else:
            for e in spec.elements():
                walk(prefix + [e], False)
    walk([], True)
    expected = (spec.size ** n - 1) // (spec.size - 1)
    if len(points) != expected:
        raise RuntimeError("projective point enumeration is inconsistent")
    return points


def projectivize(mats: Sequence[Matrix],
                 points: Sequence[Vector] | None = None) -> PermGroup:
    """Permutation action of invertible matrices on projective points.

    ``points``, all of PG(n-1, q) by default, must be normalized and
    preserved.  Points transform as row vectors (v -> v @ M), which makes
    the map a homomorphism for this package's apply-left-factor-first
    composition: the permutation of M1 @ M2 is perm(M1) * perm(M2).
    """
    if not mats:
        raise ValueError("need at least one matrix")
    spec = mats[0].spec
    n = mats[0].n
    if any(m.spec != spec or m.n != n for m in mats):
        raise ValueError("matrices must share field and dimension")
    if points is None:
        points = projective_points(spec, n)
    index = {pt: i for i, pt in enumerate(points)}
    perms = []
    for m in mats:
        if not m.det():
            raise ValueError("singular matrix has no projective action")
        images = tuple(index.get(normalize_point(m.row_apply(pt)), -1) for pt in points)
        if -1 in images:
            raise ValueError("matrix does not preserve the point set")
        perms.append(Permutation(images))
    return PermGroup(perms)


def hermitian_form(u: Vector, v: Vector) -> FieldElement:
    """H(u, v) = sum u_i v_i^3 over GF(9)."""
    return sum((x * y ** 3 for x, y in zip(u, v)), u[0].spec.zero)


def symplectic_form(u: Vector, v: Vector) -> FieldElement:
    """<u, v> = u1 v2 - u2 v1 + u3 v4 - u4 v3."""
    return u[0] * v[1] - u[1] * v[0] + u[2] * v[3] - u[3] * v[2]


def form_transvections(form, centers: Sequence[Vector],
                       scale: FieldElement) -> list[Matrix]:
    """The maps x -> x + scale * form(x, v) * v, one per center v.  Row i
    of each matrix is the image of the i-th basis vector, as
    :func:`projectivize`'s row action needs."""
    basis = Matrix.identity(len(centers[0]), scale.spec).rows
    return [Matrix(tuple(tuple(x + c * y for x, y in zip(e, v))
                         for e, c in ((e, scale * form(e, v)) for e in basis)))
            for v in centers]


def su3_3() -> tuple[list[Matrix], list[Vector]]:
    """Three unitary transvections generating SU(3,3), and the 28 isotropic
    points they permute.  The centers are isotropic points 0, 13 and 21,
    the twist the first nonzero l with l + l^3 = 0; of the generating
    triples, these cost profile() the fewest samples and search nodes."""
    spec = field_create(3, 2)
    points = [pt for pt in projective_points(spec, 3) if not hermitian_form(pt, pt)]
    twist = next(l for l in spec.elements() if l and not (l + l ** 3))
    return form_transvections(hermitian_form, [points[i] for i in (0, 13, 21)], twist), points


def sp4_3() -> tuple[list[Matrix], list[Vector]]:
    """Four symplectic transvections generating Sp(4,3), centered on points
    0, 1, 4 and 17 of PG(3,3) (e4, e3, e2, e1+e3+e4; picked as in
    :func:`su3_3`), and the 40 points they permute."""
    spec = field_create(3, 1)
    points = projective_points(spec, 4)
    return form_transvections(symplectic_form, [points[i] for i in (0, 1, 4, 17)], spec.one), points


def u3_3_group() -> PermGroup:
    """U3(3) = SU(3,3) on the isotropic points; its center is trivial."""
    return projectivize(*su3_3())


def u4_2_group() -> PermGroup:
    """U4(2) = PSp(4,3): Sp(4,3) on PG(3,3), with kernel +-I."""
    return projectivize(*sp4_3())


def m11_group() -> PermGroup:
    """M11 from the classical pair (1,...,11) and (3,7,11,8)(4,10,5,6)."""
    return PermGroup([Permutation.from_cycles(11, tuple(range(11))),
                      Permutation.from_cycles(11, (2, 6, 10, 7), (3, 9, 4, 5))])


def prime_power_decomposition(q: int) -> tuple[int, int]:
    """Write q = p^k with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = next(f for f in range(2, q + 1) if q % f == 0)
    k, m = 0, q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, k


def psl_group(n: int, q: int) -> PermGroup:
    """PSL(n,q) acting on the (q^n - 1)/(q - 1) projective points."""
    if (n, q) in ((2, 2), (2, 3)):
        raise ValueError(f"PSL({n},{q}) is not simple; not provided here")
    p, k = prime_power_decomposition(q)
    spec = field_create(p, k)
    return projectivize(sl_generators(n, spec))


def alternating_group(n: int) -> PermGroup:
    if n < 3:
        raise ValueError("alternating groups start at degree 3 here")
    three_cycle = Permutation.from_cycles(n, (0, 1, 2))
    if n % 2:
        big = Permutation.from_cycles(n, tuple(range(n)))
    else:
        big = Permutation.from_cycles(n, tuple(range(1, n)))
    return PermGroup([three_cycle, big])


def symmetric_group(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("degree must be positive")
    if n == 1:
        return PermGroup([Permutation.identity(1)])
    swap = Permutation.from_cycles(n, (0, 1))
    cycle = Permutation.from_cycles(n, tuple(range(n)))
    return PermGroup([swap, cycle])


def classical_order(family: str, *params: int) -> int:
    """Exact order of PSL(n,q), Alt(n) or Sym(n)."""
    if family == "PSL":
        n, q = params
        prime_power_decomposition(q)
        size = q ** (n * (n - 1) // 2)
        for i in range(2, n + 1):
            size *= q ** i - 1
        return size // math.gcd(n, q - 1)
    if family == "Alt":
        (n,) = params
        if n < 2:
            raise ValueError("Alt(n) needs n >= 2")
        return math.factorial(n) // 2
    if family == "Sym":
        (n,) = params
        return math.factorial(n)
    raise ValueError(f"unknown family {family!r}; expected PSL, Alt or Sym")
