"""Concrete group families as permutation groups.

Alternating groups and M11 come from fixed generator patterns;
PSL(n,q) is realized as the image of SL(n,q), generated by elementary
transvections, acting on the points of projective (n-1)-space.  Scalar
matrices act trivially on projective points, so the permutation image of
SL(n,q) is exactly PSL(n,q); class-size invariants only depend on the
abstract group, so no explicit coset construction is needed.  U3(3) and
U4(2) are SU(3,3) and PSp(4,3) acting the same way, each generated by a
few transvections of its form (:func:`classical_group`).

Vectors are tuples of integer-coded field elements (:mod:`usets.gf`) and
a matrix is the tuple of its rows; every function that does arithmetic
takes the :class:`~usets.gf.Field` explicitly.  Projective points are
normalized so the first nonzero coordinate is 1 and enumerated in
ascending coefficient order, which makes every permutation image stable
across runs.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

from .gf import Field, field_create
from .patterns import factorize
from .perm import PermGroup, Permutation

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]  # the rows


def identity(n: int) -> Matrix:
    """The n x n identity; 0 and 1 code zero and one in every field."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def row_apply(field: Field, m: Matrix, vec: Vector) -> Vector:
    """Row vector times matrix; vec -> vec @ m, skipping zero products.
    Field codes are nonnegative, so a column summing to 1 is a unit vector
    and picks one coordinate as it is."""
    add, mul = field.add, field.mul
    out = []
    for col in zip(*m):
        if sum(col) == 1:
            out.append(vec[col.index(1)])
            continue
        acc = 0
        for x, a in zip(vec, col):
            if x and a:
                acc = add[acc][mul[x][a]]
        out.append(acc)
    return tuple(out)


def det(field: Field, m: Matrix) -> int:
    """Determinant by Gaussian elimination."""
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    rows = [list(r) for r in m]
    n = len(rows)
    d = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            d = neg[d]
        d = mul[d][rows[col][col]]
        scale = mul[inv[rows[col][col]]]
        rows[col] = [scale[x] for x in rows[col]]
        for r in range(col + 1, n):
            if rows[r][col]:
                minus_f = mul[neg[rows[r][col]]]
                rows[r] = [add[x][minus_f[y]] for x, y in zip(rows[r], rows[col])]
    return d


def transvection(n: int, i: int, j: int, value: int) -> Matrix:
    """Elementary matrix: identity plus ``value`` in position (i, j), i != j."""
    if i == j:
        raise ValueError("transvection needs i != j")
    rows = [list(r) for r in identity(n)]
    rows[i][j] = value
    return tuple(tuple(r) for r in rows)


def sl_generators(n: int, field: Field) -> list[Matrix]:
    """All elementary transvections E_ij(theta^m), m < k, theta primitive.

    The powers theta^0..theta^(k-1) span GF(p^k) additively, so these
    matrices generate SL(n, p^k).  The set is deliberately redundant;
    order validation downstream catches construction errors.
    """
    if n < 2:
        raise ValueError("SL(n,q) needs n >= 2")
    return [transvection(n, i, j, field.pow(field.primitive, m))
            for i in range(n) for j in range(n) if i != j for m in range(field.k)]


def normalize_point(field: Field, vec: Vector) -> Vector:
    """Canonical representative of a projective point: first nonzero
    coordinate scaled to 1."""
    for x in vec:
        if x:
            scale = field.mul[field.inv[x]]
            return tuple(scale[y] for y in vec)
    raise ValueError("the zero vector is not a projective point")


def projective_points(field: Field, n: int) -> list[Vector]:
    """All points of PG(n-1, q) as normalized vectors, ascending order."""
    return [(0,) * lead + (1,) + rest for lead in range(n - 1, -1, -1)
            for rest in itertools.product(range(field.size), repeat=n - 1 - lead)]


def projectivize(field: Field, mats: Sequence[Matrix],
                 points: Sequence[Vector] | None = None) -> PermGroup:
    """Permutation action of invertible matrices on projective points.

    ``points``, all of PG(n-1, q) by default, must be normalized and
    preserved.  Points transform as row vectors (v -> v @ M), which makes
    the map a homomorphism for this package's apply-left-factor-first
    composition: the permutation of M1 @ M2 is perm(M1) * perm(M2).
    """
    if not mats:
        raise ValueError("need at least one matrix")
    if points is None:
        points = projective_points(field, len(mats[0]))
    index = {pt: i for i, pt in enumerate(points)}
    perms = []
    for m in mats:
        if not det(field, m):
            raise ValueError("singular matrix has no projective action")
        images = tuple(index.get(normalize_point(field, row_apply(field, m, pt)), -1)
                       for pt in points)
        if -1 in images:
            raise ValueError("matrix does not preserve the point set")
        perms.append(Permutation(images))
    return PermGroup(perms)


def hermitian_form(field: Field, u: Vector, v: Vector) -> int:
    """H(u, v) = sum u_i v_i^q over GF(q^2)."""
    add, mul = field.add, field.mul
    q = field.p ** (field.k // 2)
    acc = 0
    for x, y in zip(u, v):
        acc = add[acc][mul[x][field.pow(y, q)]]
    return acc


def symplectic_form(field: Field, u: Vector, v: Vector) -> int:
    """<u, v> = sum_i u_{2i-1} v_{2i} - u_{2i} v_{2i-1}, in any even dimension."""
    add, mul, neg = field.add, field.mul, field.neg
    acc = 0
    for i in range(0, len(u), 2):
        acc = add[acc][add[mul[u[i]][v[i + 1]]][neg[mul[u[i + 1]][v[i]]]]]
    return acc


def form_transvections(field: Field, form: Callable[[Field, Vector, Vector], int],
                       centers: Sequence[Vector], scale: int) -> list[Matrix]:
    """The maps x -> x + scale * form(x, v) * v, one per center v.  Row i
    of each matrix is the image of the i-th basis vector, as
    :func:`projectivize`'s row action needs."""
    add, mul = field.add, field.mul
    out = []
    for v in centers:
        rows = []
        for e in identity(len(v)):
            c = mul[scale][form(field, e, v)]
            rows.append(tuple(add[x][mul[c][y]] for x, y in zip(e, v)))
        out.append(tuple(rows))
    return out


def classical_group(form: Callable[[Field, Vector, Vector], int], n: int, q: int,
                    centres: Sequence[int], twist: int = 1) -> PermGroup:
    """The transvections x -> x + twist * form(x, v) * v, v the isotropic
    points numbered ``centres`` in ascending order, acting on all isotropic
    points of PG(n-1, q): the projective image of the group they generate."""
    field = field_create(*prime_power_decomposition(q))
    points = [pt for pt in projective_points(field, n) if not form(field, pt, pt)]
    mats = form_transvections(field, form, [points[i] for i in centres], twist)
    return projectivize(field, mats, points)


def m11_group() -> PermGroup:
    """M11 from the classical pair (1,...,11) and (3,7,11,8)(4,10,5,6)."""
    return PermGroup([Permutation.from_cycles(11, tuple(range(11))),
                      Permutation.from_cycles(11, (2, 6, 10, 7), (3, 9, 4, 5))])


def prime_power_decomposition(q: int) -> tuple[int, int]:
    """Write q = p^k with p prime, or raise ValueError."""
    factors = factorize(q) if q >= 2 else {}
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    return next(iter(factors.items()))


def psl_group(n: int, q: int) -> PermGroup:
    """PSL(n,q) acting on the (q^n - 1)/(q - 1) projective points, for
    q <= :data:`usets.gf.MAX_FIELD_SIZE`."""
    if (n, q) in ((2, 2), (2, 3)):
        raise ValueError(f"PSL({n},{q}) is not simple; not provided here")
    p, k = prime_power_decomposition(q)
    field = field_create(p, k)
    return projectivize(field, sl_generators(n, field))


def alternating_group(n: int) -> PermGroup:
    if n < 3:
        raise ValueError("alternating groups start at degree 3 here")
    three_cycle = Permutation.from_cycles(n, (0, 1, 2))
    if n % 2:
        big = Permutation.from_cycles(n, tuple(range(n)))
    else:
        big = Permutation.from_cycles(n, tuple(range(1, n)))
    return PermGroup([three_cycle, big])


def classical_order(family: str, *params: int) -> int:
    """Exact order of PSL(n,q) or Alt(n)."""
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
    raise ValueError(f"unknown family {family!r}; expected PSL or Alt")
