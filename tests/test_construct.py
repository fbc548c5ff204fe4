import hashlib
import itertools
import math
import random

import pytest

from usets.catalog import default_catalog
from usets.construct import (
    alternating_group,
    classical_order,
    det,
    form_transvections,
    hermitian_form,
    identity,
    m11_group,
    prime_power_decomposition,
    projective_points,
    projectivize,
    psl_group,
    row_apply,
    sl_generators,
    symplectic_form,
    transvection,
)
from usets.gf import field_create
from usets.invariants import profile
from usets.perm import Permutation, _orbit_labels

from helpers import symmetric_group


def mat_mul(f, a, b):
    """Matrix product over the field, written out for the tests."""
    return tuple(tuple(_dot(f, row, col) for col in zip(*b)) for row in a)


def _dot(f, u, v):
    acc = 0
    for x, y in zip(u, v):
        acc = f.add[acc][f.mul[x][y]]
    return acc


def matrix_closure(f, generators):
    """Brute-force closure of a matrix set under multiplication; an oracle
    independent of the permutation machinery."""
    seen = set(generators)
    frontier = list(generators)
    while frontier:
        new = []
        for m in frontier:
            for g in generators:
                prod = mat_mul(f, m, g)
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
        frontier = new
    return seen


class TestAlternating:
    @pytest.mark.parametrize("n,order", [(3, 3), (5, 60), (6, 360)])
    def test_orders(self, n, order):
        assert alternating_group(n).order() == order == math.factorial(n) // 2

    def test_rejects_small_degree(self):
        with pytest.raises(ValueError):
            alternating_group(2)


class TestSymmetric:
    def test_trivial(self):
        assert symmetric_group(1).order() == 1

    def test_s3_class_sizes(self):
        assert profile(symmetric_group(3)).V == (1, 2, 3)

    def test_s4(self):
        assert symmetric_group(4).order() == 24


class TestSLGenerators:
    def test_sl22_brute_force_closure(self):
        f = field_create(2, 1)
        gens = sl_generators(2, f)
        assert len(gens) == 2  # E12(1), E21(1)
        assert len(matrix_closure(f, gens)) == 6

    def test_sl25_brute_force_closure(self):
        f = field_create(5, 1)
        assert len(matrix_closure(f, sl_generators(2, f))) == 120

    def test_sl33_brute_force_closure(self):
        # |SL(3,3)| = q^3 (q^2-1)(q^3-1) = 27*8*26 = 5616
        f = field_create(3, 1)
        assert len(matrix_closure(f, sl_generators(3, f))) == 27 * 8 * 26

    def test_transvections_have_determinant_one(self):
        f = field_create(3, 2)
        for m in sl_generators(2, f):
            assert det(f, m) == 1

    def test_determinant_against_cofactor_expansion(self):
        f = field_create(2, 2)
        rng = random.Random(7)
        for _ in range(200):
            m = tuple(tuple(rng.randrange(4) for _ in range(3)) for _ in range(3))
            terms = [f.mul[f.mul[m[0][a]][m[1][b]]][m[2][c]]
                     for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1),
                                     (2, 1, 0), (0, 2, 1), (1, 0, 2))]
            expected = 0
            for t in terms:  # characteristic 2: the signs are all +
                expected = f.add[expected][t]
            assert det(f, m) == expected


class TestProjectivize:
    def test_projective_line_degree(self):
        assert psl_group(2, 11).degree == 12  # q + 1 points

    def test_projective_plane_degree(self):
        assert psl_group(3, 3).degree == 13  # (27-1)/2 points

    def test_scalar_matrix_acts_trivially(self):
        f = field_create(5, 1)
        group = projectivize(f, [((2, 0), (0, 2))])
        assert group.generators[0].is_identity()

    def test_singular_matrix_rejected(self):
        f = field_create(3, 1)
        with pytest.raises(ValueError, match="singular"):
            projectivize(f, [((1, 1), (1, 1))])

    def test_point_count(self):
        f = field_create(2, 2)
        assert len(projective_points(f, 3)) == (4 ** 3 - 1) // 3

    @pytest.mark.parametrize("p,k,n", [(2, 1, 4), (3, 1, 3), (2, 2, 3), (3, 2, 2), (5, 1, 3)])
    def test_points_are_normalized_distinct_and_complete(self, p, k, n):
        f = field_create(p, k)
        points = projective_points(f, n)
        assert len(set(points)) == len(points) == (f.size ** n - 1) // (f.size - 1)
        assert all(next(x for x in pt if x) == 1 for pt in points)

    def test_action_is_a_homomorphism(self):
        # perm(A*B) == perm(A) * perm(B) on 100 random products
        f = field_create(7, 1)
        gens = sl_generators(2, f)
        rng = random.Random(99)
        for _ in range(100):
            a = mat_mul(f, mat_mul(f, rng.choice(gens), rng.choice(gens)), rng.choice(gens))
            b = mat_mul(f, rng.choice(gens), rng.choice(gens))
            pa, pb, pab = projectivize(f, [a, b, mat_mul(f, a, b)]).generators
            assert pa * pb == pab

    def test_point_subset_must_be_preserved(self):
        f = field_create(3, 1)
        with pytest.raises(ValueError, match="preserve"):
            projectivize(f, [((0, 1), (1, 0))], [(0, 1)])


def hermitian(u, v):
    """Sum of u_i * v_i^3 over GF(9), computed in the model a + b*i with
    i^2 = -1 over GF(3) (element a + 3b), independently of usets.gf."""
    def mul(x, y):
        (a, b), (c, d) = x, y
        return ((a * c - b * d) % 3, (a * d + b * c) % 3)

    acc = (0, 0)
    for x, y in zip(u, v):
        x, y = (x % 3, x // 3), (y % 3, y // 3)
        term = mul(x, mul(y, mul(y, y)))
        acc = ((acc[0] + term[0]) % 3, (acc[1] + term[1]) % 3)
    return acc


def symplectic(u, v):
    return (u[0] * v[1] - u[1] * v[0] + u[2] * v[3] - u[3] * v[2]) % 3


def form_group_matrices(form, n, p, k, centres, twist=1):
    """The field, the transvections and the isotropic points that the
    catalog's U3(3) or U4(2) is built from."""
    f = field_create(p, k)
    points = [pt for pt in projective_points(f, n) if not form(f, pt, pt)]
    return f, form_transvections(f, form, [points[i] for i in centres], twist), points


U3_3_MATRICES = (hermitian_form, 3, 3, 2, (0, 13, 21), 3)
U4_2_MATRICES = (symplectic_form, 4, 3, 1, (0, 1, 4, 17))


class TestFormGroups:
    def test_su3_3_generators_are_special_unitary(self, catalog):
        f, mats, points = form_group_matrices(*U3_3_MATRICES)
        assert (f.p, f.k) == (3, 2)
        basis = identity(3)
        for m in mats:
            assert det(f, m) == 1
            for a in basis:
                for b in basis:
                    assert hermitian(row_apply(f, m, a), row_apply(f, m, b)) == hermitian(a, b)
        assert projectivize(f, mats, points).generators == catalog.get("U3(3)").generators

    def test_sp4_3_generators_are_symplectic(self, catalog):
        f, mats, points = form_group_matrices(*U4_2_MATRICES)
        assert (f.p, f.k) == (3, 1)
        basis = identity(4)
        for m in mats:
            assert det(f, m) == 1
            for a in basis:
                for b in basis:
                    assert symplectic(row_apply(f, m, a), row_apply(f, m, b)) == symplectic(a, b)
        assert projectivize(f, mats, points).generators == catalog.get("U4(2)").generators

    def test_point_counts(self, catalog):
        points = form_group_matrices(*U3_3_MATRICES)[2]
        assert len(points) == 28  # q^3 + 1 isotropic points, q = 3
        assert all(hermitian(pt, pt) == (0, 0) for pt in points)
        assert len(form_group_matrices(*U4_2_MATRICES)[2]) == 40  # (3^4 - 1) / 2 points of PG(3,3)
        assert (catalog.get("U3(3)").degree, catalog.get("U4(2)").degree) == (28, 40)

    @pytest.mark.parametrize("p,k", [(3, 1), (2, 2)])
    def test_symplectic_form_in_dimension_6(self, p, k):
        # alternating on every vector, and a Gram matrix of nonzero determinant
        f = field_create(p, k)
        vectors = itertools.product(range(f.size), repeat=6)
        assert all(symplectic_form(f, v, v) == 0 for v in vectors)
        basis = identity(6)
        assert det(f, tuple(tuple(symplectic_form(f, a, b) for b in basis) for a in basis))

    def test_m11_is_transitive_of_order_7920(self):
        group = m11_group()
        assert group.degree == 11
        assert _orbit_labels(11, [g.images for g in group.generators]) == [0] * 11
        assert group.order() == 7920


class TestPSLGroups:
    @pytest.mark.parametrize("n,q", [(2, 4), (2, 5), (2, 7), (2, 8), (2, 9),
                                     (2, 11), (2, 13), (2, 17), (3, 3), (3, 4)])
    def test_order_matches_formula_exactly(self, n, q):
        assert psl_group(n, q).order() == classical_order("PSL", n, q)

    def test_psl_2_11_order(self):
        assert psl_group(2, 11).order() == 660

    def test_non_simple_cases_rejected(self):
        with pytest.raises(ValueError):
            psl_group(2, 2)
        with pytest.raises(ValueError):
            psl_group(2, 3)

    def test_non_prime_power_rejected(self):
        with pytest.raises(ValueError):
            psl_group(2, 6)


class TestClassicalOrder:
    def test_values(self):
        assert classical_order("PSL", 2, 11) == 660
        assert classical_order("PSL", 2, 7) == 168  # 7*48/2
        assert classical_order("PSL", 3, 3) == 5616
        assert classical_order("Alt", 6) == 360

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            classical_order("Sp", 4, 3)


def test_prime_power_decomposition():
    assert prime_power_decomposition(8) == (2, 3)
    assert prime_power_decomposition(9) == (3, 2)
    assert prime_power_decomposition(11) == (11, 1)
    for bad in (1, 6, 12):
        with pytest.raises(ValueError):
            prime_power_decomposition(bad)


def test_transvection_requires_off_diagonal():
    with pytest.raises(ValueError):
        transvection(2, 1, 1, 1)


#: sha256 of repr([g.images for g in generators]), first 16 hex digits, as
#: built before elements were integer-coded: constructions must not move.
PINNED_CATALOG_IMAGES = {
    "A5": "11b8b6c13a3f6951",
    "A6": "e5157bb2192699de",
    "A9": "eb16818b44818eb7",
    "A10": "223ba18e763aba29",
    "M11": "efdd65147a40a09a",
    "PSL(2,4)": "9912897ae4988708",
    "PSL(2,5)": "adbe841533d23315",
    "PSL(2,7)": "4c31e0ece60511df",
    "PSL(2,8)": "1314fe14de4ed3f2",
    "PSL(2,9)": "8e93bfffe07d7ebc",
    "PSL(2,11)": "ee6cbd63ae41439c",
    "PSL(2,13)": "9d4c17b7e787b5d1",
    "PSL(2,17)": "e36b3ffc57fe1328",
    "PSL(3,3)": "462b73ba58a6be93",
    "PSL(3,4)": "8c63292f082289be",
    "U3(3)": "375c4ca3f2b07df9",
    "U4(2)": "f6da860ca68d0a90",
}
PINNED_PSL_IMAGES = {  # the PSL groups of the construct-bsgs benchmark
    (2, 19): "ae2e925072dceb24",
    (3, 4): "8c63292f082289be",
    (2, 25): "3baf7039ac0f73d3",
    (3, 5): "434eab1cf81eb797",
    (5, 2): "bc0bedb2f01e358e",
    (4, 3): "fb1f8445c78773ba",
    (2, 47): "aa66358bbc4c3d1b",
    (3, 7): "737248984dc86bb3",
    (6, 2): "ae133f2ad368c56e",
    (3, 8): "a1825a213773cd93",
    (2, 81): "830bf6dacfea72b9",
    (4, 4): "f8774ade72baba49",
    (3, 9): "f2738f6af99925ed",
    (2, 113): "d24203c1e6596797",
}


def _image_digest(group):
    images = repr([g.images for g in group.generators])
    return hashlib.sha256(images.encode()).hexdigest()[:16]


def test_catalog_generator_images_are_pinned():
    got = {e.name: _image_digest(e.group()) for e in default_catalog().entries()}
    assert got == PINNED_CATALOG_IMAGES


def test_psl_generator_images_are_pinned():
    got = {nq: _image_digest(psl_group(*nq)) for nq in PINNED_PSL_IMAGES}
    assert got == PINNED_PSL_IMAGES
