import math
import random

import pytest

from usets.construct import (
    Matrix,
    alternating_group,
    classical_order,
    m11_group,
    prime_power_decomposition,
    projective_points,
    projectivize,
    psl_group,
    sl_generators,
    sp4_3,
    su3_3,
    symmetric_group,
    transvection,
    u3_3_group,
    u4_2_group,
)
from usets.gf import field_create
from usets.invariants import profile
from usets.perm import Permutation


def matrix_closure(generators):
    """Brute-force closure of a matrix set under multiplication; an oracle
    independent of the permutation machinery."""
    seen = set(generators)
    frontier = list(generators)
    while frontier:
        new = []
        for m in frontier:
            for g in generators:
                prod = m * g
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
        assert len(matrix_closure(gens)) == 6

    def test_sl25_brute_force_closure(self):
        f = field_create(5, 1)
        assert len(matrix_closure(sl_generators(2, f))) == 120

    def test_sl33_brute_force_closure(self):
        # |SL(3,3)| = q^3 (q^2-1)(q^3-1) = 27*8*26 = 5616
        f = field_create(3, 1)
        assert len(matrix_closure(sl_generators(3, f))) == 27 * 8 * 26

    def test_transvections_have_determinant_one(self):
        f = field_create(3, 2)
        for m in sl_generators(2, f):
            assert m.det() == f.one


class TestProjectivize:
    def test_projective_line_degree(self):
        assert psl_group(2, 11).degree == 12  # q + 1 points

    def test_projective_plane_degree(self):
        assert psl_group(3, 3).degree == 13  # (27-1)/2 points

    def test_scalar_matrix_acts_trivially(self):
        f = field_create(5, 1)
        two = f.scalar(2)
        scalar = Matrix(((two, f.zero), (f.zero, two)))
        group = projectivize([scalar])
        assert group.generators[0].is_identity()

    def test_singular_matrix_rejected(self):
        f = field_create(3, 1)
        singular = Matrix(((f.one, f.one), (f.one, f.one)))
        with pytest.raises(ValueError, match="singular"):
            projectivize([singular])

    def test_point_count(self):
        f = field_create(2, 2)
        assert len(projective_points(f, 3)) == (4 ** 3 - 1) // 3

    def test_action_is_a_homomorphism(self):
        # perm(A*B) == perm(A) * perm(B) on 100 random products
        f = field_create(7, 1)
        gens = sl_generators(2, f)
        rng = random.Random(99)
        for _ in range(100):
            a = rng.choice(gens) * rng.choice(gens) * rng.choice(gens)
            b = rng.choice(gens) * rng.choice(gens)
            pa, pb, pab = projectivize([a, b, a * b]).generators
            assert pa * pb == pab


    def test_point_subset_must_be_preserved(self):
        f = field_create(3, 1)
        swap = Matrix(((f.zero, f.one), (f.one, f.zero)))
        with pytest.raises(ValueError, match="preserve"):
            projectivize([swap], [(f.zero, f.one)])


def hermitian(u, v):
    """Sum of u_i * v_i^3 over GF(9), written out independently."""
    return sum((x * y * y * y for x, y in zip(u, v)), u[0].spec.zero)


def symplectic(u, v):
    return u[0] * v[1] - u[1] * v[0] + u[2] * v[3] - u[3] * v[2]


class TestFormGroups:
    def test_su3_3_generators_are_special_unitary(self):
        f = field_create(3, 2)
        basis = Matrix.identity(3, f).rows
        for m in su3_3()[0]:
            assert m.det() == f.one
            for a in basis:
                for b in basis:
                    assert hermitian(m.row_apply(a), m.row_apply(b)) == hermitian(a, b)

    def test_sp4_3_generators_are_symplectic(self):
        f = field_create(3, 1)
        basis = Matrix.identity(4, f).rows
        for m in sp4_3()[0]:
            assert m.det() == f.one
            for a in basis:
                for b in basis:
                    assert symplectic(m.row_apply(a), m.row_apply(b)) == symplectic(a, b)

    def test_point_counts(self):
        points = su3_3()[1]
        assert len(points) == 28  # q^3 + 1 isotropic points, q = 3
        assert all(not hermitian(pt, pt) for pt in points)
        assert len(sp4_3()[1]) == 40  # (3^4 - 1) / 2 points of PG(3,3)
        assert (u3_3_group().degree, u4_2_group().degree) == (28, 40)

    def test_m11_is_transitive_of_order_7920(self):
        group = m11_group()
        assert group.degree == 11
        assert len(group.orbit(0)) == 11
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
        assert classical_order("Sym", 4) == 24

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
    f = field_create(3, 1)
    with pytest.raises(ValueError):
        transvection(2, f, 1, 1, f.one)
