import math
import random

import pytest

from usets.perm import GroupTooLargeError, PermGroup, Permutation
from usets.construct import alternating_group, symmetric_group


def cyc(degree, *cycles):
    return Permutation.from_cycles(degree, *cycles)


class TestCompose:
    def test_identity_first(self):
        assert (Permutation.identity(5) * cyc(5, (0, 1, 2))) == cyc(5, (0, 1, 2))

    def test_involution_squares_to_identity(self):
        a = cyc(3, (0, 1))
        assert (a * a).is_identity()

    def test_convention_left_factor_first(self):
        # hand evaluation: result[i] = b[a[i]] gives 0->2, 1->0, 2->1;
        # the opposite convention would give 0->1, 1->2, 2->0
        a, b = cyc(3, (0, 1)), cyc(3, (1, 2))
        assert (a * b).images == (2, 0, 1)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            cyc(3, (0, 1)) * cyc(4, (0, 1))


class TestInverse:
    def test_identity(self):
        assert Permutation.identity(4).inverse().is_identity()

    def test_involution(self):
        a = cyc(3, (0, 1))
        assert a.inverse() == a

    def test_three_cycle(self):
        a = cyc(3, (0, 1, 2))
        assert a.inverse() == cyc(3, (0, 2, 1))
        assert (a * a.inverse()).is_identity()


def test_validation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 3, 1])


def test_from_cycles_rejects_bad_points():
    with pytest.raises(ValueError):
        cyc(3, (0, 3))
    with pytest.raises(ValueError):
        cyc(4, (0, 1), (1, 2))


def test_cycle_string_and_order():
    p = cyc(5, (0, 1), (2, 3, 4))
    assert p.cycle_string() == "(1,2)(3,4,5)"
    assert p.order() == 6
    assert Permutation.identity(3).cycle_string() == "()"
    assert Permutation.identity(3).order() == 1
    assert p ** 6 == Permutation.identity(5)
    assert p ** -1 == p.inverse()


def test_group_algebra_randomized():
    # associativity and two-sided inverse on 10^4 random triples
    rng = random.Random(20240810)
    degree = 8
    ident = Permutation.identity(degree)
    for _ in range(10_000):
        a, b, c = (Permutation(rng.sample(range(degree), degree)) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == ident
        assert a.inverse() * a == ident


class TestOrbit:
    def test_full_cycle(self):
        g = PermGroup([cyc(3, (0, 1, 2))])
        assert g.orbit(0) == (0, 1, 2)

    def test_fixed_point(self):
        g = PermGroup([cyc(4, (0, 1))])
        assert g.orbit(2) == (2,)

    def test_s5_transitive(self):
        g = PermGroup([cyc(5, (0, 1)), cyc(5, (0, 1, 2, 3, 4))])
        assert g.orbit(0) == (0, 1, 2, 3, 4)

    def test_out_of_range(self):
        g = PermGroup([cyc(3, (0, 1))])
        with pytest.raises(ValueError):
            g.orbit(3)


class TestBSGS:
    def test_s3_order(self):
        g = PermGroup([cyc(3, (0, 1)), cyc(3, (0, 1, 2))])
        assert g.order() == 6

    def test_a5_order_matches_factorial_formula(self):
        assert alternating_group(5).order() == math.factorial(5) // 2

    def test_orbit_product_is_order(self):
        g = alternating_group(6)
        bsgs = g.bsgs
        prod = math.prod(len(o) for o in bsgs.basic_orbits)
        assert prod == g.order() == 360

    def test_original_generators_sift_trivially(self):
        g = alternating_group(7)
        for gen in g.generators:
            assert g.bsgs.contains_images(gen.images)

    def test_basic_orbit_sizes_divide_order(self):
        g = PermGroup([cyc(6, (0, 1, 2, 3)), cyc(6, (3, 4, 5))])
        order = g.order()
        for orbit in g.bsgs.basic_orbits:
            assert order % len(orbit) == 0

    def test_transversal_representatives(self):
        g = alternating_group(5)
        bsgs = g.bsgs
        for level, pt in enumerate(bsgs.base):
            for gamma, u in bsgs.transversal(level).items():
                assert u.images[pt] == gamma

    def test_trivial_group(self):
        g = PermGroup([Permutation.identity(4)])
        assert g.order() == 1
        assert g.elements() == [Permutation.identity(4)]


class TestContains:
    def test_generators_are_members(self):
        g = alternating_group(6)
        for gen in g.generators:
            assert gen in g

    def test_transposition_not_in_cyclic_group(self):
        g = PermGroup([cyc(3, (0, 1, 2))])
        assert not g.contains(cyc(3, (0, 1)))

    def test_random_product_stays_inside(self):
        g = alternating_group(6)
        rng = random.Random(7)
        word = Permutation.identity(6)
        for _ in range(10):
            word = word * rng.choice(g.generators)
        assert word in g

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            alternating_group(5).contains(cyc(4, (0, 1)))


class TestElements:
    def test_cyclic(self):
        g = PermGroup([cyc(3, (0, 1, 2))])
        assert len(g.elements()) == 3

    def test_a5_complete_and_distinct(self):
        elems = alternating_group(5).elements()
        assert len(elems) == len(set(elems)) == 60

    def test_closed_under_generators(self):
        g = alternating_group(5)
        elems = set(g.elements())
        for x in elems:
            for s in g.generators:
                assert x * s in elems

    def test_deterministic_and_generator_order_independent(self):
        g1 = alternating_group(5)
        g2 = PermGroup(tuple(reversed(g1.generators)))
        assert g1.elements() == g2.elements() == g1.elements()

    def test_too_large_error_names_order_and_limit(self):
        with pytest.raises(GroupTooLargeError, match=r"60.*10"):
            alternating_group(5).elements(limit=10)

    @pytest.mark.parametrize("group,order", [
        (symmetric_group(5), 120),
        (alternating_group(6), 360),
        (symmetric_group(6), 720),
    ])
    def test_enumeration_count_matches_bsgs_order(self, group, order):
        assert group.order() == order
        assert len(group.elements()) == order
