import gc
import hashlib
import itertools
import math
import random
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usets import invariants, perm
from usets.catalog import default_catalog
from usets.construct import alternating_group, m11_group, psl_group
from usets.invariants import (
    centralizer_count,
    conjugacy_classes,
    profile,
)
from usets.patterns import factorize
from usets.perm import DEFAULT_CAP, GroupTooLargeError, PermGroup, Permutation

from helpers import (
    alternating_class_sizes,
    c2_6_x_s3,
    catalog_product_elements,
    d100,
    direct_product,
    forbid,
    generated,
    group_elements,
    orbit_labels,
    plant_centralizer,
    psl2_class_sizes,
    sampled_class_sizes,
    spy,
    symmetric_class_sizes,
    symmetric_group,
    walked_class_sizes,
    wrap,
    wreath_c2,
    wreath_or_product_elements,
)


def brute_force_elements(group):
    """Independent oracle: the group by naive closure over Permutation
    products."""
    gens = list(group.generators)
    elems = set(gens) | {Permutation.identity(group.degree)}
    frontier = list(elems)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in elems:
                    elems.add(y)
                    new.append(y)
        frontier = new
    return elems


def brute_force_class_sizes(group):
    """Enumerate by naive closure, then partition by conjugation with every
    group element."""
    elems = brute_force_elements(group)
    sizes = []
    remaining = set(elems)
    while remaining:
        x = next(iter(remaining))
        cls = {g.inverse() * x * g for g in elems}
        assert cls <= remaining
        remaining -= cls
        sizes.append(len(cls))
    return sorted(sizes)


def test_trivial_group_has_one_class():
    classes = conjugacy_classes(PermGroup([Permutation.identity(3)]))
    assert len(classes) == 1
    assert classes[0].size == 1


def test_a5_sizes_match_brute_force_oracle():
    group = alternating_group(5)
    oracle = brute_force_class_sizes(group)
    assert oracle == [1, 12, 12, 15, 20]
    assert list(profile(group).class_sizes) == oracle


def test_s4_sizes_match_brute_force_oracle():
    group = symmetric_group(4)
    assert list(profile(group).class_sizes) == brute_force_class_sizes(group)


def test_psl_2_11_profile():
    prof = profile(psl_group(2, 11))
    assert prof.class_sizes == (1, 55, 60, 60, 110, 110, 132, 132)
    assert prof.V == (1, 55, 60, 110, 132)
    assert prof.u_map == {1: 1, 55: 55, 60: 120, 110: 220, 132: 264}
    assert sorted(prof.U) == [1, 55, 120, 220, 264]
    assert prof.rank == 4
    assert sorted(prof.pi) == [2, 3, 5, 11]
    assert prof.class_count == 8


def test_a6_collapsed_count():
    # two classes of size 40, so u(40) = 80
    prof = profile(alternating_group(6))
    assert prof.class_sizes.count(40) == 2
    assert prof.u_map[40] == 80
    assert sorted(prof.U) == [1, 45, 80, 90, 144]


def test_rank_examples():
    assert profile(symmetric_group(1)).rank == 0
    assert profile(psl_group(2, 8)).rank == 3


@pytest.mark.parametrize("group_builder,order", [
    (lambda: alternating_group(6), 360),
    (lambda: psl_group(2, 7), 168),
])
def test_profile_identities(group_builder, order):
    prof = profile(group_builder())
    assert prof.group_order == order
    assert sum(prof.class_sizes) == order
    assert sum(prof.u_multiset()) == order
    assert all(prof.u_map[n] % n == 0 for n in prof.V)
    assert all(order % n == 0 for n in prof.class_sizes)
    assert prof.u_map[1] == 1
    assert 1 in prof.U


def test_element_orders_of_a5_classes():
    orders = sorted({c.element_order for c in conjugacy_classes(alternating_group(5))})
    assert orders == [1, 2, 3, 5]


def test_classes_independent_of_generator_order():
    base = alternating_group(5)
    rng = random.Random(3)
    gens = list(base.generators)
    rng.shuffle(gens)
    shuffled = PermGroup(gens)
    # each generator twice and the identity: the walk takes each once
    assert conjugacy_classes(base) == conjugacy_classes(shuffled) == conjugacy_classes(
        padded(shuffled))


def test_classes_independent_of_generating_set():
    # same group from a different generating set: class data must agree
    a5 = alternating_group(5)
    other = PermGroup([Permutation.from_cycles(5, (0, 1, 2)),
                       Permutation.from_cycles(5, (2, 3, 4))])
    assert other.order() == 60
    assert conjugacy_classes(a5) == conjugacy_classes(other)


# sha256 of (name, [(size, representative images), ...]) for every catalog
# group of order <= 25 920, in catalog order: the class tables of
# conjugacy_classes, sizes and minimal representatives alike.
CLASS_TABLE_DIGEST = "3528a8305743d0288cb655e7bc9d20b1261a87dfc46aaa33f1ded872d7e70d86"


def test_catalog_class_tables_are_pinned(catalog):
    table = [(e.name, [(c.size, c.representative.images) for c in conjugacy_classes(e.group())])
             for e in catalog.entries(max_order=25920)]
    assert len(table) == 15
    assert hashlib.sha256(repr(table).encode()).hexdigest() == CLASS_TABLE_DIGEST


def test_profile_serialization_field_names():
    d = profile(alternating_group(5)).as_dict()
    assert set(d) == {"order", "class_sizes", "V", "rank", "class_count",
                      "u_map", "U", "pi"}
    assert d["order"] == 60
    assert d["u_map"]["12"] == 24


def test_cap_enforced():
    with pytest.raises(GroupTooLargeError):
        profile(alternating_group(6), cap=100)


def test_u3_3_count_collapse(catalog):
    # two distinct class sizes contribute 1512 elements each, so U is
    # strictly smaller than the size vector and sums below the order
    prof = catalog.entry("U3(3)").profile()
    assert sum(prof.u_multiset()) == 6048
    assert sum(prof.U) == 4536
    assert [n for n in prof.V if prof.u_map[n] == 1512] == [504, 756]
    assert len(prof.U) < len(prof.u_map)


def test_u4_2_count_collapse(catalog):
    prof = catalog.entry("U4(2)").profile()
    assert sum(prof.u_multiset()) == 25920
    assert len([n for n in prof.V if prof.u_map[n] == 1440]) == 2


def padded(group):
    """The same group with each generator given twice, and the identity."""
    return PermGroup(list(group.generators) * 2 + [Permutation.identity(group.degree)])


def linear_group_f3(matrices):
    """The group generated by 2x2 matrices (a, b, c, d) over GF(3), acting
    on the 8 nonzero vectors of GF(3)^2 (faithfully, as -1 moves them)."""
    vectors = [v for v in itertools.product(range(3), repeat=2) if v != (0, 0)]
    index = {v: i for i, v in enumerate(vectors)}
    return PermGroup([
        Permutation([index[((a * u + b * v) % 3, (c * u + d * v) % 3)] for u, v in vectors])
        for a, b, c, d in matrices])


#: Groups with a nontrivial centre, or with classes sharing a centralizer
#: (x and x^-1 in different classes, or several classes of an abelian
#: C(x)), which PSL(2,q) and A5 never have; with their centralizer counts
#: by the brute-force definition.
SHARED_CENTRALIZER_GROUPS = {
    "D8": (lambda: generated(4, [(0, 1, 2, 3)], [(0, 2)]), 4),
    "C4xC2": (lambda: generated(6, [(0, 1, 2, 3)], [(4, 5)]), 1),
    "S3xC2": (lambda: generated(5, [(0, 1)], [(0, 1, 2)], [(3, 4)]), 5),
    "D12": (lambda: generated(6, [(0, 1, 2, 3, 4, 5)], [(1, 5), (2, 4)]), 5),
    "S3xS3": (lambda: generated(6, [(0, 1)], [(0, 1, 2)], [(3, 4)], [(3, 4, 5)]), 25),
    "SL(2,3)": (lambda: linear_group_f3([(1, 1, 0, 1), (1, 0, 1, 1)]), 8),
    "GL(2,3)": (lambda: linear_group_f3([(1, 1, 0, 1), (1, 0, 1, 1), (2, 0, 0, 1)]), 14),
}


def c2_5():
    """The elementary abelian group C2^5 on 10 points."""
    return generated(10, *([(2 * i, 2 * i + 1)] for i in range(5)))


class TestCentralizerCount:
    def test_trivial_group(self):
        assert centralizer_count(PermGroup([Permutation.identity(2)])) == 1

    def test_s3_by_hand(self):
        # C(id) = S3; each transposition centralizes only itself and id
        # (3 subgroups); both 3-cycles share one centralizer: 5 in total
        assert centralizer_count(symmetric_group(3)) == 5

    def test_same_count_on_relabelled_points(self):
        # another labelling gives other element tuples, so another chain,
        # other draws and other C(x) generators; the count is the group's
        g = psl_group(2, 7)
        other = relabelled(g, random.Random(7))
        assert group_elements(other) != group_elements(g)
        assert centralizer_count(other) == centralizer_count(g) == 79

    def test_cap(self):
        with pytest.raises(GroupTooLargeError, match="exceeds cap 10"):
            centralizer_count(alternating_group(5), cap=10)

    @pytest.mark.parametrize("group_builder, expected", [
        (lambda: alternating_group(5), 22),
        (lambda: psl_group(2, 7), 79),
        (lambda: psl_group(2, 11), 189),
        (lambda: psl_group(2, 13), 275),
        (m11_group, 2081),
        (lambda: default_catalog().entry("PSL(3,3)").group(), 1237),
        (lambda: default_catalog().entry("U3(3)").group(), 1185),
    ])
    def test_known_counts(self, group_builder, expected):
        assert centralizer_count(group_builder()) == expected

    def test_repeated_and_identity_generators(self):
        g = psl_group(2, 7)
        assert centralizer_count(padded(g)) == centralizer_count(g) == 79

    @pytest.mark.parametrize("group_builder", [
        lambda: symmetric_group(4),
        lambda: alternating_group(5),
        lambda: psl_group(2, 7),
        *(builder for builder, _ in SHARED_CENTRALIZER_GROUPS.values()),
    ])
    def test_matches_brute_force_definition(self, group_builder):
        group = group_builder()
        elems = brute_force_elements(group)
        centralizers = {frozenset(g for g in elems if g * x == x * g) for x in elems}
        assert centralizer_count(group) == len(centralizers)

    @pytest.mark.parametrize("name", SHARED_CENTRALIZER_GROUPS)
    def test_counts_with_a_centre_or_shared_centralizers(self, name):
        builder, expected = SHARED_CENTRALIZER_GROUPS[name]
        assert centralizer_count(builder()) == expected

    @pytest.mark.parametrize("name", [e.name for e in default_catalog().entries(max_order=25_920)])
    def test_sampled_terms_equal_the_walk_on_catalog(self, catalog, name):
        assert_routes_agree(catalog.entry(name).group())

    @pytest.mark.parametrize("build", [
        *(builder for builder, _ in SHARED_CENTRALIZER_GROUPS.values()), c2_5,
    ], ids=[*SHARED_CENTRALIZER_GROUPS, "C2^5"])
    def test_sampled_terms_equal_the_walk(self, build):
        assert_routes_agree(build())

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(st.sampled_from(["PSL(2,7)", "A5", "S3xS3", "D12", "GL(2,3)"]), st.integers(0, 2 ** 32))
    def test_sampled_terms_equal_the_walk_on_relabellings(self, name, seed):
        builders = {"PSL(2,7)": lambda: psl_group(2, 7), "A5": lambda: alternating_group(5),
                    **{n: SHARED_CENTRALIZER_GROUPS[n][0] for n in ("S3xS3", "D12", "GL(2,3)")}}
        assert_routes_agree(relabelled(builders[name](), random.Random(seed)))

    def test_abelian_group_falls_back_to_the_walk(self, monkeypatch, class_walks):
        # every class has size 1: the generators commute, so the walk answers
        # without the sampler, which could only run to its budget
        forbid(monkeypatch, invariants, "_sampled_class_sizes", "ran the sampler")
        assert centralizer_count(c2_5()) == 1
        assert len(class_walks) == 1

    @pytest.mark.parametrize("build, expected, searches",
                             [(lambda: d100(), 52, 14), (lambda: c2_6_x_s3(), 5, 63)],
                             ids=["D100", "C2^6xS3"])
    def test_counts_from_the_walks_class_table(self, monkeypatch, class_walks, build, expected,
                                               searches):
        # many classes of one cycle type trip the sampler's budget: one walk
        # gives the class table, and B(x) comes from searched centralisers:
        # the sampler's searches before its budget trips, then one per
        # distinct B(x) and per |C(z)| that neither the table nor a walked
        # representative gives (D100's 49 rotation classes share one C(x))
        group = build()
        calls = spy(monkeypatch, invariants, "_centralizer")
        assert centralizer_count(group) == expected
        assert len(class_walks) == 1
        assert len(calls) == searches
        elems = brute_force_elements(group)
        assert len({frozenset(g for g in elems if g * x == x * g) for x in elems}) == expected

    @pytest.mark.parametrize("group_builder, cap, expected, searches", [
        (lambda: psl_group(2, 11), DEFAULT_CAP, 189, 5),
        (lambda: alternating_group(9), DEFAULT_CAP, 51_914, 16),  # the walk's value
        (lambda: alternating_group(10), 2_000_000, 373_754, 22),  # checked once against the walk
    ])
    def test_counts_without_listing_the_group(self, monkeypatch, group_builder, cap, expected,
                                              searches):
        # the count from the sampler's records, one _centralizer search per
        # class or rational class found, and the B(x) searches
        forbid(monkeypatch, invariants, "_classes", "listed the group")
        calls = spy(monkeypatch, invariants, "_centralizer")
        assert centralizer_count(group_builder(), cap) == expected
        assert len(calls) == searches

    def test_a_centraliser_listed_short_of_its_order_raises(self, monkeypatch):
        # C(x) listed from too few generators disagrees with its search's |C(x)|
        def generators_dropped(real, *args):
            order, cent = real(*args)
            del cent.elements[1:]
            return order, cent
        wrap(monkeypatch, invariants, "_centralizer", generators_dropped)
        with pytest.raises(RuntimeError, match=r"^C\(x\) lists \d+ elements, its search gave \d+$"):
            centralizer_count(psl_group(2, 11))

    def test_a_record_that_disagrees_with_its_b_raises(self):
        # PSL(2,11)'s two classes of order 5, of y and y^2, share C(y); a
        # record of y^2 planted with twice |C(y)| lies in the B(y) of the first
        group = psl_group(2, 11)
        table = {}
        invariants._sampled_class_sizes(group.bsgs, invariants._Budget(10 ** 9), table)
        same = next(same for same in table.values() if len(same) == 2)
        x, count, cent = same[1]
        same[1] = (x, 2 * count, cent)
        with pytest.raises(RuntimeError, match=rf"^a record gives \|C\(x\)\| = {2 * count},"
                                               rf" the B\(y\) that holds x {count}$"):
            invariants._centralizer_terms(group.bsgs, table)

    def test_a_count_that_is_not_a_whole_number_raises(self, monkeypatch):
        # an impossible term, one class whose element shares C(x) with one
        # other, adds half a centraliser
        wrap(monkeypatch, invariants, "_centralizer_terms",
             lambda real, bsgs, table: real(bsgs, table) + [(1, 2)])
        with pytest.raises(RuntimeError,
                           match=r"^centralizers counted \d+/\d+ times, not a whole number$"):
            centralizer_count(psl_group(2, 11))


def walked_centralizer_terms(group):
    """The reference terms (|x^G|, |B(x)|), one per class of the walk, which
    gives every element's class size: C(x) is every element that commutes
    with the first member x of a non-central class, and B(x) the members of
    C(x) whose class has the size of x's and that commute with all of C(x)."""
    classes = invariants._classes(group, DEFAULT_CAP)
    class_size = {z: len(members) for members in classes for z in members}
    central = sum(len(members) == 1 for members in classes)
    terms = []
    for members in classes:
        x, size = members[0], len(members)
        if size == 1:  # C(x) = G, so B(x) = Z(G)
            terms.append((1, central))
            continue
        # most g already fail to commute with x at point 0, tested first
        x0 = x[0]
        cent = [g for g in class_size
                if g[x0] == x[g[0]] and perm._compose(g, x) == perm._compose(x, g)]
        shared = sum(all(perm._compose(z, g) == perm._compose(g, z) for g in cent)
                     for z in cent if class_size[z] == size)
        terms.append((size, shared))
    return terms


def assert_routes_agree(group):
    """The terms (|x^G|, |B(x)|) of the sampler's class table, with a budget
    that never trips, and of the walk's class table are the reference's,
    class for class."""
    sampled = {}
    invariants._sampled_class_sizes(group.bsgs, invariants._Budget(10 ** 9), sampled)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(invariants, "_walk_budget", lambda _group: invariants._Budget(0))
        walked = invariants._class_table(group, DEFAULT_CAP)
    assert all(cent is None for same in walked.values() for _, _, cent in same)
    expected = sorted(walked_centralizer_terms(group))
    for table in (sampled, walked):
        assert sorted(invariants._centralizer_terms(group.bsgs, table)) == expected


# -- the sampled path against independent routes ------------------------------

def enumerated_profile(group):
    """The profile built from the enumeration path's conjugation orbits."""
    sizes = [c.size for c in conjugacy_classes(group)]
    return invariants._profile_from_sizes(group.order(), sizes)


def relabelled(group, rng):
    """The same group on shuffled point labels, generators in shuffled order."""
    labels = list(range(group.degree))
    rng.shuffle(labels)
    gens = []
    for g in group.generators:
        images = [0] * group.degree
        for i, j in enumerate(g.images):
            images[labels[i]] = labels[j]
        gens.append(Permutation(images))
    rng.shuffle(gens)
    return PermGroup(gens)


def test_sampled_profile_matches_enumeration_on_catalog(catalog):
    entries = [e for e in catalog.entries() if e.expected_order <= DEFAULT_CAP]
    assert len(entries) == 16
    for entry in entries:
        group = entry.group()
        assert profile(group).as_dict() == enumerated_profile(group).as_dict(), entry.name


def sampler_meets_the_walk(group, routes):
    """The check of each fuzz example: the sampler's class sizes, its
    budget never tripping, are the walk's, and if ``routes`` its terms
    (|x^G|, |B(x)|) are the reference's.  test_defects.py replaces it to
    run the sampler under planted defects on the same examples."""
    assert sampled_class_sizes(group) == walked_class_sizes(group)
    if routes:
        assert_routes_agree(group)


# Subgroups of S_k wr S_m and S_a x S_b, with the centres, many classes
# per cycle type and intransitive or imprimitive actions the catalog has
# few of.
@settings(derandomize=True, max_examples=50, deadline=None)
@given(wreath_or_product_elements())
def test_sampled_class_sizes_equal_the_walk_on_random_groups(elements):
    sampler_meets_the_walk(PermGroup(elements), False)


@pytest.mark.slow
@settings(derandomize=True, max_examples=1000, deadline=None)
@given(wreath_or_product_elements())
def test_sampled_class_sizes_equal_the_walk_on_1000_random_groups(elements):
    sampler_meets_the_walk(PermGroup(elements), False)


# Subgroups of products of catalog groups, of order up to 28 224; the
# terms only up to order 10 080, as the reference's take time quadratic
# in |G|.
@settings(derandomize=True, max_examples=20, deadline=None)
@given(catalog_product_elements())
def test_sampled_class_sizes_equal_the_walk_on_catalog_products(elements):
    group = PermGroup(elements)
    sampler_meets_the_walk(group, group.order() <= 10_080)


@pytest.mark.parametrize("name", [*(f"A{n}" for n in range(5, 13)),
                                  *(f"S{n}" for n in range(3, 9)),
                                  *(pytest.param(name, marks=pytest.mark.slow)
                                    for name in ("A13", "S9", "S10"))])
def test_cycle_type_formula(monkeypatch, step_summary, name):
    # A_n and S_n on n points, and a copy on shuffled points: every class
    # size is the formula's, and a draw is tested for conjugacy only if its
    # S_n-class can split, an A_n type whose parts are odd and distinct
    n, alternating = int(name[1:]), name[0] == "A"
    group = alternating_group(n) if alternating else symmetric_group(n)
    expected = alternating_class_sizes(n) if alternating else symmetric_class_sizes(n)
    tested = spy(monkeypatch, invariants, "_conjugator")
    start = time.perf_counter()
    for copy in (group, relabelled(group, random.Random(name))):
        prof = profile(copy, cap=10 ** 10)
        assert list(prof.class_sizes) == expected
        assert prof.group_order == math.factorial(n) // (2 if alternating else 1)
    step_summary(f"{name}: {prof.class_count} classes, two labellings profiled in"
                 f" {(time.perf_counter() - start) * 1e3:.1f} ms, {len(tested)} conjugacy tests")
    assert bool(tested) == alternating
    # each x_len as cycle length -> points on such cycles
    assert all(points == length and length % 2
               for _, _, x_len, *_ in tested for length, points in Counter(x_len).items())


def test_one_class_rule_reads_the_degree(monkeypatch):
    # PSL(2,5) is A5 on 6 points, where |G| = 60 is neither 6! nor 6!/2, so
    # its draws are tested as in any group: x^2 ~ x for x of order 3 too,
    # which A5 on 5 points settles by its type (3, 1, 1)
    tested = spy(monkeypatch, invariants, "_conjugator")
    for group, orders in ((alternating_group(5), [5, 5, 5, 5]), (psl_group(2, 5), [5, 5, 5, 5, 3])):
        tested.clear()
        assert list(profile(group).class_sizes) == alternating_class_sizes(5)
        assert [math.lcm(*x_len) for _, _, x_len, *_ in tested] == orders


@pytest.mark.parametrize("shape, total", [((1, 1, 1, 2, 2, 2, 2), 2625), ((7,) * 7, 2815)],
                         ids=["involutions", "7-cycles"])
def test_understated_centralizer_overshoots_on_a7(monkeypatch, shape, total):
    # a halved |C(x)| on a type whose S_7-class is one A_7-class, whose
    # other draws are never tested, or on the 7-cycles, whose class splits,
    # still doubles a class size and overshoots the class equation
    plant_centralizer(monkeypatch, lambda count: count // 2,
                      lambda bsgs, x, x_len: tuple(sorted(x_len)) == shape)
    message = rf"^class sizes add up to {total}, group order is 2520$"
    with pytest.raises(RuntimeError, match=message):
        profile(alternating_group(7))


def test_alternating_formula_oracle_on_a5():
    assert alternating_class_sizes(5) == [1, 12, 12, 15, 20]


def test_symmetric_formula_oracle_on_s4():
    assert symmetric_class_sizes(4) == [1, 3, 6, 6, 8]


def test_psl2_formula_oracle_on_small_fields():
    # PSL(2,4) = PSL(2,5) = A5 and PSL(2,9) = A6; PSL(2,7) by hand: the
    # involutions, two classes of order 7, then the elements of order 4
    # and of order 3
    assert psl2_class_sizes(4) == psl2_class_sizes(5) == alternating_class_sizes(5)
    assert psl2_class_sizes(9) == alternating_class_sizes(6)
    assert psl2_class_sizes(7) == [1, 21, 24, 24, 42, 56]


#: The prime powers 4 <= q <= 128; PSL(2,q) for q > 64 is in the slow tier.
PSL2_FIELDS = [q for q in range(4, 129) if len(factorize(q)) == 1]


@pytest.mark.parametrize("q", [q if q <= 64 else pytest.param(q, marks=pytest.mark.slow)
                               for q in PSL2_FIELDS])
def test_psl2_class_sizes_are_the_closed_forms(q):
    # PSL(2,q) and a copy on shuffled points, most of them outside the catalog
    group = psl_group(2, q)
    expected = psl2_class_sizes(q)
    assert sum(expected) == group.order()
    for copy in (group, relabelled(group, random.Random(q))):
        assert list(profile(copy, cap=10 ** 7).class_sizes) == expected


@pytest.mark.parametrize("n, q, classes", [
    (3, 2, 6), (3, 3, 12), (4, 2, 14),
    *(pytest.param(*case, marks=pytest.mark.slow) for case in ((3, 8, 72), (4, 4, 84), (6, 2, 60))),
])
def test_psl_class_counts(n, q, classes):
    # gcd(n, q - 1) = 1, so SL(n,q) = PSL(n,q) and GL(n,q) = SL(n,q) x Z,
    # whose k(GL(n,q)) / (q - 1) classes are q^2 + q for n = 3, q(q^2 + q + 1)
    # for n = 4 and 60 for GL(6,2)
    group = psl_group(n, q)
    prof = profile(group, cap=10 ** 11)
    assert prof.class_count == classes
    assert sum(prof.class_sizes) == group.order()


@pytest.mark.parametrize("name", ["M11", "PSL(3,4)", "U4(2)"])
def test_profile_independent_of_labels_and_generator_order(catalog, name):
    group = catalog.entry(name).group()
    expected = profile(group).as_dict()
    rng = random.Random(name)
    for _ in range(2):
        assert profile(relabelled(group, rng)).as_dict() == expected


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_profile_independent_of_sampler_seed(catalog, monkeypatch, seed):
    monkeypatch.setattr(invariants, "_SAMPLER_SEED", seed)
    for name in ("PSL(2,13)", "M11", "U3(3)"):
        group = catalog.entry(name).group()
        assert profile(group).as_dict() == enumerated_profile(group).as_dict(), name


def test_small_groups_on_sampled_path():
    assert profile(PermGroup([Permutation.identity(4)])).class_sizes == (1,)
    assert profile(symmetric_group(3)).class_sizes == (1, 2, 3)
    assert profile(symmetric_group(4)).class_sizes == (1, 3, 6, 6, 8)


@pytest.mark.parametrize("compute", [profile, conjugacy_classes, centralizer_count,
                                     group_elements])
def test_one_refusal_above_the_cap(compute):
    with pytest.raises(GroupTooLargeError, match=r"^group order 60 exceeds cap 59$"):
        compute(alternating_group(5), 59)
    with pytest.raises(GroupTooLargeError, match=r"^group order 1814400 exceeds cap 250000$"):
        compute(alternating_group(10))  # the default cap


def test_profile_cap_checked_before_any_work(monkeypatch):
    for name in ("_sampled_class_sizes", "_classes"):
        forbid(monkeypatch, invariants, name, "no class work above the cap")
    with pytest.raises(GroupTooLargeError):
        profile(alternating_group(10), cap=DEFAULT_CAP)


@pytest.fixture
def class_walks(monkeypatch):
    """The arguments of every call to ``invariants._classes`` in a test."""
    return spy(monkeypatch, invariants, "_classes")


def test_elementary_abelian_group_falls_back_to_enumeration(monkeypatch, class_walks):
    # 2^10: every element is its own class, so counting centralizers by
    # backtrack would list the whole group once per class; the generators
    # commute, so the sampler is not run
    forbid(monkeypatch, invariants, "_sampled_class_sizes", "ran the sampler")
    group = PermGroup([Permutation.from_cycles(20, (2 * i, 2 * i + 1)) for i in range(10)])
    prof = profile(group)
    assert len(class_walks) == 1
    assert prof.class_sizes == (1,) * 1024
    assert prof.U == frozenset({1024})


# The padded groups give each generator twice and the identity, and the
# budget counts each distinct generator once, so the sampler gives way to
# the walk as before.  D100's sampler needs 416 work units, past 200 x 2
# but within 200 x 5, so a budget that counted the given generators would
# let padded D100 finish without the walk.
@pytest.mark.parametrize("build, sizes", [
    (c2_6_x_s3, (1,) * 64 + (2,) * 64 + (3,) * 64),
    (lambda: padded(c2_6_x_s3()), (1,) * 64 + (2,) * 64 + (3,) * 64),
    (d100, (1, 1) + (2,) * 49 + (50, 50)),
    (lambda: padded(d100()), (1, 1) + (2,) * 49 + (50, 50)),
], ids=["C2^6xS3", "C2^6xS3-padded", "D100", "D100-padded"])
def test_nonabelian_groups_fall_back_to_enumeration(class_walks, build, sizes):
    # many classes of one cycle type trip the sampler's budget
    group = build()
    prof = profile(group)
    assert len(class_walks) == 1
    assert prof.class_sizes == sizes
    assert sum(sizes) == group.order()


@pytest.mark.parametrize("factors", [
    (lambda: alternating_group(5), lambda: psl_group(2, 7)),
    (lambda: psl_group(2, 11), lambda: alternating_group(6)),
    (lambda: alternating_group(5), lambda: alternating_group(5)),
], ids=["A5xPSL(2,7)", "PSL(2,11)xA6", "A5xA5"])
def test_product_class_sizes_are_products_of_the_factors(monkeypatch, factors):
    # G x H has one class per pair of classes, a^G x b^H, of size
    # |a^G||b^H|: an exact oracle the sampler must meet without the walk,
    # also on relabelled points, where the chain and the draws differ
    groups = [build() for build in factors]
    oracle = sorted(a.size * b.size for a, b in
                    itertools.product(*(conjugacy_classes(g) for g in groups)))
    forbid(monkeypatch, invariants, "_classes", "listed the product")
    product = direct_product(*groups)
    for copy in (product, relabelled(product, random.Random(product.order()))):
        assert list(profile(copy).class_sizes) == oracle


@pytest.mark.parametrize("build", [
    lambda: alternating_group(5), lambda: psl_group(2, 7), lambda: alternating_group(6),
    lambda: psl_group(2, 11),
], ids=["A5", "PSL(2,7)", "A6", "PSL(2,11)"])
def test_wreath_class_sizes_follow_the_factor(monkeypatch, build):
    # G wr C2 has a base class per pair {a, b} of classes of G, of size
    # 2|a||b| if a != b and |a|^2 if a = b, and an outer class per class c,
    # of size |G||c|: an exact oracle the sampler must meet without the walk,
    # also on relabelled points
    group = build()
    sizes = [c.size for c in conjugacy_classes(group)]
    oracle = sorted([a * b * (1 if i == j else 2) for i, a in enumerate(sizes)
                     for j, b in enumerate(sizes) if i <= j]
                    + [group.order() * c for c in sizes])
    forbid(monkeypatch, invariants, "_classes", "listed the wreath product")
    wreath = wreath_c2(group)
    for copy in (wreath, relabelled(wreath, random.Random(wreath.order()))):
        assert list(profile(copy, cap=10 ** 6).class_sizes) == oracle


def test_a_walk_short_of_the_group_order_raises(monkeypatch):
    # a walk by too few generators lists a proper subgroup
    wrap(monkeypatch, invariants, "_walk_generators", lambda real, group: real(group)[1:])
    with pytest.raises(RuntimeError, match=r"^enumeration produced \d+ elements, BSGS order is 60$"):
        conjugacy_classes(alternating_group(5))


def test_catalog_groups_need_no_fallback(catalog, monkeypatch):
    forbid(monkeypatch, invariants, "_classes", "fell back to enumeration")
    for name in ("A5", "PSL(2,11)", "U3(3)", "A9"):
        group = catalog.entry(name).group()
        assert sum(profile(group).class_sizes) == group.order()


def conjugate(x, g):
    """g x g^-1, the y with y(g(p)) = g(x(p)) for every point p."""
    y = [0] * len(x)
    for p in range(len(x)):
        y[g[p]] = g[x[p]]
    return perm._raw(y)


# the two simple groups, and non-simple or intransitive groups where the
# centraliser search meets several orbits and blocks
CENTRALIZER_GROUPS = {
    "PSL(2,7)": lambda: psl_group(2, 7),
    "A5": lambda: alternating_group(5),
    "A5xA4": lambda: generated(9, [(0, 1, 2)], [(2, 3, 4)], [(5, 6, 7)], [(6, 7, 8)]),
    "S4xC3": lambda: generated(7, [(0, 1)], [(0, 1, 2, 3)], [(4, 5, 6)]),
    "D10": lambda: generated(5, [(0, 1, 2, 3, 4)], [(1, 4), (2, 3)]),
    "diagonal A5": lambda: generated(10, [(0, 1, 2), (5, 6, 7)], [(2, 3, 4), (7, 8, 9)]),
    "C2 wr S3": lambda: generated(6, [(0, 1)], [(0, 2), (1, 3)], [(0, 2, 4), (1, 3, 5)]),
}


def check_centralizer(group, x, order, cent):
    """The elements ``_centralizer`` found for x lie in the group, commute
    with x and generate a group of the claimed order, and the orbit labels
    grown one element at a time equal those of a fresh orbit walk; returns
    how many of the labels joined more than one element."""
    gens = cent.elements
    identity = tuple(range(group.degree))
    for g in gens:
        assert tuple(group.bsgs.sift(g)) == identity  # g lies in the group
        assert perm._compose(g, x) == perm._compose(x, g)
    assert perm._schreier_sims(gens, group.degree).order() == order
    subsets = [*cent._labels, tuple(range(len(gens)))]
    for subset in subsets:
        assert list(cent.labels(subset)) == orbit_labels(group.degree,
                                                         [gens[i] for i in subset])
    return sum(len(subset) > 1 for subset in subsets)


@pytest.mark.parametrize("name", CENTRALIZER_GROUPS)
def test_centralizer_matches_brute_force(name):
    group = CENTRALIZER_GROUPS[name]()
    elems = [perm._raw(g.images) for g in brute_force_elements(group)]
    budget = invariants._Budget(10 ** 9)
    for x in elems:
        order, cent = invariants._centralizer(group.bsgs, x, invariants._cycle_lengths(x),
                                              budget)
        assert order == sum(perm._compose(g, x) == perm._compose(x, g) for g in elems)
        check_centralizer(group, x, order, cent)


@pytest.mark.parametrize("name", CENTRALIZER_GROUPS)
def test_conjugator_counts_match_brute_force(name):
    # x ~ y iff some g conjugates x to y, and then the conjugators are a
    # coset of C(x): each level may try every point, or one point per
    # orbit of the elements of C(y) that fix the images chosen so far
    group = CENTRALIZER_GROUPS[name]()
    elems = sorted(perm._raw(g.images) for g in brute_force_elements(group))
    bsgs = group.bsgs
    budget = invariants._Budget(10 ** 9)
    lengths = {x: invariants._cycle_lengths(x) for x in elems}
    cents = {y: invariants._centralizer(bsgs, y, lengths[y], budget)[1] for y in elems}
    none_known = {y: invariants._Commuting(group.degree, y, lengths[y]) for y in elems}
    for record in none_known.values():
        record.elements.clear()  # not even y itself
    nodes = {which: invariants._Budget(10 ** 9) for which in ("none", "C(y)")}
    seen = Counter()
    for x in [elems[0]] + random.Random(0).sample(elems, 6):  # the identity first
        counts = Counter(conjugate(x, g) for g in elems)
        order = invariants._centralizer(bsgs, x, lengths[x], budget)[0]
        for y in elems:
            for cent, nodes_used in ((none_known[y], nodes["none"]), (cents[y], nodes["C(y)"])):
                g_inv = invariants._conjugator(bsgs, x, lengths[x], y, cent, nodes_used)
                assert (g_inv is not None) == (counts[y] > 0)
                if g_inv is not None:
                    assert conjugate(y, g_inv) == x
            assert counts[y] in (0, order)
            seen[counts[y] > 0] += 1
    assert seen[True] and seen[False]  # conjugate and non-conjugate pairs
    assert nodes["C(y)"].work < nodes["none"].work  # the known centraliser prunes


def test_profile_never_inverts(monkeypatch):
    group = psl_group(2, 11)
    group.order()  # builds the chain
    for owner in (perm, invariants):  # the one definition, and the class walk's import of it
        forbid(monkeypatch, owner, "_inverse", "a permutation was inverted")
    assert profile(group).U == {1, 55, 120, 220, 264}


def test_a10_profile_memory_stays_small():
    group = alternating_group(10)
    group.order()  # builds the chain
    tracemalloc.start()
    try:
        profile(group, cap=2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_class_sizes_match_sympy(catalog):
    sympy = pytest.importorskip("sympy.combinatorics")
    groups = [(e.name, e.group()) for e in catalog.entries() if e.expected_order <= 10 ** 4]
    groups.append(("S5", symmetric_group(5)))
    for name, group in groups:
        other = sympy.PermutationGroup(
            [sympy.Permutation(list(g.images)) for g in group.generators])
        sizes = sorted(len(c) for c in other.conjugacy_classes())
        assert list(profile(group).class_sizes) == sizes, name


def frobenius_failures(order, classes):
    """The divisors d of ``order`` for which the number of x with x^d = 1 is
    not a multiple of d, the classes given as (element order, class size);
    by Frobenius's theorem there is none."""
    divisors = [math.prod(powers) for powers in itertools.product(
        *([p ** i for i in range(e + 1)] for p, e in factorize(order).items()))]
    return sorted(d for d in divisors if sum(n for m, n in classes if d % m == 0) % d)


def test_frobenius_counts_of_solutions_of_x_to_the_d(catalog):
    # a representative's order is the lcm of its cycle lengths, the type
    # that keys its record, and its class has |G|/|C(x)| elements
    for name in catalog.names():
        group = catalog.get(name)
        order = group.order()
        classes = [(math.lcm(*cycle_type), order // count) for cycle_type, same in
                   invariants._class_table(group, 2_000_000).items() for _, count, _ in same]
        assert sum(n for _, n in classes) == order, name
        assert frobenius_failures(order, classes) == [], name
        if name == "PSL(2,11)":
            psl_2_11 = classes
    # swapping the sizes of the involution class (55) and one class of order
    # 5 (132) keeps the sum |G|, but then 133 elements have x^2 = 1
    involutions, fives = psl_2_11.index((2, 55)), psl_2_11.index((5, 132))
    psl_2_11[involutions], psl_2_11[fives] = (2, 132), (5, 55)
    assert frobenius_failures(660, psl_2_11) == [2, 4, 5, 6, 12, 15, 22, 44, 55, 66, 132, 165]


# -- one centraliser search per rational class -----------------------------------

def rational_class_count(group):
    """Classes up to coprime powers, by naive closure: x and y are in one
    rational class iff their coprime powers meet the same classes."""
    gens = [(g, g.inverse()) for g in group.generators]
    class_of, reps = {}, []
    for x in brute_force_elements(group):
        if x in class_of:
            continue
        class_of[x], frontier = len(reps), [x]
        while frontier:  # the class of x, closed under conjugation by generators
            z = frontier.pop()
            for g, ginv in gens:
                y = ginv * z * g
                if y not in class_of:
                    class_of[y] = len(reps)
                    frontier.append(y)
        reps.append(x)
    rational = set()
    for x in reps:
        m, power, classes = x.order(), x, set()
        for k in range(1, m + 1):
            if math.gcd(k, m) == 1:
                classes.add(class_of[power])
            power = power * x
        rational.add(frozenset(classes))
    return len(rational)


@pytest.mark.parametrize("name, expected", [("U3(3)", 10), ("PSL(3,4)", 8)])
def test_one_class_size_per_rational_class(catalog, monkeypatch, name, expected):
    # the coprime powers of a new representative get their classes from
    # conjugacy tests against it, with no centraliser of their own
    group = catalog.entry(name).group()
    assert rational_class_count(group) == expected
    searches, pruning = spy(monkeypatch, invariants, "_centralizer"), []

    # every backtrack search, the conjugacy tests' and the centraliser
    # levels', is set up here; the target's record as the search starts
    def pruned(real, bsgs, x, x_len, y, cent, *args):
        pruning.append(len(cent.elements))
        return real(bsgs, x, x_len, y, cent, *args)
    wrap(monkeypatch, invariants, "_conjugacy_search", pruned)
    assert sum(profile(group).class_sizes) == group.order()
    # the identity needs none
    searched = [x for _, x, *_ in searches]
    assert len(searched) == len(set(searched)) == expected - 1
    # every conjugacy test is pruned by elements of the target's centraliser
    assert pruning and min(pruning) >= 1


@pytest.mark.parametrize("name", ["U3(3)", "PSL(3,4)", "A10"])
def test_power_kernel_equals_exhaustive_tests(catalog, monkeypatch, name):
    # K = {k coprime to m : x^k ~ x}, built from cosets, equals the set of
    # every coprime k whose conjugacy test succeeds
    group = alternating_group(10) if name == "A10" else catalog.entry(name).group()
    kernels = []

    def recorded(real, bsgs, powers, lengths, cent, budget):
        kernels.append((bsgs, powers, lengths, cent, real(bsgs, powers, lengths, cent, budget)))
        return kernels[-1][-1]
    wrap(monkeypatch, invariants, "_power_kernel", recorded)
    profile(group, cap=2_000_000)
    assert kernels
    budget = invariants._Budget(10 ** 9)
    for bsgs, powers, lengths, cent, kernel in kernels:
        m = len(powers)
        assert kernel == {k for k in range(1, m) if math.gcd(k, m) == 1 and invariants._conjugator(
            bsgs, powers[k], lengths, powers[1], cent, budget) is not None}
    # some kernel leaves out a unit, so a negative test's coset was used,
    # and some is larger than {1, m - 1}, so one was closed
    units = [sum(math.gcd(k, len(powers)) == 1 for k in range(1, len(powers)))
             for _, powers, *_ in kernels]
    assert any(len(kernel) < n for (*_, kernel), n in zip(kernels, units))
    assert any(len(kernel) > 2 for *_, kernel in kernels)


def test_a10_power_kernel_tests(monkeypatch):
    # a kernel test conjugates a coprime power of a new representative to
    # it; testing every coprime power took 60 of them, and testing the
    # types whose S_n-class cannot split in A_n as well took 32
    conjugacy_tests, kernel_tests = spy(monkeypatch, invariants, "_conjugator"), []

    def kernel(real, *args):  # the conjugacy tests made inside each kernel
        before = len(conjugacy_tests)
        found = real(*args)
        kernel_tests.append(len(conjugacy_tests) - before)
        return found
    wrap(monkeypatch, invariants, "_power_kernel", kernel)
    assert list(profile(alternating_group(10), cap=2_000_000).class_sizes) == \
        alternating_class_sizes(10)
    assert sum(kernel_tests) == 7


def test_a10_profile_work(monkeypatch):
    # search nodes and draws of the sampled A10 profile: 7 706 with
    # leaf-counting searches and bounded orbit walks, 1 135 with a
    # conjugacy search for every draw of a type whose class cannot split
    budgets = []

    def recorded(real, limit):
        budgets.append(real(limit))
        return budgets[-1]
    wrap(monkeypatch, invariants, "_Budget", recorded)
    assert list(profile(alternating_group(10), cap=2_000_000).class_sizes) == \
        alternating_class_sizes(10)
    assert len(budgets) == 1 and budgets[0].work <= 674


def test_psl_3_4_profile_compositions(monkeypatch):
    # a child refuted by its orbit labels is never composed: the search
    # composes only the children it enters, the forced levels and the leaf
    # tests (composing every child took 2 149); the 19 grown sets of orbit
    # labels gather twice each in perm._join_orbits, which is not counted
    group = psl_group(3, 4)
    group.order()  # builds the chain
    calls = spy(monkeypatch, invariants, "_compose")
    assert profile(group).class_count == 10
    assert len(calls) == 597


def test_profile_leaves_no_cyclic_garbage():
    # every search frees its tables when it returns, not at a GC pass
    group = psl_group(3, 4)
    group.order()  # builds the chain
    gc.collect()
    gc.disable()
    try:
        profile(group)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["A5", "PSL(2,11)"])
def test_overstated_centralizer_raises(catalog, monkeypatch, name):
    # |C(x)| doubled for elements of order 5 leaves the class equation open
    # until the budget trips; the enumeration then has no class of the
    # sampled size |G|/(2 |C(x)|), so the profile and the centraliser count
    # raise instead of answering
    plant_centralizer(monkeypatch, lambda order: 2 * order,
                      lambda bsgs, x, x_len: math.lcm(*x_len) == 5)
    group = catalog.entry(name).group()
    for compute in (profile, centralizer_count):
        with pytest.raises(RuntimeError, match="no enumerated class has the sampled sizes"):
            compute(group)


@pytest.mark.parametrize("name, total, order", [("A5", 75, 60), ("PSL(2,11)", 715, 660)])
def test_understated_centralizer_overshoots_the_class_equation(catalog, monkeypatch, name,
                                                               total, order):
    # |C(x)| halved for the involutions doubles their class size, so the
    # sampled sizes add up to more than |G| and both routes raise
    plant_centralizer(monkeypatch, lambda count: count // 2,
                      lambda bsgs, x, x_len: math.lcm(*x_len) == 2)
    group = catalog.entry(name).group()
    message = rf"^class sizes add up to {total}, group order is {order}$"
    with pytest.raises(RuntimeError, match=message):
        profile(group)
    with pytest.raises(RuntimeError, match=message):
        centralizer_count(group)


@pytest.mark.parametrize("name", ["M11", "PSL(3,4)", "U4(2)", "A10"])
def test_every_sampled_centralizer_is_checked(catalog, monkeypatch, name):
    # every C(x) the sampler finds passes check_centralizer
    group = alternating_group(10) if name == "A10" else catalog.entry(name).group()
    found = []

    def recorded(real, bsgs, x, *args):
        found.append((x, *real(bsgs, x, *args)))
        return found[-1][1:]
    wrap(monkeypatch, invariants, "_centralizer", recorded)
    profile(group, cap=2_000_000)
    assert found
    # some labels joined the orbits of more than one element
    assert sum(check_centralizer(group, *args) for args in found)
