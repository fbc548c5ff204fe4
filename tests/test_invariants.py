import math
import random
import tracemalloc
from collections import Counter

import pytest

from usets import invariants
from usets.construct import alternating_group, m11_group, psl_group, symmetric_group
from usets.invariants import (
    centralizer_count,
    conjugacy_classes,
    profile,
)
from usets.perm import DEFAULT_CAP, GroupTooLargeError, PermGroup, Permutation


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
    assert conjugacy_classes(base) == conjugacy_classes(shuffled)


def test_classes_independent_of_generating_set():
    # same group from a different generating set: class data must agree
    a5 = alternating_group(5)
    other = PermGroup([Permutation.from_cycles(5, (0, 1, 2)),
                       Permutation.from_cycles(5, (2, 3, 4))])
    assert other.order() == 60
    assert conjugacy_classes(a5) == conjugacy_classes(other)


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


class TestCentralizerCount:
    def test_trivial_group(self):
        assert centralizer_count(PermGroup([Permutation.identity(2)])) == 1

    def test_s3_by_hand(self):
        # C(id) = S3; each transposition centralizes only itself and id
        # (3 subgroups); both 3-cycles share one centralizer: 5 in total
        assert centralizer_count(symmetric_group(3)) == 5

    def test_deterministic_across_generator_orderings(self):
        g = psl_group(2, 7)
        reordered = PermGroup(tuple(reversed(g.generators)))
        assert centralizer_count(g) == centralizer_count(reordered)

    def test_cap(self):
        with pytest.raises(GroupTooLargeError, match="exceeds cap 10"):
            centralizer_count(alternating_group(5), cap=10)

    @pytest.mark.parametrize("group_builder, expected", [
        (lambda: alternating_group(5), 22),
        (lambda: psl_group(2, 7), 79),
        (lambda: psl_group(2, 11), 189),
        (lambda: psl_group(2, 13), 275),
        (m11_group, 2081),
    ])
    def test_known_counts(self, group_builder, expected):
        assert centralizer_count(group_builder()) == expected

    def test_repeated_and_identity_generators(self):
        g = psl_group(2, 7)
        padded = PermGroup(list(g.generators) * 2 + [Permutation.identity(g.degree)])
        assert centralizer_count(padded) == centralizer_count(g) == 79

    @pytest.mark.parametrize("group_builder", [
        lambda: symmetric_group(4),
        lambda: alternating_group(5),
        lambda: psl_group(2, 7),
    ])
    def test_matches_brute_force_definition(self, group_builder):
        group = group_builder()
        elems = brute_force_elements(group)
        centralizers = {frozenset(g for g in elems if g * x == x * g) for x in elems}
        assert centralizer_count(group) == len(centralizers)


# -- the sampled path against independent routes ------------------------------

def enumerated_profile(group):
    """The profile built from the enumeration path's conjugation orbits."""
    sizes = [c.size for c in conjugacy_classes(group)]
    return invariants._profile_from_sizes(group.order(), sizes)


def alternating_class_sizes(n):
    """Class sizes of A_n from cycle types: n!/z for each even cycle type,
    split into two halves when the parts are distinct and odd."""
    sizes = []

    def partitions(rest, largest):
        if rest == 0:
            yield []
            return
        for part in range(min(rest, largest), 0, -1):
            for tail in partitions(rest - part, part):
                yield [part] + tail

    for parts in partitions(n, n):
        if (n - len(parts)) % 2:
            continue
        z = 1
        for length, mult in Counter(parts).items():
            z *= length ** mult * math.factorial(mult)
        size = math.factorial(n) // z
        if len(set(parts)) == len(parts) and all(p % 2 for p in parts):
            sizes += [size // 2, size // 2]
        else:
            sizes.append(size)
    return sorted(sizes)


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


def test_a10_matches_cycle_type_formula():
    prof = profile(alternating_group(10), cap=2_000_000)
    assert list(prof.class_sizes) == alternating_class_sizes(10)
    assert prof.group_order == math.factorial(10) // 2


def test_alternating_formula_oracle_on_a5():
    assert alternating_class_sizes(5) == [1, 12, 12, 15, 20]


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
                                     PermGroup.elements])
def test_one_refusal_above_the_cap(compute):
    with pytest.raises(GroupTooLargeError, match=r"^group order 60 exceeds cap 59$"):
        compute(alternating_group(5), 59)
    with pytest.raises(GroupTooLargeError, match=r"^group order 1814400 exceeds cap 250000$"):
        compute(alternating_group(10))  # the default cap


def test_profile_cap_checked_before_any_work(monkeypatch):
    def unexpected(*_args, **_kwargs):
        raise AssertionError("no class work above the cap")
    monkeypatch.setattr(invariants, "_sampled_class_sizes", unexpected)
    monkeypatch.setattr(invariants, "conjugacy_classes", unexpected)
    with pytest.raises(GroupTooLargeError):
        profile(alternating_group(10), cap=DEFAULT_CAP)


def test_elementary_abelian_group_falls_back_to_enumeration(monkeypatch):
    # 2^10: every element is its own class, so counting centralizers by
    # backtrack would list the whole group once per class
    group = PermGroup([Permutation.from_cycles(20, (2 * i, 2 * i + 1)) for i in range(10)])
    calls = []
    enumerate_classes = invariants.conjugacy_classes

    def counted(*args):
        calls.append(args)
        return enumerate_classes(*args)
    monkeypatch.setattr(invariants, "conjugacy_classes", counted)
    prof = profile(group)
    assert len(calls) == 1
    assert prof.class_sizes == (1,) * 1024
    assert prof.U == frozenset({1024})


def test_catalog_groups_need_no_fallback(catalog, monkeypatch):
    def unexpected(*_args, **_kwargs):
        raise AssertionError("fell back to enumeration")
    monkeypatch.setattr(invariants, "conjugacy_classes", unexpected)
    for name in ("A5", "PSL(2,11)", "U3(3)", "A9"):
        group = catalog.entry(name).group()
        assert sum(profile(group).class_sizes) == group.order()


def conjugate(x, g):
    """g x g^-1, the y with y(g(p)) = g(x(p)) for every point p."""
    y = [0] * len(x)
    for p in range(len(x)):
        y[g[p]] = g[x[p]]
    return tuple(y)


@pytest.mark.parametrize("group_builder", [lambda: psl_group(2, 7), lambda: alternating_group(5)],
                         ids=["PSL(2,7)", "A5"])
def test_conjugator_counts_match_brute_force(group_builder):
    group = group_builder()
    elems = sorted(g.images for g in brute_force_elements(group))
    bsgs = group.bsgs
    budget = invariants._Budget(10 ** 9)
    seen = Counter()
    for x in [elems[0]] + random.Random(0).sample(elems, 6):  # the identity first
        counts = Counter(conjugate(x, g) for g in elems)
        for y in elems:
            assert invariants._conjugators(bsgs, x, y, False, budget) == counts[y]
            assert invariants._conjugators(bsgs, x, y, True, budget) == (counts[y] > 0)
            seen[counts[y] > 0] += 1
    assert seen[True] and seen[False]  # conjugate and non-conjugate pairs


def test_profile_never_inverts(monkeypatch):
    group = psl_group(2, 11)
    group.order()  # builds the chain

    def refuse(_images):
        raise AssertionError("a permutation was inverted")
    monkeypatch.setattr(invariants, "_inverse", refuse)
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
