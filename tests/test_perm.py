import itertools
import math
import random
import statistics
import time

import pytest

from usets import perm
from usets.invariants import conjugacy_classes, profile
from usets.perm import GroupTooLargeError, PermGroup, Permutation
from usets.construct import alternating_group, classical_order, psl_group

from helpers import (
    CHAIN_GROUPS,
    chain_digest,
    forbid,
    generated,
    group_elements,
    orbit_labels,
    spy,
    symmetric_group,
    wrap,
)


class TestCompose:
    def test_identity_first(self):
        a = Permutation.from_cycles(5, (0, 1, 2))
        assert Permutation.identity(5) * a == a

    def test_involution_squares_to_identity(self):
        a = Permutation.from_cycles(3, (0, 1))
        assert a * a == Permutation.identity(3)

    def test_convention_left_factor_first(self):
        # hand evaluation: result[i] = b[a[i]] gives 0->2, 1->0, 2->1;
        # the opposite convention would give 0->1, 1->2, 2->0
        a, b = Permutation.from_cycles(3, (0, 1)), Permutation.from_cycles(3, (1, 2))
        assert (a * b).images == (2, 0, 1)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            Permutation.from_cycles(3, (0, 1)) * Permutation.from_cycles(4, (0, 1))

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_degrees_below_two(self, degree):
        # the tuple gather needs at least two indices; these degrees are
        # bytes inside, whose translate needs none
        ident = Permutation(range(degree))
        raw = perm._raw(ident.images)
        assert tuple(perm._compose(raw, raw)) == ident.images
        assert ident * ident == ident
        group = PermGroup([ident])
        assert group.order() == 1
        assert group.contains(ident)


class TestInverse:
    def test_identity(self):
        assert Permutation.identity(4).inverse() == Permutation.identity(4)

    def test_involution(self):
        a = Permutation.from_cycles(3, (0, 1))
        assert a.inverse() == a

    def test_three_cycle(self):
        a = Permutation.from_cycles(3, (0, 1, 2))
        assert a.inverse() == Permutation.from_cycles(3, (0, 2, 1))
        assert a * a.inverse() == Permutation.identity(3)


def test_validation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 3, 1])


def test_from_cycles_rejects_bad_points():
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, (0, 3))
    with pytest.raises(ValueError):
        Permutation.from_cycles(4, (0, 1), (1, 2))


def test_group_rejects_bad_generator_lists():
    with pytest.raises(ValueError, match=r"^a group needs at least one generator$"):
        PermGroup([])
    with pytest.raises(ValueError, match=r"^generators have mixed degrees \[2, 3\]$"):
        PermGroup([[0, 1], [0, 1, 2]])


def test_cycle_string_and_order():
    p = Permutation.from_cycles(5, (0, 1), (2, 3, 4))
    assert p.cycle_string() == "(1,2)(3,4,5)"
    assert p.order() == 6
    assert Permutation.identity(3).cycle_string() == "()"
    assert Permutation.identity(3).order() == 1


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
    # perm._join_orbits: each point's smallest orbit point once h joins
    def test_full_cycle(self):
        h = Permutation.from_cycles(3, (0, 1, 2)).images
        assert perm._join_orbits(range(3), h) == (0, 0, 0)

    def test_fixed_point(self):
        h = Permutation.from_cycles(4, (0, 1)).images
        assert perm._join_orbits(range(4), h) == (0, 0, 2, 3)

    def test_s5_transitive(self):
        labels = perm._join_orbits(range(5), Permutation.from_cycles(5, (0, 1)).images)
        h = Permutation.from_cycles(5, (0, 1, 2, 3, 4)).images
        assert perm._join_orbits(labels, h) == (0,) * 5

    def test_joined_orbit_takes_its_smallest_point(self):
        # (3 4) then (1 4) and (0 5)(2 3): orbits {0,5} and {1,2,3,4}
        labels = perm._join_orbits(range(6), Permutation.from_cycles(6, (3, 4)).images)
        labels = perm._join_orbits(labels, Permutation.from_cycles(6, (1, 4)).images)
        assert labels == (0, 1, 2, 1, 1, 5)
        h = Permutation.from_cycles(6, (0, 5), (2, 3)).images
        assert perm._join_orbits(labels, h) == (0, 1, 1, 1, 1, 0)

    @pytest.mark.parametrize("group", [lambda: psl_group(3, 4), lambda: alternating_group(9)],
                             ids=["PSL(3,4)", "A9"])
    def test_chain_levels_match_a_breadth_first_walk(self, group):
        bsgs = group().bsgs
        gens = bsgs._level_gens
        assert len(bsgs.orbit_labels) == len(bsgs.base) + 1
        for i, labels in enumerate(bsgs.orbit_labels):
            assert labels == orbit_labels(bsgs.degree, [g for lvl in gens[i:] for g in lvl])


class TestBSGS:
    def test_s3_order(self):
        g = generated(3, [(0, 1)], [(0, 1, 2)])
        assert g.order() == 6

    def test_a5_order_matches_factorial_formula(self):
        assert alternating_group(5).order() == math.factorial(5) // 2

    def test_orbit_product_is_order(self):
        g = alternating_group(6)
        bsgs = g.bsgs
        prod = math.prod(len(orbit) for orbit in bsgs.inverses)
        assert prod == len(group_elements(g)) == 360

    def test_original_generators_sift_trivially(self):
        g = alternating_group(7)
        for gen in g.generators:
            assert tuple(g.bsgs.sift(gen.raw)) == tuple(range(7))

    def test_basic_orbit_sizes_divide_order(self):
        g = generated(6, [(0, 1, 2, 3)], [(3, 4, 5)])
        order = g.order()
        for orbit in g.bsgs.inverses:
            assert order % len(orbit) == 0

    def test_transversal_representatives(self):
        g = alternating_group(5)
        bsgs = g.bsgs
        for level, pt in enumerate(bsgs.base):
            for gamma, u, uinv in zip(bsgs.inverses[level], bsgs.transversals[level],
                                      bsgs.inverses[level].values()):
                assert u[pt] == gamma and uinv[gamma] == pt

    def test_trivial_group(self):
        g = PermGroup([Permutation.identity(4)])
        assert g.order() == 1
        assert group_elements(g) == {(0, 1, 2, 3)}


# sha256 of (base, strong generators in order, every transversal element in
# order) for every catalog group and for the groups the construct-bsgs
# benchmark builds.  profile() draws its random elements from these
# transversals in this order, so the digests also fix what it samples.
CATALOG_CHAIN_DIGESTS = {
    "A5": "61ef5a9ba8326895e12a572633cdc01d3cf99cc69b1e0233d89d19f5eaf4d030",
    "A6": "768f6125d48271f201af9a81fb51a076232054610f2e74ac9275b82ba92d748a",
    "A9": "2890549758e8226502d91127b8546c8e7fed041f60c60dcaf317db4b3e2ad3d6",
    "A10": "d9ff46b65b19cb36235609dadddc19a9a75fb64f8a9e5a6cfae94b2e9d7945bb",
    "M11": "9fa09ce58a5057b826265530f2ad19963a412ff04e4c9cf9959818c36c9ea8d9",
    "PSL(2,4)": "964d36fa365d2e7458a4ad8224a9e64373fb1ce483530e2685bdd675263fd6e7",
    "PSL(2,5)": "41183470de04fc76391a0308072c434e68bd4c2d1e224de4051367fea3dec5f3",
    "PSL(2,7)": "70d3fb31954360972dfc15643d70286d727e306eb473795610bec5432591c6d1",
    "PSL(2,8)": "77ff41df2cc7020238d2a856144bf89297f5d825a17b3b4c2e3425d867a8dc9a",
    "PSL(2,9)": "fe792e3f1f1a8e9ce87e9ffe51b6e26ef8b30b7a5f6bbae731beb1884da2b018",
    "PSL(2,11)": "83bc8adac6215a7eb4cd53667ab0f1dab6f70eec40cfb043866fe0642e177c8d",
    "PSL(2,13)": "a36290979e6a0d9606edc72f710acb34214c74b3b7dc24761675d4d614b9627d",
    "PSL(2,17)": "24b1c72a80a24ef017b469152a69a9e02dd2c769a851ff3f63d4cebb918113a5",
    "PSL(3,3)": "428a2a7f6ebbf78a3119d67a24abda129fc4aa669007cc79087d86d38ca9f527",
    "PSL(3,4)": "f0defc0a8cddf5abfc3c69498518779c65e4109b86fafebf3c66c62c708230f2",
    "U3(3)": "2a85d983f2df6ac47f9ac6033b5c7fa91fa7dc650738469c1ebdacd5aff29d49",
    "U4(2)": "0a94cd0cfdfb87f6a30e87583ab15434608d8ef62a73ad63a2f4a72a648bbe29",
}
BUILT_CHAIN_DIGESTS = {
    ("PSL", 2, 19): "8ea8a8e76d2f4f6e15b4857ecd021c62067f8d6c02fe38889b834a8e2212ee24",
    ("PSL", 3, 4): "f0defc0a8cddf5abfc3c69498518779c65e4109b86fafebf3c66c62c708230f2",
    ("PSL", 2, 25): "7626307e84d0cdab1927f5194436563bd52f4df5863d82e478fa0d9a6a59557c",
    ("PSL", 3, 5): "1ce23680e65f55f7b2b323e406f7c8df3709a61e7e5cc8771acbf02dea740ddf",
    ("PSL", 5, 2): "c9a35c7823b822aa05b148d37488ef87b03efa720c42b4d1c1ff0f4be0626c59",
    ("PSL", 4, 3): "abc5673c4c00c9ba4379375ed6c821651a55e7afedeeb431c6323db67b2581d1",
    ("PSL", 2, 47): "1b40ebe870a62ce55661c78904206344b411ed879801c3cc5724f53b35d72826",
    ("PSL", 3, 7): "3f9df8a55756857ee7bfdc3c8aa48918787a4d3414940c10268888ef6ae9362a",
    ("PSL", 6, 2): "1f1fe8d65ef3d03410649cb586ef05d5ce0166360c8f16e164903c8bc300b5a8",
    ("PSL", 3, 8): "51e8adc8a445a3b132f9104963a844cc26786809381ec6a5f352fe2201cba2d9",
    ("PSL", 2, 81): "a4104219ff3ff2ed6f9a3e22520178ac0938b9b6d9dc327151f57d4990736a87",
    ("PSL", 4, 4): "093d46f595ee55fcc2ce4892271c0277a2981edcf7e5ed8a3b5fe763013334ca",
    ("PSL", 3, 9): "c3a320b6d8663828de0039bc5cc2106e6e55fda997a8132e833cf72450f99cc7",
    ("PSL", 2, 113): "0e8bde8660771861c3365fa0e362802a5f58cce4129e11f4f5ea56db22aab374",
    ("Alt", 12): "b375200e95b4bdff03195f144fea7a47148a3fb5c2ef03378f521130722080c8",
    ("Alt", 16): "caf582b527c66bcc141f32582afa8a87b1717045ea1447b678cd91ec5da48116",
    ("Alt", 20): "dbee38c6c058c77968ed4904559493caee0186ac4ec7a7cfaf4e8724ef8fdf0b",
    ("Alt", 24): "57e19f58acfb169c2ab36bc50e47641a48941498feaef86a43f150c123453d39",
}


def test_catalog_chains_are_pinned(catalog):
    assert sorted(catalog.names()) == sorted(CATALOG_CHAIN_DIGESTS)
    for name, digest in CATALOG_CHAIN_DIGESTS.items():
        assert chain_digest(catalog.get(name)) == digest, name


#: Degrees 40-307, in the slow tier; the three above degree 256 keep
#: their chain elements as tuples.
LARGE_CHAIN_DIGESTS = {
    ("PSL", 3, 17): "1d699940f73cb23390d0239c9c0fa800067609e9b4325aad8be7e5b3876fa03d",
    ("PSL", 3, 16): "c308aa80cf67bef7bec27351903725c8ba625d151d68eabdf20ed47c3af89203",
    ("PSL", 5, 3): "a3f0a8e864821e56b679e9816a79178e8701676adedbfe3ff06a17f2a285847a",
    ("PSL", 2, 256): "df2638bc8926eb1ac08ff440fe4128a792ddee41ae6ef266d35b533d2e0b9f2d",
    ("Alt", 40): "ac61da2bcf53594eeb7bdec93e22297f6e015b047e9d46d7b06fa4d7811cb15c",
}


def spec_name(spec):
    """("PSL", 2, 19) as PSL(2,19)."""
    return f"{spec[0]}({','.join(map(str, spec[1:]))})"


@pytest.mark.parametrize("spec, digest", [
    pytest.param(spec, digest, marks=[pytest.mark.slow] if spec in LARGE_CHAIN_DIGESTS else [],
                 id=spec_name(spec))
    for spec, digest in {**BUILT_CHAIN_DIGESTS, **LARGE_CHAIN_DIGESTS}.items()])
def test_built_chains_are_pinned(monkeypatch, step_summary, spec, digest):
    # the chain stopped at |PSL(n,q)| or |A_n|, in its degree's form, and
    # sifts of words in the generators, members, and of the same words
    # times a transposition, which none of these groups holds
    group = psl_group(*spec[1:]) if spec[0] == "PSL" else alternating_group(spec[1])
    compositions, sifts = (spy(monkeypatch, perm, name) for name in ("_compose", "_sift"))
    start = time.perf_counter()
    assert group.order() == classical_order(*spec)
    build_ms = (time.perf_counter() - start) * 1e3
    monkeypatch.undo()
    assert chain_digest(group) == digest
    assert compositions and sifts  # the build calls both through the module
    bsgs, n = group.bsgs, group.degree
    form = bytes if n <= 256 else tuple
    assert all(type(u) is form for level in bsgs.transversals for u in level)
    gens, rng, latencies = [g.images for g in group.generators], random.Random(36), []
    for _ in range(24):
        word = tuple(range(n))
        for gen in rng.choices(gens, k=rng.randrange(1, 30)):
            word = tuple(gen[x] for x in word)
        a, b = rng.sample(range(n), 2)
        swapped = tuple(b if x == a else a if x == b else x for x in word)
        for images, member in ((word, True), (swapped, False)):
            p = Permutation(images)
            start = time.perf_counter()
            assert group.contains(p) is member
            latencies.append(time.perf_counter() - start)
    step_summary(f"{spec_name(spec)}: {form.__name__} chain in {build_ms:.0f} ms,"
                 f" {len(compositions)} _compose and {len(sifts)} _sift calls; contains"
                 f" median {statistics.median(latencies) * 1e6:.1f} us over {len(latencies)} calls")


def test_sifting_and_sampling_never_invert(monkeypatch):
    group = psl_group(2, 11)
    group.order()  # builds the chain
    forbid(monkeypatch, perm, "_inverse", "a permutation was inverted")
    assert group.contains(group.generators[0] * group.generators[1])
    assert not group.contains(Permutation.from_cycles(12, (0, 1)))  # PSL(2,11) has no transposition
    assert profile(group).U == {1, 55, 120, 220, 264}


def test_schreier_sims_sifts_only_changed_schreier_generators(monkeypatch):
    # sifts per chain build, those of the h_gamma included; re-sifting every
    # Schreier generator at each closure takes 400 for Alt(12) and 1057 for
    # PSL(4,3), skipping only the pairs whose representatives did not
    # change takes 190 and 826, and closing levels after the chain reaches
    # |A_12| or |PSL(4,3)| takes 190 and 701
    calls = spy(monkeypatch, perm, "_sift")
    for group, sifts in ((alternating_group(12), 153), (psl_group(4, 3), 291)):
        calls.clear()
        group.order()
        assert len(calls) == sifts


def test_schreier_sims_skips_trivial_compositions(monkeypatch):
    # compositions and inversions per chain build; composing at every sift
    # step and twice for every Schreier generator formed, with pairs skipped
    # only when their representatives did not change, takes 31 138
    # compositions for PSL(4,4) and 32 706 for Alt(24); composing every tree
    # edge again, in each rebuilt tree and in the pair loop, takes 13 718 and
    # 12 350; closing levels after the chain reaches |PSL(4,4)| or |A_24|
    # takes 12 673 and 10 721, and 4 631 and 10 032 with 446 and 288
    # inversions while each changed representative was inverted afresh;
    # inverting every given generator for the class walk as well took 46
    # and 24 inversions.  The sifts count the certificates tried as well as
    # the Schreier generators sifted, so more of either shows here.  A sift
    # translates each level it strips by the stored table, without calling
    # _compose; those strips, 1 369 and 4 510, and _compose's 3 684 and
    # 5 808 make the build's 5 053 and 10 318 translates
    groups = ((psl_group(4, 4), 3_684, 22, 954, 1_369),
              (alternating_group(24), 5_808, 22, 2_609, 4_510))
    calls = {name: spy(monkeypatch, perm, "_" + name) for name in ("compose", "inverse_table")}
    calls["sift"], calls["strip"] = [], []

    def sift(real, g, base, inverses):
        calls["sift"].append(g)
        residue = g
        for pt, inverse in zip(base, inverses):  # the levels the sift strips
            uinv = inverse.get(residue[pt])
            if uinv is None:
                break
            if residue[pt] != pt:
                calls["strip"].append(pt)
                residue = residue.translate(uinv)
        assert real(g, base, inverses) == residue
        return residue
    wrap(monkeypatch, perm, "_sift", sift)
    for group, compositions, inversions, sifts, strips in groups:
        for made in calls.values():
            made.clear()
        group.order()
        assert {name: len(made) for name, made in calls.items()} == {
            "compose": compositions, "inverse_table": inversions, "sift": sifts,
            "strip": strips}


def test_sifts_translate_by_the_stored_tables_unpadded(monkeypatch):
    # with a _TAIL that raises on every read planted around each sift of a
    # chain build, and then for good, the build, membership tests and
    # BSGS.sift all run: no sift pads a table, and the sifts strip levels
    class NoTail:
        def __getitem__(self, n):
            raise AssertionError("a sift padded a table")
    tail, stripped = perm._TAIL, []

    def sift(real, g, *chain):
        perm._TAIL = NoTail()
        try:
            residue = real(g, *chain)
        finally:
            perm._TAIL = tail
        stripped.append(residue != g)
        return residue
    wrap(monkeypatch, perm, "_sift", sift)
    group = alternating_group(12)
    assert group.order() == math.factorial(12) // 2
    assert sum(stripped) > 0
    a, b = group.generators
    word, outside = a * b * a, Permutation.from_cycles(12, (0, 1))  # A_12 has no transposition
    monkeypatch.setattr(perm, "_TAIL", NoTail())
    assert group.contains(word) and not group.contains(outside)
    assert group.bsgs.sift(word.raw) == group.bsgs.identity != group.bsgs.sift(outside.raw)


def test_schreier_sims_refuses_a_false_order_bound():
    with pytest.raises(ValueError, match=r"order 3 exceeds the bound 1$"):
        perm._schreier_sims([perm._raw((1, 2, 0))], 3, 1)
    with pytest.raises(ValueError, match=r"order 4 exceeds the bound 2$"):
        PermGroup([Permutation.from_cycles(4, (0, 1, 2, 3))], order_bound=2).order()


@pytest.mark.parametrize("gens, order", [
    ([()], 1), ([(0,)], 1), ([(0, 1)], 1), ([(1, 0)], 2), ([(0, 1), (1, 0), (0, 1)], 2),
    ([(0, 1, 2, 3, 4)] * 2, 1), ([(1, 0, 2)], 2), ([(1, 2, 0)], 3),
    ([(1, 2, 0, 3), (0, 2, 3, 1)], 12), ([(1, 0, 2, 3), (1, 2, 3, 0)], 24)])
def test_default_bound_keeps_small_and_trivial_orders(gens, order):
    # degree 0 and 1 give a bound of 1, not 1!/2 = 0; the last two groups
    # reach the default bounds |A_4| and |S_4|
    assert PermGroup(gens).order() == order


@pytest.mark.parametrize("name", sorted(CHAIN_GROUPS))
def test_sift_residue_matches_composing_at_every_level(name):
    # words in the generators are members; a member times a transposition
    # is not, since none of these primitive groups is a full symmetric group
    group = CHAIN_GROUPS[name]()
    bsgs, n = group.bsgs, group.degree
    gens = [g.images for g in group.generators]
    rng = random.Random(16)
    fixed = 0  # sift steps at a base point the element fixes

    def reference(g):
        nonlocal fixed
        for pt, inverse in zip(bsgs.base, bsgs.inverses):
            uinv = inverse.get(g[pt])
            if uinv is None:
                break
            fixed += g[pt] == pt
            g = tuple(uinv[x] for x in g)
        return g

    ident = tuple(range(n))
    assert tuple(bsgs.identity) == ident
    for _ in range(40):
        word = ident
        for gen in rng.choices(gens, k=rng.randrange(1, 30)):
            word = tuple(gen[x] for x in word)
        a, b = rng.sample(range(n), 2)
        swapped = tuple(b if x == a else a if x == b else x for x in word)
        assert tuple(bsgs.sift(perm._raw(word))) == reference(word) == ident
        assert tuple(bsgs.sift(perm._raw(swapped))) == reference(swapped) != ident
        assert group.contains(Permutation(word))
        assert not group.contains(Permutation(swapped))
    assert fixed > 0


@pytest.mark.parametrize("build", [lambda: alternating_group(6), lambda: psl_group(2, 11)],
                         ids=["A6", "PSL(2,11)"])
def test_membership_sifts_without_compose(build, monkeypatch):
    # a sift gathers each level itself: with the chain built, membership
    # answers with _compose gone, on words in the generators and on those
    # words times a transposition, which neither group holds
    group = build()
    bsgs, n = group.bsgs, group.degree
    gens = [g.images for g in group.generators]
    rng = random.Random(36)
    cases = []
    for _ in range(24):
        word = tuple(range(n))
        for gen in rng.choices(gens, k=rng.randrange(1, 20)):
            word = tuple(gen[x] for x in word)
        a, b = rng.sample(range(n), 2)
        cases.append((word, True))
        cases.append((tuple(b if x == a else a if x == b else x for x in word), False))
    forbid(monkeypatch, perm, "_compose", "a sift called _compose")
    for images, member in cases:
        assert group.contains(Permutation(images)) is member
        assert (tuple(bsgs.sift(perm._raw(images))) == tuple(range(n))) is member


class TestContains:
    def test_generators_are_members(self):
        g = alternating_group(6)
        for gen in g.generators:
            assert g.contains(gen)

    def test_transposition_not_in_cyclic_group(self):
        g = generated(3, [(0, 1, 2)])
        assert not g.contains(Permutation.from_cycles(3, (0, 1)))

    def test_random_product_stays_inside(self):
        g = alternating_group(6)
        rng = random.Random(7)
        word = Permutation.identity(6)
        for _ in range(10):
            word = word * rng.choice(g.generators)
        assert g.contains(word)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            alternating_group(5).contains(Permutation.from_cycles(4, (0, 1)))


class TestElements:
    # the group as a set of image tuples, read off the class walk
    def test_cyclic(self):
        g = generated(3, [(0, 1, 2)])
        assert group_elements(g) == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}

    def test_a5_complete_and_distinct(self):
        elems = group_elements(alternating_group(5))
        assert len(elems) == 60
        assert all(Permutation(x).order() in (1, 2, 3, 5) for x in elems)

    def test_closed_under_generators(self):
        g = alternating_group(5)
        elems = group_elements(g)
        for x in elems:
            for s in g.generators:
                assert tuple(perm._compose(perm._raw(x), perm._raw(s.images))) in elems

    def test_deterministic_and_generator_order_independent(self):
        g1 = alternating_group(5)
        g2 = PermGroup(tuple(reversed(g1.generators)))
        assert group_elements(g1) == group_elements(g2) == group_elements(g1)

    def test_too_large_error_names_order_and_limit(self):
        with pytest.raises(GroupTooLargeError, match=r"60.*10"):
            group_elements(alternating_group(5), 10)

    @pytest.mark.parametrize("group,order", [
        (symmetric_group(5), 120),
        (alternating_group(6), 360),
        (symmetric_group(6), 720),
    ])
    def test_enumeration_count_matches_bsgs_order(self, group, order):
        assert group.order() == order
        assert len(group_elements(group)) == order


# Inside the package a permutation of degree at most 256 is the bytes of
# its images and one of higher degree their tuple; the kernels give the
# same images in either form, on both sides of the switch.


def stored_table(images):
    """The form a chain stores an inverse in (:attr:`usets.perm.BSGS.inverses`):
    the images padded with the identity to point 255, as bytes up to degree
    256, so 256 of them; above it the tuple of the images."""
    return perm._raw(tuple(images) + tuple(range(len(images), 256)))


def reference_sift(g, base, inverses):
    """The sift of an image tuple, composing at every level it reaches."""
    for pt, inverse in zip(base, inverses):
        uinv = inverse.get(g[pt])
        if uinv is None:
            break
        g = tuple(uinv[x] for x in g)
    return g


def reference_cycles(images):
    """The nontrivial cycles of an image tuple, each from its smallest point."""
    seen, out = set(), []
    for start, image in enumerate(images):
        if start not in seen and image != start:
            cycle = [start]
            while images[cycle[-1]] != start:
                cycle.append(images[cycle[-1]])
            seen.update(cycle)
            out.append(tuple(cycle))
    return tuple(out)


@pytest.mark.parametrize("degree", [1, 2, 255, 256, 257, 300])
def test_kernels_match_a_tuple_reference(degree):
    rng = random.Random(degree)
    form = bytes if degree <= 256 else tuple
    ident = tuple(range(degree))
    for _ in range(10):
        a, b, c = (rng.sample(range(degree), degree) for _ in range(3))
        ra, rb = perm._raw(a), perm._raw(b)
        assert type(ra) is type(rb) is type(perm._identity(degree)) is form
        composed = perm._compose(ra, rb)
        assert type(composed) is form and tuple(composed) == tuple(b[x] for x in a)
        inverse = perm._inverse(ra)
        assert type(inverse) is form and tuple(inverse[x] for x in a) == ident
        assert perm._inverse_table(ra) == stored_table(inverse)
        assert perm._cycle_labels(ra) == orbit_labels(degree, [a])
        labels = perm._join_orbits(range(degree), ra)
        assert labels == tuple(orbit_labels(degree, [a]))
        assert perm._join_orbits(labels, rb) == tuple(orbit_labels(degree, [a, b]))
        # a made-up chain: every point but the base point maps to one of
        # a few stored permutations, the base point to the identity, except
        # on the last level, where most points have no entry and the sift
        # stops; it stores them as a chain does, as tables
        pool = [tuple(rng.sample(range(degree), degree)) for _ in range(3)]
        base = rng.sample(range(degree), min(degree, 4))
        inverses = [{**{p: rng.choice(pool) for p in (range(degree) if i < 3 else pool[0][:3])},
                     pt: ident} for i, pt in enumerate(base)]
        raw_inverses = [{k: stored_table(v) for k, v in level.items()} for level in inverses]
        for g in (a, b, c):
            residue = perm._sift(perm._raw(g), base, raw_inverses)
            assert type(residue) is form
            assert tuple(residue) == reference_sift(tuple(g), base, inverses)
        # Permutation wraps the internal form and reads out image tuples
        pa, pb = Permutation(a), Permutation(b)
        assert type(pa.raw) is form and type(pa.images) is tuple and pa.images == tuple(a)
        assert (pa * pb).images == tuple(b[x] for x in a)
        assert tuple(pa.inverse().images[x] for x in a) == ident
        cycles = reference_cycles(a)
        assert pa.cycles() == cycles
        assert pa.order() == math.lcm(*map(len, cycles))
        copy = Permutation(list(a))
        assert copy == pa and hash(copy) == hash(pa) and (copy == pb) is (a == b)


@pytest.mark.parametrize("degree", [1, 2, 255, 256])
def test_mixed_forms_raise(degree):
    # each degree has one form: a tuple where bytes belong is refused
    a = perm._raw(random.Random(degree).sample(range(degree), degree))
    for x, y in ((a, tuple(a)), (tuple(a), a)):
        with pytest.raises((TypeError, AttributeError)):
            perm._compose(x, y)
    with pytest.raises(TypeError):
        perm._inverse(tuple(a))


def padded_a5(degree):
    """A5 on the points 0-4, fixing every other point below ``degree``."""
    return PermGroup([Permutation(list(g.images) + list(range(5, degree)))
                      for g in alternating_group(5).generators])


@pytest.mark.parametrize("degree, form", [(256, bytes), (300, tuple)])
def test_a5_padded_across_the_switch_keeps_its_chain(degree, form):
    # the chain, profile, classes and memberships of A5 on 5 points, with
    # every element fixing the points the padding adds
    small, group = alternating_group(5), padded_a5(degree)
    bsgs, fixed = group.bsgs, tuple(range(5, degree))
    assert bsgs.base == small.bsgs.base
    levels = [*bsgs.transversals, *bsgs._level_gens, *(d.values() for d in bsgs.inverses)]
    assert all(type(u) is form and tuple(u[5:]) == fixed for level in levels for u in level)
    assert [[tuple(u[:5]) for u in level] for level in bsgs.transversals] == [
        [tuple(u) for u in level] for level in small.bsgs.transversals]
    assert [g.images[:5] for g in bsgs.strong_generators] == [
        g.images for g in small.bsgs.strong_generators]
    assert profile(group) == profile(small)
    classes = conjugacy_classes(group)
    assert [(c.size, c.representative.images[:5], c.element_order) for c in classes] == [
        (c.size, c.representative.images, c.element_order) for c in conjugacy_classes(small)]
    members = 0
    for images in itertools.permutations(range(5)):
        member = small.contains(Permutation(images))
        assert group.contains(Permutation(images + fixed)) is member
        members += member
    assert members == 60


@pytest.mark.parametrize("degree", [256, 300])
def test_nothing_converts_after_construction(degree, monkeypatch):
    # with every input built, in either form, no operation converts a
    # permutation to the internal form again
    small, group = alternating_group(5), padded_a5(degree)
    group.order()  # builds the chain
    a, b = group.generators  # (0 1 2) and (0 1 2 3 4)
    copy, outside = Permutation(b.images), Permutation([1, 0, *range(2, degree)])
    generators = [g.images + tuple(range(5, degree)) for g in small.bsgs.strong_generators]
    classes = [(c.size, c.representative.images + tuple(range(5, degree)), c.element_order)
               for c in conjugacy_classes(small)]
    forbid(monkeypatch, perm, "_raw", "a permutation was converted after construction")
    assert group.contains(a * b) and not group.contains(outside)
    assert (a * b).inverse() == b.inverse() * a.inverse() != a * b
    assert (a.order(), b.order(), (a * b).order()) == (3, 5, 5)
    assert (a.cycles(), b.cycles()) == (((0, 1, 2),), ((0, 1, 2, 3, 4),))
    assert copy == b and hash(copy) == hash(b) and len({a, b, copy}) == 2
    assert [g.images for g in group.bsgs.strong_generators] == generators
    assert [(c.size, c.representative.images, c.element_order)
            for c in conjugacy_classes(group)] == classes
    assert profile(group).U == {1, 15, 20, 24}


def assert_inverses_are_stored_tables(bsgs):
    """Each level's inverses are, in the order of its transversal, gamma ->
    the table of u^-1 for the u with u(base point) = gamma."""
    n = bsgs.degree
    for pt, inverse, transversal in zip(bsgs.base, bsgs.inverses, bsgs.transversals):
        tables = []
        for u in transversal:
            uinv = [0] * n
            for x, image in enumerate(u):
                uinv[image] = x
            tables.append((u[pt], stored_table(uinv)))
        assert list(inverse.items()) == tables


def test_catalog_chains_are_bytes_and_hand_out_tuples(catalog):
    for name in catalog.names():
        bsgs = catalog.get(name).bsgs
        assert bsgs.degree <= 256, name
        levels = [*bsgs.transversals, *bsgs._level_gens, *(d.values() for d in bsgs.inverses)]
        assert all(type(u) is bytes for level in levels for u in level), name
        assert_inverses_are_stored_tables(bsgs)  # 256 bytes each
        assert type(bsgs.identity) is bytes, name
        assert all(type(g.images) is tuple for g in bsgs.strong_generators), name
    classes = conjugacy_classes(catalog.get("PSL(2,11)"))
    assert all(type(c.representative.images) is tuple for c in classes)


@pytest.mark.parametrize("degree, form, length", [
    (255, bytes, 256), (256, bytes, 256), (257, tuple, 257), (300, tuple, 300)])
def test_padded_a5_stores_inverses_as_tables_up_to_degree_256(degree, form, length):
    # tables on the bytes side of the switch, the n-tuples of u^-1 above it
    bsgs = padded_a5(degree).bsgs
    assert {(type(uinv), len(uinv)) for d in bsgs.inverses for uinv in d.values()} == {
        (form, length)}
    assert_inverses_are_stored_tables(bsgs)
