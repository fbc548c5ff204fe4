import math

import pytest

from usets.catalog import CatalogEntry, OrderMismatchError, UnknownGroupError
from usets.construct import alternating_group
from usets.perm import GroupTooLargeError

from helpers import group_elements, spy


class TestRegistry:
    def test_a5(self, catalog):
        assert catalog.get("A5").order() == 60

    def test_u4_2_order_and_degree(self, catalog):
        group = catalog.get("U4(2)")
        assert group.order() == 25920
        assert group.degree == 40

    def test_psl_2_17(self, catalog):
        assert catalog.get("PSL(2,17)").order() == 2448

    def test_unknown_name_lists_known_groups(self, catalog):
        with pytest.raises(UnknownGroupError, match=r"A5.*PSL\(2,11\)"):
            catalog.get("M24")

    def test_aliases(self, catalog):
        assert catalog.get("L2(11)") is catalog.get("PSL(2,11)")
        assert catalog.get("psl(2,11)") is catalog.get("PSL(2,11)")
        assert catalog.get("PSU(3,3)") is catalog.get("U3(3)")
        assert catalog.get("PSU(4,2)") is catalog.get("U4(2)")
        assert catalog.get(" A5 ") is catalog.get("A5")
        assert catalog.entry("L2(7)").name == "PSL(2,7)"

    def test_memoized(self, catalog):
        assert catalog.get("A6") is catalog.get("A6")

    def test_every_entry_is_constructed(self, catalog):
        assert {e.source for e in catalog.entries()} == {"constructor"}

    def test_all_entries_order_validated(self, catalog):
        for entry in catalog.entries():
            if entry.expected_order <= 30000:
                assert entry.group().order() == entry.expected_order

    def test_catalog_rejects_entry_with_wrong_expected_order(self):
        entry = CatalogEntry(name="A5", expected_order=59, provenance="deliberately wrong",
                             builder=lambda: alternating_group(5))
        with pytest.raises(OrderMismatchError, match=r"60.*59"):
            entry.group()

    def test_a_wrong_order_is_built_once_and_raised_again(self, monkeypatch):
        entry = CatalogEntry(name="A5", expected_order=59, provenance="deliberately wrong",
                             builder=lambda: alternating_group(5))
        builds = spy(monkeypatch, entry, "builder")
        for call in (entry.group, entry.group, entry.profile):
            with pytest.raises(OrderMismatchError, match=r"^A5: built order 60, expected 59$"):
                call()
        assert len(builds) == 1


class TestFilters:
    def test_k3_members(self, catalog):
        names = [e.name for e in catalog.entries(k=3)]
        assert names == ["A5", "A6", "PSL(2,4)", "PSL(2,5)", "PSL(2,7)",
                         "PSL(2,8)", "PSL(2,9)", "PSL(2,17)", "PSL(3,3)",
                         "U3(3)", "U4(2)"]

    def test_max_order(self, catalog):
        names = [e.name for e in catalog.entries(max_order=660)]
        assert names == ["A5", "A6", "PSL(2,4)", "PSL(2,5)", "PSL(2,7)",
                         "PSL(2,8)", "PSL(2,9)", "PSL(2,11)"]

    def test_no_filter_returns_all(self, catalog):
        assert len(catalog.entries()) == 17


class TestExpectedOrderOracles:
    """Evaluate the classical order formulas independently of the stored
    numbers."""

    def test_u3_3(self, catalog):
        q = 3
        expected = q ** 3 * (q ** 2 - 1) * (q ** 3 + 1) // math.gcd(3, q + 1)
        assert expected == 6048 == catalog.entry("U3(3)").expected_order

    def test_u4_2_as_symplectic(self, catalog):
        q = 3
        expected = q ** 4 * (q ** 2 - 1) * (q ** 4 - 1) // math.gcd(2, q - 1)
        assert expected == 25920 == catalog.entry("U4(2)").expected_order

    def test_m11(self, catalog):
        assert 11 * 10 * 9 * 8 == 7920 == catalog.entry("M11").expected_order

    def test_every_entry_has_a_provenance_note(self, catalog):
        assert all(e.provenance for e in catalog.entries())


def test_entry_refusal_names_the_group(catalog):
    entry = catalog.entry("A5")
    entry.profile()  # a cached profile is refused all the same
    with pytest.raises(GroupTooLargeError, match=r"^group order 60 exceeds cap 59; "
                       r"rerun with a higher cap to include A5$"):
        entry.profile(59)


def test_orders_match_sympy(catalog):
    # a second, independent order route for every catalog group
    sympy = pytest.importorskip("sympy.combinatorics")
    for entry in catalog.entries():
        other = sympy.PermutationGroup(
            [sympy.Permutation(list(g.images)) for g in entry.group().generators])
        assert other.order() == entry.expected_order, entry.name


def test_spec_scale_enumeration(catalog):
    # the largest default-checked group enumerates comfortably below 1e5
    group = catalog.get("U4(2)")
    assert len(group_elements(group, 100_000)) == 25920
    with pytest.raises(GroupTooLargeError, match=r"25920.*100"):
        group_elements(group, 100)
