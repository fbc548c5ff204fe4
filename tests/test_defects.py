"""What the report catches: each planted defect, monkeypatched where its
caller reads it, must fail at least one row of ``run_verification`` at
the default cap, on a fresh catalog, and exactly the rows recorded here.
A change that weakens a row shows up as a diff of these lists.  Defects
planted in the sampler must be caught on a product of two groups, by the
class equation or by the product's class sizes, as recorded here, and one
that keeps the class equation by PSL(2,q)'s class sizes in closed form."""

import itertools
import math

import pytest

from usets import catalog, invariants, patterns, perm, verify
from usets.construct import alternating_group, psl_group

from helpers import direct_product, psl2_class_sizes

#: The memoised functions of :mod:`usets.patterns`, cleared around each
#: plant so that no result computed under a defect outlives it.
CACHED = [f for f in vars(patterns).values() if hasattr(f, "cache_clear")]


def split_class(sizes):
    """The largest even class split into two classes of half its size."""
    big = max(n for n in sizes if n % 2 == 0)
    rest = list(sizes)
    rest.remove(big)
    return rest + [big // 2, big // 2]


def merged_classes(sizes):
    """The two smallest nontrivial classes merged into one."""
    a, b, *rest = sorted(sizes)[1:]
    return [1, a + b, *rest]


def plant_sizes(monkeypatch, change):
    from_sizes = invariants._profile_from_sizes
    monkeypatch.setattr(invariants, "_profile_from_sizes",
                        lambda order, sizes: from_sizes(order, change(sizes)))


def lost_u_value(monkeypatch):
    profile = catalog.profile

    def lost(group, cap):
        prof = profile(group, cap)
        return prof._replace(U=prof.U - {min(prof.U - {1})})
    monkeypatch.setattr(catalog, "profile", lost)


def no_symmetry_filter(monkeypatch):
    plan = patterns._match_plan
    monkeypatch.setattr(patterns, "_match_plan", lambda pat: plan(pat)[:2] + ((),))


def feasibility_always_ok(monkeypatch):
    monkeypatch.setattr(verify, "feasibility_check",
                        lambda values: patterns.FeasibilityVerdict(True, ()))


def collision_equations_open(monkeypatch):
    resolve = patterns.resolve_equation
    monkeypatch.setattr(patterns, "resolve_equation", lambda a, b: (resolve(a, b)[0], None))


def solve_off_by_two(monkeypatch):
    solve = patterns.solve_psl2_order
    monkeypatch.setattr(verify, "solve_psl2_order", lambda order: solve(order) + 2)


def size_option_dropped(monkeypatch):
    # the count 4qr loses its last size option, 4r
    options = patterns._size_options
    monkeypatch.setattr(patterns, "_size_options",
                        lambda term: options(term)[:-1] if str(term) == "4qr" else options(term))


def overstated_centralizer(monkeypatch):
    # |C(x)| doubled for the elements of order 5 in PSL(2,11), the one
    # catalog group of order 660, as test_verify.py plants it
    centralizer = invariants._centralizer

    def wrong(bsgs, x, x_len, budget):
        order, cent = centralizer(bsgs, x, x_len, budget)
        return (2 * order if bsgs.order() == 660 and math.lcm(*x_len) == 5 else order), cent
    monkeypatch.setattr(invariants, "_centralizer", wrong)


def plant_chain(monkeypatch, change):
    # only PSL(2,11)'s chain, the one catalog chain of order 660 on 12 points
    build = perm._schreier_sims

    def planted(gens, degree, bound=None):
        chain = build(gens, degree, bound)
        return change(chain) if degree == 12 and chain.order() == 660 else chain
    monkeypatch.setattr(perm, "_schreier_sims", planted)


def last_level_dropped(chain):
    return perm.BSGS(chain.degree, list(chain.base[:-1]), chain._level_gens[:-1],
                     chain.transversals[:-1], chain.inverses[:-1])


def transversal_images_swapped(chain):
    # the deepest level's last representative with its images of points 3
    # and 4 swapped, its stored inverse left as it was
    *levels, deepest = chain.transversals
    u = list(deepest[-1])
    u[3], u[4] = u[4], u[3]
    return perm.BSGS(chain.degree, list(chain.base), chain._level_gens,
                     [*levels, deepest[:-1] + (perm._raw(u),)], chain.inverses)


DEFECTS = {
    "split-class": lambda mp: plant_sizes(mp, split_class),
    "merged-classes": lambda mp: plant_sizes(mp, merged_classes),
    "lost-u-value": lost_u_value,
    "no-symmetry-filter": no_symmetry_filter,
    "feasibility-always-ok": feasibility_always_ok,
    "collision-equations-open": collision_equations_open,
    "solve-psl2-order-off-by-two": solve_off_by_two,
    "size-option-dropped": size_option_dropped,
    "overstated-centralizer": overstated_centralizer,
    "last-chain-level-dropped": lambda mp: plant_chain(mp, last_level_dropped),
    "transversal-images-swapped": lambda mp: plant_chain(mp, transversal_images_swapped),
}

#: defect -> the ids of the rows it fails, in report order
FAILED = {
    "split-class": [
        "uset:A6", "uset:PSL(2,8)", "uset:PSL(2,9)", "uset:PSL(2,11)", "uset:PSL(2,17)",
        "uset:U3(3)", "uset-shape:PSL(2,8)", "uset-shape:PSL(2,9)", "uset-shape:PSL(2,17)",
        "rank:PSL(2,9)", "rank:PSL(2,11)", "rank:PSL(2,8)", "uset-uniqueness"],
    "merged-classes": [
        "uset:PSL(2,7)", "uset:PSL(2,8)", "uset:PSL(2,11)", "uset:PSL(3,3)", "uset:U3(3)",
        "uset-shape:PSL(2,7)", "uset-shape:PSL(2,8)", "prime-set:A9", "prime-set:PSL(2,7)",
        "prime-set:PSL(2,11)", "prime-set:PSL(3,3)", "prime-set:U3(3)", "rank:PSL(2,8)",
        "order-and-class:PSL(2,5)", "order-and-class:PSL(2,13)", "order-and-class:PSL(2,17)",
        "uset-uniqueness"],
    "lost-u-value": [
        "uset:A5", "uset:A6", "uset:PSL(2,7)", "uset:PSL(2,8)", "uset:PSL(2,9)", "uset:PSL(2,11)",
        "uset:PSL(2,17)", "uset:PSL(3,3)", "uset:U3(3)", "uset:U4(2)", "uset-shape:PSL(2,7)",
        "uset-shape:PSL(2,8)", "uset-shape:PSL(2,9)", "uset-shape:PSL(2,17)", "size5:PSL(2,11)",
        "size5:PSL(2,13)", "size5:PSL(3,4)", "uset-uniqueness"],
    "no-symmetry-filter": ["prime-match-uniqueness"],
    "feasibility-always-ok": [
        "eliminate:1,r^2,4r^2,16r", "eliminate:1,p^2,4p^2,8p^2", "eliminate:1,r^2,4r^2,8pr",
        "eliminate:1,2p,8p,16p", "eliminate:1,2q,8pq,8q,16p", "eliminate:1,2p,8p,16p,8p^2"],
    "collision-equations-open": ["collision-screen"],
    "solve-psl2-order-off-by-two": ["psl2-order-solve"],
    "size-option-dropped": ["collision-options", "collision-screen"],
    "overstated-centralizer": [
        "uset:PSL(2,11)", "order-identity:PSL(2,11)", "divisibility:PSL(2,11)",
        "burnside:PSL(2,11)", "prime-set:PSL(2,11)", "center:PSL(2,11)", "feasibility:PSL(2,11)",
        "rank:PSL(2,11)", "size5:PSL(2,11)", "order-and-class:PSL(2,11)", "uset-uniqueness",
        "centralizer-count:PSL(2,11)"],
    # each row's note: PSL(2,11): built order 132, expected 660
    "last-chain-level-dropped": [
        "uset:PSL(2,11)", "order:PSL(2,11)", "order-identity:PSL(2,11)",
        "divisibility:PSL(2,11)", "burnside:PSL(2,11)", "prime-set:PSL(2,11)",
        "center:PSL(2,11)", "feasibility:PSL(2,11)", "rank:PSL(2,11)", "size5:PSL(2,11)",
        "order-and-class:PSL(2,11)", "uset-uniqueness", "centralizer-count:PSL(2,11)"],
    # each row's note: class sizes add up to 715, group order is 660
    "transversal-images-swapped": [
        "uset:PSL(2,11)", "order-identity:PSL(2,11)", "divisibility:PSL(2,11)",
        "burnside:PSL(2,11)", "prime-set:PSL(2,11)", "center:PSL(2,11)", "feasibility:PSL(2,11)",
        "rank:PSL(2,11)", "size5:PSL(2,11)", "order-and-class:PSL(2,11)", "uset-uniqueness",
        "centralizer-count:PSL(2,11)"],
}


@pytest.fixture
def fresh(monkeypatch):
    """A fresh catalog for each run, and the pattern caches cleared before
    and after, so no profile or result from another test is read."""
    monkeypatch.setattr(verify, "default_catalog", catalog.Catalog)
    for f in CACHED:
        f.cache_clear()
    yield monkeypatch
    for f in CACHED:
        f.cache_clear()


@pytest.mark.parametrize("defect", DEFECTS)
def test_each_planted_defect_fails_its_recorded_rows(fresh, defect):
    DEFECTS[defect](fresh)
    failed = [r.check_id for r in verify.run_verification().results if r.status == "fail"]
    assert failed
    assert failed == FAILED[defect]


def plant_once(monkeypatch, name, hit, change):
    """``invariants.<name>`` with its first answer for which ``hit`` holds
    replaced by ``change`` of it."""
    real, done = getattr(invariants, name), []

    def planted(*args):
        got = real(*args)
        if done or not hit(got):
            return got
        done.append(got)
        return change(got)
    monkeypatch.setattr(invariants, name, planted)


def skipped_level(monkeypatch):
    # the centraliser search finds nothing at level 1, so the C(x)-orbit of
    # base[1] is only what the deeper levels' elements give; level 0, which
    # the conjugacy tests share, is left alone
    search = invariants._conjugacy_search

    def planted(bsgs, x, x_len, y, cent, budget, level):
        find = search(bsgs, x, x_len, y, cent, budget, level)
        return (lambda image, fixing: None) if level == 1 else find
    monkeypatch.setattr(invariants, "_conjugacy_search", planted)


SAMPLER_DEFECTS = {
    # the first conjugacy test that finds a conjugator answers None
    "missed-conjugator": lambda mp: plant_once(mp, "_conjugator", lambda g: g is not None,
                                               lambda g: None),
    "skipped-centralizer-level": skipped_level,
    # the first power kernel with an exponent besides 1 loses its largest
    "dropped-exponent": lambda mp: plant_once(mp, "_power_kernel", lambda k: len(k) > 1,
                                              lambda k: k - {max(k)}),
}

#: sampler defect -> what catches it on A5 x PSL(2,7): the class equation's
#: RuntimeError, by its message, or "product oracle" for wrong class sizes
#: that the class equation lets through
CAUGHT = {
    "missed-conjugator": "class sizes add up to 10605, group order is 10080",
    "skipped-centralizer-level": "class sizes add up to 10896, group order is 10080",
    "dropped-exponent": "class sizes add up to 10605, group order is 10080",
}


@pytest.mark.parametrize("defect", SAMPLER_DEFECTS)
def test_each_sampler_defect_is_caught_on_a_product(monkeypatch, defect):
    factors = alternating_group(5), psl_group(2, 7)
    oracle = sorted(a.size * b.size for a, b in itertools.product(
        *map(invariants.conjugacy_classes, factors)))

    def unexpected(*_args):
        raise AssertionError("listed the product")
    monkeypatch.setattr(invariants, "_classes", unexpected)
    SAMPLER_DEFECTS[defect](monkeypatch)
    try:
        sizes = list(invariants.profile(direct_product(*factors)).class_sizes)
    except RuntimeError as error:
        caught = str(error)
    else:
        assert sizes != oracle
        caught = "product oracle"
    assert caught == CAUGHT[defect]


def test_a_merged_class_pair_is_caught_by_the_closed_form(monkeypatch):
    # the sampler's table for PSL(2,19), outside the catalog, with two
    # classes of one size, the first pair of records in a cycle type with
    # one even |C(x)|, reported as one class of twice that size: the class
    # equation still closes, and only the closed form tells
    sample = invariants._sampled_class_sizes

    def merged(bsgs, budget, classes):
        sample(bsgs, budget, classes)
        same = next(same for same in classes.values()
                    if len(same) > 1 and same[0][1] == same[1][1] and same[0][1] % 2 == 0)
        x, count, cent = same.pop(0)
        same[0] = (x, count // 2, cent)
    monkeypatch.setattr(invariants, "_sampled_class_sizes", merged)
    group = psl_group(2, 19)
    sizes = list(invariants.profile(group).class_sizes)  # the class equation does not raise
    assert sum(sizes) == group.order()
    assert sizes != psl2_class_sizes(19)
    assert len(sizes) == len(psl2_class_sizes(19)) - 1
