import hashlib
import itertools
import math
import random

import pytest

from usets.gf import MAX_FIELD_SIZE, Field, field_create
from usets.patterns import factorize


SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (11, 1), (13, 1), (2, 4), (2, 5), (2, 6)]
#: checked on a seeded sample of pairs rather than on every pair
LARGE_FIELDS = [(3, 4), (113, 1), (5, 3), (2, 8)]
SAMPLED_PAIRS = 2000

#: sha256 of repr((modulus, primitive, mul, add, inv, neg)) for every field
#: up to MAX_FIELD_SIZE, as built when each table row was a generator
#: expression: how the tables are built must not move an entry.
PINNED_FIELD_TABLES = {
    2: "1427851bf11c34cbf5d4486769b10ac517273ebc4ad06a5c466c1a66d4bb6580",
    3: "a75cfe2a61a6d2eb6d19167813765b6ff4caa66fcd462c1ae5438b80dfe46800",
    4: "cc680b2686a81991055e923ac676541a6e88bfeeabdadc93e050592548cb005a",
    5: "8856f6b11e30d51529ab5b8963500996fd460401f4b35201751b736af1aa3633",
    7: "37642fbc38e3cbdfddf1b1f5b6dc331470ef21256bae117b1c14728a8c85253e",
    8: "4a60b8026e40f0871cbf56f4d8ffbcca0e79ddd5b753c9477cf505b33ca81474",
    9: "745c80147c07f40aaef655cf4e2302be506f8343074f546da0b98de76f593ce5",
    11: "2344250032cdc75c1e4de080e88c7affe6ef95d6c43cc836723ea2e20d941d8e",
    13: "a144cf3b175e04b8776127430a029b8a42f238e8103083ac823c523b3dbe7338",
    16: "e96a29a76fe8b4d267d793c06cb531921cefe2c17b87aa2b2fdfaf25a8cabe44",
    17: "d94af8815b7e6372ba13a510e0c1a932abfc542b9395ab73b1cf790e73cff277",
    19: "daff9bfd99143e9c3c8305939e47a7025f42dff8d873036bbb1cea68382e7b50",
    23: "d4d8f1aaa6184a4d8480a7b2b64aa45d5b6bdb1303afdc4448d8d692f4a83739",
    25: "bd4f25c3316365617eddad5d4a999b1bddbd41b26c2aad2552ec4221ae50d9b2",
    27: "a134f0ab4e494cf639253cd5bbc9659b312dad4cf5ce62fd8de6e9da3e2c3919",
    29: "f4edc8a13b78baf49fb7f96241f96177c89e1bb87c4eca3be1bb61dab8db0fe5",
    31: "c35059a848f57922aaf0bed034fadfbf1b18c8cb8d5e4792012fbabb8bfa65d9",
    32: "7ff242f75282d67f4297ec1de34319bf81f88014f27a8ec0be0c9df7e8808372",
    37: "c041793d598deaa9bc7704940190be2f2516cc1b0a2012c141a4831a54b5c1d7",
    41: "60b37ab5527b5eb1dc13f2c8ebbf7dae8e09c476b6da18a963c83eceaed690e0",
    43: "4f0f47947e536576bbc7c7d56e228e0d3f958859a25aef927684df5740554b2e",
    47: "5d685f87fa780bd5d32fb9cb23b61e456fcb846540978d88df70bac5fb21139d",
    49: "31b0853454e639376b5385d1885ee7b444b0e3b3467cbe0240cb65840ed9a0d6",
    53: "c89842110ce7cf1625bd53ffcdef7ce594cc5cbc43ce5447c9e1dc080882ace5",
    59: "1763efb01bfe80ca9d90ebc293ece2107c72adcff88d0b57a3efc037e8323ab9",
    61: "cdde3fa6c2559f7aed28825e4ae5acd62ba431bb8ed412aa0549f7242e652107",
    64: "2737d1f95bc2dd884aa023a40b65c58fa991b78e86c9fb6bde22a5ec2ed2a871",
    67: "2883dcaef7fa25d38cfdb62857d2e4b226c62f54ad041a4a753649edcbada82d",
    71: "585391831f45ef23cc9fa20b8d0bbe2371d6b7d2e8c1a0f0d5ac73883541b876",
    73: "09a9cffa86c7bf40a32117e756e189d8445314113055368bbdf9e6198cfcf829",
    79: "4be474923520ca61125b6016065b824b6ccaced4a04540423bb65ae7bb269dc1",
    81: "9210e24aa495efefcee71be98f12cca2fffde5c07c49957a06287b0158b114ba",
    83: "83132b9bc6bf2790267e4ca397b30ff9a2173271349a209dc232be180415612a",
    89: "1a81ac4d6a7b7cb82eb2a017d87b50a839fac541baf378591e529f0a1a90978a",
    97: "2b9739d54ef835cd6babff1085c2103831e70a1a1160074433b016a3b9322f09",
    101: "350d7d02018ed41f9e651b6652107d780f1ac79d1475bb0aa32f303208d9d8ba",
    103: "4b7991be88b22892523275446921b2829fe0938d2f6026f2951ccf74c0f71ee6",
    107: "9b595eb5c42296c8029836ecd1e763655b63f2708b6425440b4c64b5c53d1052",
    109: "d5947330f4a10c2ce72871953dfab21b7c1405ffcc3f253ff25872aca642dcaa",
    113: "701f96c38c9fc4da33f818f227be7cb0634c4a8a206f62fc58b5efd7c4d08170",
    121: "06c2c20c2a18f4e7e1d544abaf8b61381f1304c2099027a16fd16ca360f498c9",
    125: "3261b54fceac19651d0b20fcfba63ddde1784ba9cdc11b6efa095e6edb69a068",
    127: "11915cbc1766697f1e4d8d9d323ff06aa9ce13dafc17801b8e3afe55dbe4cf55",
    128: "f2d9d68eaa24f78f2ce92d0c33d2cb649fc42844b5f528e23b406b6019876497",
    131: "819870c25894082b76eba8aaeaf3187cec5cf5f02a82a9a6dc312f8da722b2cb",
    137: "472a4a64ab408baf9e70f0aef7ca76def557e3ff12da5588215cb410db8e184a",
    139: "a79a3440aa7f3a5f42ebe003ec5e77779118eb0e679245a91555e441a6c1cc6a",
    149: "922812d48870f9176fbdd8b5e4cffa0f46a1d8619fc651a5fb3d9b2567a78989",
    151: "5b17023fa348a024394d56f0a3619ae9c99e8e5de47e14e3c60b9dbed5569467",
    157: "b218bb367fc306cec7fb0699e47684b23134f45cbfcb37603b13e640f15c3e64",
    163: "8b433643061f62c16edb6ac94bc55e972925c0abf69b56dfb1f659f6ccf9bdbd",
    167: "fb7db74170c78f32ba3217cc3fa4de82330416007027ee44f82224e2065cbbce",
    169: "187584bcf2d038da1f816e2c62716035ca6fac29fe3caf5c1c1993ac36329a48",
    173: "f8d20f3c3e9313c40a8a3a5052cc880cf78a2489f4abb240fb3e208a3455e7c3",
    179: "963563eff0988e04d1427192782050e7dbb9127eba15e0a9da8535faceabdb22",
    181: "d5efb7f5cdaab62205d3557df4f72fbd728672b0781a696633b7838dd74c2b5f",
    191: "cad54591db5c0454b6108d00f993cff7b96e779060f4cf38f4c281cee6f9495e",
    193: "055e8ac4c048ffa94fba83b2ef341bad3e5c036ee728992f8a2c9fb0aad14c66",
    197: "d8479d443b0fe0d5998c384e6d1abba5983404b8a1ca1faa7e108f2ef4ff855f",
    199: "c1a81011381d8e608709b9690c726ad56eaa059319d52400ab1fc2bfef1ebf4a",
    211: "4ad9504cdb30a4d091f237d342f9217059a2a3f844a6c9eb981a0d1e7a7b7bbe",
    223: "777905eb4b212db3aa2bb33673c0297f15021c475b6bec822973ad3bc49ae8a5",
    227: "3529fc42329ae710ca791bd71a171cc10aef94e3e0d079ff3581afd49fbf318b",
    229: "49f958d1c0ee204fd76b000da2e0810fa24c26d1412719037d5f1062418ec268",
    233: "04768d65873311cead834504c4a073a7a4d60c1cd1e01868dfa3eb4ab3263bfc",
    239: "b6fea01d79fde883427b6a49b253db9fad1595e9ef22c095fa9c7dc29850016f",
    241: "8f50f6635813ec83abbdaaa6d768e23df7268355e36c2c00baf4e67fda042e01",
    243: "f662886fd9ecc483ee277f21c32c7553f85f5fe39d684ba7aba93f2d6c39ec81",
    251: "6dfaabb3c809bdbf26d42cde981be8a10aed1762d4bd08dbaf2df45b12c05cb2",
    256: "bccb178d84e6eb7b17163f3c9b13e9574aa527838e0a42da44c589fdba55704a",
}


def order(f, a):
    """Multiplicative order of a nonzero element, by repeated products."""
    n, x = 1, a
    while x != 1:
        x = f.mul[x][a]
        n += 1
    return n


class TestFieldCreate:
    def test_prime_field_modulus_is_x(self):
        assert field_create(3, 1).modulus == (0, 1)

    def test_gf9_modulus(self):
        # brute force over GF(3): x^2, x^2+x, x^2+2x all have roots;
        # x^2+1 has none and has the smallest encoding among survivors
        assert field_create(3, 2).modulus == (1, 0, 1)

    def test_gf8_modulus(self):
        # the two irreducible cubics over GF(2) are x^3+x+1 and x^3+x^2+1;
        # encodings 1+2+8=11 and 1+4+8=13, so x^3+x+1 wins
        assert field_create(2, 3).modulus == (1, 1, 0, 1)

    def test_gf4_modulus(self):
        assert field_create(2, 2).modulus == (1, 1, 1)

    def test_gf32_and_gf64_moduli(self):
        # x^5+x+1 = (x^2+x+1)(x^3+x^2+1), so x^5+x^2+1 is the first
        # irreducible quintic; x^6+x+1 is the first sextic
        assert field_create(2, 5).modulus == (1, 0, 1, 0, 0, 1)
        assert field_create(2, 6).modulus == (1, 1, 0, 0, 0, 0, 1)

    def test_gf81_modulus_is_first_quartic_without_small_factor(self):
        # the degree-4 case needs the quadratic factors too: quartics
        # without a root can still split into two quadratics
        p = 3

        def has_small_factor(poly):
            return any(_poly_rem(poly, [(code // p ** i) % p for i in range(d)] + [1], p)
                       == [0] * d for d in (1, 2) for code in range(p ** d))

        modulus = field_create(3, 4).modulus
        assert modulus == (2, 1, 0, 0, 1)  # x^4 + x + 2
        assert not has_small_factor(modulus)
        code = sum(c * p ** i for i, c in enumerate(modulus[:4]))
        assert all(has_small_factor([(c // p ** i) % p for i in range(4)] + [1])
                   for c in range(code))

    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            field_create(6, 1)

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError, match="not irreducible"):
            Field(2, 2, (0, 0, 1))  # x^2 = x * x

    def test_size_limit(self):
        assert field_create(2, 8).size == MAX_FIELD_SIZE == 256
        for p, k in ((2, 9), (257, 1), (3, 6), (2, 0)):
            with pytest.raises(ValueError):
                field_create(p, k)


def _poly_rem(dividend, divisor, p):
    rem = list(dividend)
    d = len(divisor) - 1
    while len(rem) > d:
        f = rem.pop()
        for i in range(d):
            rem[len(rem) - d + i] = (rem[len(rem) - d + i] - f * divisor[i]) % p
    return rem


class TestArithmetic:
    def test_inverse_in_gf7(self):
        f = field_create(7, 1)
        assert f.inv[2] == 4  # 2*4 = 8 = 1 mod 7

    def test_gf9_x_squared(self):
        f = field_create(3, 2)
        x = 3  # coefficients (0, 1)
        assert f.mul[x][x] == 2  # x^2 = -1 = 2 with modulus x^2+1

    def test_lagrange_in_gf4(self):
        f = field_create(2, 2)
        for a in range(1, f.size):
            assert f.pow(a, f.size - 1) == 1

    def test_zero_has_no_inverse(self):
        f = field_create(5, 1)
        assert f.inv[0] is None
        with pytest.raises(ZeroDivisionError):
            f.pow(0, -1)

    def test_negative_powers_use_the_inverse(self):
        f = field_create(3, 2)
        for a in range(1, f.size):
            assert f.mul[f.pow(a, -3)][f.pow(a, 3)] == 1


def test_gf9_against_independent_model():
    """Cross-check all 81 products and sums against a hand-rolled model of
    GF(9) as a + b*i with i^2 = -1 over GF(3); a + b*i is coded a + 3b."""
    f = field_create(3, 2)

    def model_mul(u, v):
        (a, b), (c, d) = u, v
        return ((a * c - b * d) % 3, (a * d + b * c) % 3)

    def model_add(u, v):
        return tuple((x + y) % 3 for x, y in zip(u, v))

    def code(u):
        return u[0] + 3 * u[1]

    for u in itertools.product(range(3), repeat=2):
        for v in itertools.product(range(3), repeat=2):
            assert f.mul[code(u)][code(v)] == code(model_mul(u, v))
            assert f.add[code(u)][code(v)] == code(model_add(u, v))


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, k):
    f = field_create(p, k)
    add, mul, neg, inv = f.add, f.mul, f.neg, f.inv
    elems = range(f.size)
    assert f.size == p ** k
    for a, b, c in itertools.product(elems, repeat=3):
        assert add[add[a][b]][c] == add[a][add[b][c]]
        assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
    for a, b in itertools.product(elems, repeat=2):
        assert add[a][b] == add[b][a]
        assert mul[a][b] == mul[b][a]
    for a in elems:
        assert add[a][0] == mul[a][1] == a
        assert add[a][neg[a]] == 0
        if a:
            assert mul[a][inv[a]] == 1


def pairs(f):
    """Every pair of elements of a small field, a seeded sample of a large one."""
    if (f.p, f.k) in SMALL_FIELDS:
        return itertools.product(range(f.size), repeat=2)
    rng = random.Random(f.size)
    return [(rng.randrange(f.size), rng.randrange(f.size)) for _ in range(SAMPLED_PAIRS)]


def test_field_tables_are_pinned():
    got = {}
    for q in range(2, MAX_FIELD_SIZE + 1):
        factors = factorize(q)
        if len(factors) == 1:
            f = field_create(*next(iter(factors.items())))
            tables = (f.modulus, f.primitive, f.mul, f.add, f.inv, f.neg)
            got[q] = hashlib.sha256(repr(tables).encode()).hexdigest()
    assert got == PINNED_FIELD_TABLES


@pytest.mark.parametrize("p,k", SMALL_FIELDS + LARGE_FIELDS)
def test_addition_is_coefficientwise(p, k):
    f = field_create(p, k)
    for a, b in pairs(f):
        digits = [((a // p ** i) + (b // p ** i)) % p for i in range(k)]
        assert f.add[a][b] == sum(d * p ** i for i, d in enumerate(digits))


@pytest.mark.parametrize("p,k", SMALL_FIELDS + LARGE_FIELDS)
def test_multiplication_is_the_polynomial_product(p, k):
    f = field_create(p, k)

    def poly(a):
        return [(a // p ** i) % p for i in range(k)]

    for a, b in pairs(f):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(poly(a)):
            for j, y in enumerate(poly(b)):
                prod[i + j] += x * y
        rem = _poly_rem(prod, f.modulus, p)
        assert f.mul[a][b] == sum(c % p * p ** i for i, c in enumerate(rem))


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_frobenius_is_automorphism(p, k):
    f = field_create(p, k)
    for a, b in itertools.product(range(f.size), repeat=2):
        assert f.pow(f.add[a][b], p) == f.add[f.pow(a, p)][f.pow(b, p)]
        assert f.pow(f.mul[a][b], p) == f.mul[f.pow(a, p)][f.pow(b, p)]


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_multiplicative_group_is_cyclic(p, k):
    f = field_create(p, k)
    n = f.size - 1
    orders = [order(f, a) for a in range(1, f.size)]
    assert all(n % d == 0 for d in orders)
    generators = sum(1 for d in orders if d == n)
    totient = sum(1 for i in range(1, n + 1) if math.gcd(i, n) == 1)
    assert generators == totient  # phi(q-1) generators, as in a cyclic group


class TestPrimitiveElement:
    def test_gf2(self):
        assert field_create(2, 1).primitive == 1

    def test_gf7_first_generator_is_3(self):
        # orders: 2 -> 3 (2,4,1); 3 -> 6, so 3 is the first generator
        assert field_create(7, 1).primitive == 3

    def test_gf9_first_in_canonical_order(self):
        f = field_create(3, 2)
        assert f.primitive == 4  # x + 1
        assert order(f, 4) == 8
        assert all(order(f, e) < 8 for e in range(1, 4))

    @pytest.mark.parametrize("p,k", SMALL_FIELDS)
    def test_first_in_canonical_order(self, p, k):
        f = field_create(p, k)
        n = f.size - 1
        assert order(f, f.primitive) == n
        assert all(order(f, e) < n for e in range(1, f.primitive))
