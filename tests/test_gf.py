import itertools
import math

import pytest

from usets.gf import MAX_FIELD_SIZE, Field, field_create


SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (11, 1), (13, 1), (2, 4), (2, 5), (2, 6)]


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


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_addition_is_coefficientwise(p, k):
    f = field_create(p, k)
    for a, b in itertools.product(range(f.size), repeat=2):
        digits = [((a // p ** i) + (b // p ** i)) % p for i in range(k)]
        assert f.add[a][b] == sum(d * p ** i for i, d in enumerate(digits))


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_multiplication_is_the_polynomial_product(p, k):
    f = field_create(p, k)

    def poly(a):
        return [(a // p ** i) % p for i in range(k)]

    for a, b in itertools.product(range(f.size), repeat=2):
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
