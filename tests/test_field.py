import pytest
from hypothesis import given, settings, strategies as st

from ppcplab.field import (
    FieldMismatchError,
    PrimeField,
    UniPoly,
    interpolate,
    is_prime,
    select_prime,
    MAX_MODULUS,
)


def naive_prime_scan(threshold: int) -> int:
    # independent oracle: trial-division scan upward
    def prime(n):
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    p = threshold + 1
    while not prime(p):
        p += 1
    return p


class TestSelectPrime:
    def test_example_18_3_half(self):
        assert select_prime(18, 3, 0.5) == 109
        assert naive_prime_scan(108) == 109

    def test_example_trivial(self):
        assert select_prime(1, 1, 1) == 2

    def test_example_100_3_tenth(self):
        assert select_prime(100, 3, 0.1) == 3001
        assert naive_prime_scan(3000) == 3001

    @given(q=st.integers(1, 200), d=st.integers(1, 6))
    def test_no_smaller_prime_satisfies_bound(self, q, d):
        p = select_prime(q, d, 0.5)
        assert p > 2 * q * d
        for candidate in range(2 * q * d + 1, p):
            assert not is_prime(candidate)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            select_prime(5, 2, 0.0)
        with pytest.raises(ValueError):
            select_prime(5, 2, 1.5)

    def test_memoised(self):
        first = select_prime(37, 4, 0.25)
        hits = select_prime.cache_info().hits
        assert select_prime(37, 4, 0.25) == first == naive_prime_scan(37 * 4 * 4)
        assert select_prime.cache_info().hits == hits + 1
        with pytest.raises(ValueError):  # errors are raised again, never cached
            select_prime(5, 2, 1.5)


class TestFieldArithmetic:
    """The reference field Z_p itself: its modulus checks.  Elements have no
    arithmetic; the protocol computes on residues."""

    def test_mixed_fields_rejected(self):
        with pytest.raises(FieldMismatchError):
            UniPoly((PrimeField(7)(1), PrimeField(11)(1)), bound=1)

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            PrimeField(91)

    def test_modulus_cap(self):
        with pytest.raises(ValueError):
            PrimeField(2**61 + 15)  # even if prime, outside the cap
        assert MAX_MODULUS == 2**61 - 1

    def test_primality_is_memoised_in_a_bounded_cache(self):
        # prime searches and checks ask about the same few numbers again and again
        PrimeField(1000003)
        before = is_prime.cache_info()
        PrimeField(1000003)
        after = is_prime.cache_info()
        assert after.hits == before.hits + 1 and after.misses == before.misses
        assert after.maxsize is not None


class TestInterpolate:
    def test_two_points_z5(self):
        F = PrimeField(5)
        poly = interpolate([(F(0), F(1)), (F(1), F(3))])
        assert [c.value for c in poly.coeffs] == [1, 2]
        assert poly.evaluate(F(1)) == F(3)

    def test_single_point_constant(self):
        F = PrimeField(13)
        poly = interpolate([(F(0), F(9))])
        assert [c.value for c in poly.coeffs] == [9]

    def test_three_collinear_points_z7(self):
        F = PrimeField(7)
        poly = interpolate([(F(0), F(0)), (F(1), F(2)), (F(2), F(4))])
        assert [c.value for c in poly.coeffs] == [0, 2]

    def test_duplicate_x_rejected(self):
        F = PrimeField(7)
        with pytest.raises(ValueError):
            interpolate([(F(1), F(2)), (F(1), F(3))])

    @pytest.mark.parametrize("p, d", [(2, 2), (2, 3), (5, 5), (7, 9), (13, 13)])
    def test_rejects_nodes_that_collide_mod_p(self, p, d):
        # the nodes 0..d are distinct mod p only for d < p
        F = PrimeField(p)
        with pytest.raises(ValueError):
            interpolate([(F(t), F(0)) for t in range(d + 1)])

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=6, unique=True),
           st.data())
    @settings(max_examples=100)
    def test_roundtrip_reproduces_points(self, xs, data):
        F = PrimeField(101)
        ys = [data.draw(st.integers(0, 100)) for _ in xs]
        pts = [(F(x), F(y)) for x, y in zip(xs, ys)]
        poly = interpolate(pts)
        for x, y in pts:
            assert poly.evaluate(x) == y


class TestUniPoly:
    def test_horner_consistency(self):
        F = PrimeField(109)
        poly = UniPoly((F(3), F(0), F(5)), bound=2)
        for x in range(6):
            expected = (3 + 5 * x * x) % 109
            assert poly.evaluate(F(x)).value == expected

    def test_length_bound_enforced(self):
        F = PrimeField(7)
        with pytest.raises(ValueError):
            UniPoly((F(1), F(1), F(1)), bound=1)

    def test_padded(self):
        F = PrimeField(7)
        poly = UniPoly((F(2),), bound=0).padded(3)
        assert len(poly.coeffs) == 4
        assert poly.evaluate(F(5)) == F(2)

    def test_degree_ignores_trailing_zeros(self):
        F = PrimeField(7)
        assert UniPoly((F(1), F(0)), bound=1).degree == 0
        assert UniPoly((F(0),), bound=0).degree == -1
