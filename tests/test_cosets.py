from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primover.arith import factorize, is_prime, mult_order, use_config
from primover.config import Config
from primover.cosets import coset_count, decompose, divisor_order_profile
from primover.errors import DomainError, EnumerationCeilingError
from oracles import naive_cosets, naive_order


class TestDecompose:
    def test_mod_7(self):
        d = decompose(2, 7)
        assert d.cosets == ((1, 2, 4), (3, 6, 5))
        assert d.r == 2 and d.h == 3

    def test_mod_9(self):
        d = decompose(2, 9)
        assert d.cosets == ((1, 2, 4, 8, 7, 5), (3, 6))
        assert d.r == 2 and d.h == 6

    def test_zero_excluded_and_noncoprime_included(self):
        d = decompose(2, 9)
        members = [x for c in d.cosets for x in c]
        assert 0 not in members
        assert 3 in members and 6 in members  # the residues sharing 3 with 9

    def test_matches_naive_enumeration(self):
        for a, n in ((2, 15), (2, 21), (3, 25), (5, 33), (7, 45)):
            d = decompose(a, n)
            assert [list(c) for c in d.cosets] == naive_cosets(a, n)

    def test_base_reduced_mod_n(self):
        assert decompose(16, 7).cosets == decompose(2, 7).cosets

    def test_rejections(self):
        with pytest.raises(DomainError):
            decompose(2, 8)  # even
        with pytest.raises(DomainError):
            decompose(2, 1)
        with pytest.raises(DomainError):
            decompose(3, 9)  # shared factor
        with pytest.raises(DomainError):
            decompose(1, 7)  # base too small

    def test_ceiling(self):
        with pytest.raises(EnumerationCeilingError):
            decompose(2, Config().coset_ceiling + 1)
        with use_config(Config(coset_ceiling=10**4)):
            with pytest.raises(EnumerationCeilingError):
                decompose(2, 10**4 + 1)
            decompose(2, 9999)  # just inside


class TestStructuralInvariants:
    BASES = (2, 3, 5)

    def test_partition_lcm_and_count(self):
        # one sweep checks the partition of {1..n-1}, the lcm identity for h,
        # and agreement between enumeration and the divisor-sum count
        for a in self.BASES:
            for n in range(3, 2001, 2):
                if gcd(a, n) != 1:
                    continue
                d = decompose(a, n)
                flat = sorted(x for c in d.cosets for x in c)
                assert flat == list(range(1, n)), (a, n)
                assert d.h == lcm(*(len(c) for c in d.cosets))
                assert d.h == mult_order(a, n)
                assert d.r == len(d.cosets) == coset_count(a, n), (a, n)

    def test_prime_structure(self):
        # every coset the same size, and p = r*h + 1
        for a in self.BASES:
            for p in range(3, 2001, 2):
                if not is_prime(p) or p == a:
                    continue
                d = decompose(a, p)
                sizes = {len(c) for c in d.cosets}
                assert sizes == {d.h}, (a, p)
                assert p == d.r * d.h + 1, (a, p)

    def test_each_coset_is_an_orbit_from_its_least_element(self):
        d = decompose(2, 91)
        for coset in d.cosets:
            s = coset[0]
            assert s == min(coset)
            rebuilt = [s]
            x = s * 2 % 91
            while x != s:
                rebuilt.append(x)
                x = x * 2 % 91
            assert list(coset) == rebuilt


class TestCosetCount:
    def test_examples(self):
        assert coset_count(2, 7) == 2
        assert coset_count(2, 23) == 2
        assert coset_count(2, 2047) == 186

    def test_reuses_factorization(self):
        f = factorize(2047)
        assert coset_count(2, 2047, factorization=f) == 186

    def test_factorization_of_another_subject_rejected(self):
        with pytest.raises(DomainError, match="341"):
            coset_count(2, 2047, factorization=factorize(341))

    def test_ceiling_contract(self):
        with pytest.raises(EnumerationCeilingError):
            coset_count(2, Config().coset_ceiling + 1)
        with use_config(Config(coset_ceiling=10**6)):
            assert coset_count(2, 10**5 + 1) > 0

    def test_profile_terms(self):
        profile = dict(
            (d, (phi_d, h_d)) for d, phi_d, h_d in divisor_order_profile(2, factorize(45))
        )
        assert profile[1] == (1, 1)
        assert profile[9] == (6, 6)
        assert profile[45] == (24, naive_order(2, 45))
        assert set(profile) == {1, 3, 5, 9, 15, 45}


@settings(max_examples=120)
@given(
    st.sampled_from((2, 3, 5, 7)),
    st.integers(min_value=3, max_value=1500),
)
def test_partition_property(a, n):
    if n % 2 == 0 or gcd(a, n) != 1:
        return
    d = decompose(a, n)
    flat = sorted(x for c in d.cosets for x in c)
    assert flat == list(range(1, n))
    assert sum(len(c) for c in d.cosets) == n - 1
