"""Every Feasible decision of the full system, certified exactly.

`feasible_full` decides an open pair from one related pair of supports
it can take, with that pair's two states (`patterns._related_supports`).
Here each of the 31 related support pairs gets its witness in sympy
(`exact_witnesses`), the masking conditions are checked on it with no
rounding, and the float states the lookup keeps are held to it.  The
split of a duplicated ket over its slots (`patterns._split_slots`) is
checked the same way.
"""

import collections
import itertools

import numpy as np
import pytest
import sympy as sp

from exact_witnesses import SUPPORTS, matrix, related_witnesses, split_slots
from qmask import patterns

DELTA = sp.Rational(1, 10)


@pytest.fixture(scope="module")
def witnesses():
    return related_witnesses()


def _is_zero(x) -> bool:
    return sp.expand(x) == 0


def _modulus2(x):
    return sp.expand(x * sp.conjugate(x))


def test_related_support_pairs_are_15_equal_and_16_partners(witnesses):
    cases = collections.Counter(case for case, _, _ in witnesses.values())
    assert cases == {"same support": 15, "partner": 16}
    assert all(s0 == s1 for (s0, s1), (case, _, _) in witnesses.items()
               if case == "same support")


def test_exact_witnesses_mask_the_plus_state(witnesses):
    # both marginals equal, unit norms, every nonzero amplitude >= delta,
    # both eq3 cross matrices at |+> zero (T_x anti-Hermitian, so
    # (T_x + T_x^dag)/2 vanishes) and |<Psi0|Psi1>| >= delta, exactly
    for (s0, s1), (case, psi0, psi1) in witnesses.items():
        M0, M1 = matrix(psi0), matrix(psi1)
        for x, y in ((M0 * M0.H, M1 * M1.H), (M0.T * M0.conjugate(),
                                              M1.T * M1.conjugate())):
            assert all(map(_is_zero, x - y)), (s0, s1, case)
        for psi, support in ((psi0, s0), (psi1, s1)):
            assert sum(map(_modulus2, psi)) == 1, (s0, s1)
            for k, amplitude in enumerate(psi):
                if support >> k & 1:
                    assert _modulus2(amplitude) >= DELTA ** 2, (s0, s1, k)
                else:
                    assert amplitude == 0, (s0, s1, k)
        for T in (M0 * M1.H, M0.T * M1.conjugate()):
            assert all(map(_is_zero, T + T.H)), (s0, s1, case)
        overlap = sum(sp.conjugate(a) * b for a, b in zip(psi0, psi1))
        assert _modulus2(overlap) >= DELTA ** 2, (s0, s1)


def test_lookup_holds_the_exact_states(witnesses):
    # a duplicate-free pattern takes one support, so the lookup of its
    # multiset pair returns that pair's witness, or None when unrelated;
    # its read-only float states agree with the exact ones to 1e-15
    for s0, s1 in itertools.product(SUPPORTS, repeat=2):
        counts0, counts1 = (tuple(s >> k & 1 for k in range(4))
                            for s in (s0, s1))
        related = patterns._related_supports(counts0, counts1)
        if (s0, s1) not in witnesses:
            assert related is None, (s0, s1)
            continue
        _, exact0, exact1 = witnesses[s0, s1]
        assert related[:2] == (s0, s1)
        for psi, exact in zip(related[2:], (exact0, exact1)):
            assert not psi.flags.writeable
            expected = np.array([complex(sp.N(x, 30)) for x in exact])
            np.testing.assert_allclose(psi, expected, rtol=0, atol=1e-15,
                                       err_msg=str((s0, s1)))


#: merged values of a duplicated ket: zero, real of either sign,
#: imaginary, complex, and irrational like the witness amplitudes
SPLIT_VALUES = (0, 1, -1, sp.I / 3,
                sp.Rational(3, 10) - sp.Rational(2, 5) * sp.I,
                1 / sp.sqrt(2), -sp.I / sp.sqrt(3), (1 + sp.I) / 2)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_duplicate_split_merges_exactly_and_keeps_the_floor(m):
    # the m slots sum to a and each has modulus >= r - |a|/m = 2 delta,
    # exactly; the float split of a pattern listing 00 m times agrees with
    # them to 1e-15
    pattern = patterns.BasisPattern(("00",) * m)
    for a in SPLIT_VALUES:
        slots = split_slots(a, m, DELTA)
        assert _is_zero(sum(slots) - a), (m, a)
        for slot in slots:
            assert not slot.has(sp.Float), (m, a, slot)
            assert _modulus2(slot) - 4 * DELTA ** 2 >= 0, (m, a, slot)
        psi = np.array([complex(a), 0, 0, 0])
        got = patterns._split_slots(pattern, psi, 1, float(DELTA))
        expected = [complex(sp.N(slot, 30)) for slot in slots]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15,
                                   err_msg=str((m, a)))
