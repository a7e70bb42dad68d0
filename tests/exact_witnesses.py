"""Exact witnesses of the full masking system, one per related support
pair, built in sympy from closed forms (test-only).

A support is a bit mask over the basis indices 2*bitA + bitB, as in
`patterns._fitting_supports`.  Two supports of the full system are
related when they are equal or partners: a three-ket support against
all four kets, or two three-ket supports whose missing kets differ in
one bit.  Of the 225 ordered pairs of nonempty supports, 15 are equal
and 16 are partners.

- Equal supports S: Psi0 is uniform on S and Psi1 = i Psi0.
- Partners: X_A^a X_B^b, with (a, b) the bits of the missing ket of the
  three-ket support (the first one when both have three kets) flipped,
  takes that ket to 11.  There take M = (1, 1, 1, 0)/sqrt(3) against all
  four kets, (1/2, 1/2, 1/sqrt(2), 0) when the other support misses 01,
  and (1/2, 1/sqrt(2), 1/2, 0) when it misses 10.  With P the masking
  partner, (Psi0, Psi1) = (M, i P(M)) when Psi0 has three kets, else
  (P(M), i M), flipped back.

A ket listed m >= 2 times can merge to any value a.  `split_slots`
gives its m slots exactly, as `patterns._split_slots` places them in
floats.

Every entry is an exact sympy number, so the tests can check the
masking conditions with no rounding.
"""

import itertools

import sympy as sp

#: the masks of the 15 nonempty supports, ascending
SUPPORTS = tuple(range(1, 16))

#: the state M of the partner case, its three-ket support missing 11,
#: keyed by the ket the other support misses: 01, 10, or none
_M = {None: (1 / sp.sqrt(3), 1 / sp.sqrt(3), 1 / sp.sqrt(3), 0),
      1: (sp.Rational(1, 2), sp.Rational(1, 2), 1 / sp.sqrt(2), 0),
      2: (sp.Rational(1, 2), 1 / sp.sqrt(2), sp.Rational(1, 2), 0)}


def matrix(psi) -> sp.Matrix:
    """The 2x2 amplitude matrix [[c00, c01], [c10, c11]] of a state."""
    return sp.Matrix(2, 2, list(psi))


def masking_partner(psi) -> tuple:
    """P(M) = (M - 2 det(M) [[d*, -c*], [-b*, a*]]) / sqrt(1 - C^2),
    with C = 2|det M|, as a vector."""
    M = matrix(psi)
    (a, b), (c, d) = M.tolist()
    det = M.det()
    adj = sp.Matrix([[d, -c], [-b, a]]).conjugate()
    C2 = 4 * sp.expand(det * sp.conjugate(det))
    return tuple(sp.expand(x / sp.sqrt(1 - C2)) for x in M - 2 * det * adj)


def _missing(support: int) -> int:
    """The one basis index a three-ket support lacks."""
    (k,) = [k for k in range(4) if not support >> k & 1]
    return k


def witness(s0: int, s1: int):
    """(case, Psi0, Psi1) of two supports, the case "same support" or
    "partner", or None when they are not related."""
    if s0 == s1:
        n = bin(s0).count("1")
        psi0 = tuple(sp.Integer(s0 >> k & 1) / sp.sqrt(n) for k in range(4))
        return "same support", psi0, tuple(sp.I * x for x in psi0)
    sizes = sorted((bin(s0).count("1"), bin(s1).count("1")))
    if sizes not in ([3, 3], [3, 4]):
        return None
    three, other = (s0, s1) if bin(s0).count("1") == 3 else (s1, s0)
    flips = _missing(three) ^ 3  # X_A^a X_B^b takes the missing ket to 11
    key = None
    if sizes == [3, 3]:
        # the other missing ket goes to 01 or 10 exactly for partners
        key = _missing(other) ^ flips
        if key not in _M:
            return None
    m = _M[key]
    p = masking_partner(m)
    if three == s0:
        psi0, psi1 = m, tuple(sp.I * x for x in p)
    else:
        psi0, psi1 = p, tuple(sp.I * x for x in m)
    return ("partner",) + tuple(tuple(psi[j ^ flips] for j in range(4))
                                for psi in (psi0, psi1))


def related_witnesses() -> dict:
    """(s0, s1) -> (case, Psi0, Psi1) over every related ordered pair."""
    pairs = ((s0, s1, witness(s0, s1))
             for s0, s1 in itertools.product(SUPPORTS, repeat=2))
    return {(s0, s1): w for s0, s1, w in pairs if w is not None}


def split_slots(a, m: int, delta) -> tuple:
    """The m slots a/m + r e^{2 pi i j/m}, j = 0, ..., m - 1, with r =
    2 delta + |a|/m, of a ket listed m times that merges to a."""
    a = sp.sympify(a)
    r = 2 * delta + sp.Abs(a) / m
    return tuple(sp.expand(a / m + r * (sp.cos(2 * sp.pi * j / m)
                                        + sp.I * sp.sin(2 * sp.pi * j / m)))
                 for j in range(m))
