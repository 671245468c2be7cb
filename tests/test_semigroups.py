import json
import math
from pathlib import Path

import numpy as np
import pytest

from castleqec.curves import curve_from_json
from castleqec.semigroups import NumericalSemigroup


def test_validation():
    with pytest.raises(ValueError):
        NumericalSemigroup([4, 6])
    with pytest.raises(ValueError):
        NumericalSemigroup([])
    with pytest.raises(ValueError):
        NumericalSemigroup([0, 3])
    with pytest.raises(ValueError):
        NumericalSemigroup([-2, 3])


def test_two_three():
    S = NumericalSemigroup([2, 3])
    assert S.gaps == (1,)
    assert S.genus == 1 and S.conductor == 2 and S.multiplicity == 2
    assert S.is_symmetric
    assert S.generators == (2, 3)
    assert [S.contains(s) for s in range(6)] == [True, False, True, True, True, True]
    assert not S.contains(-1)


def test_trivial_semigroup():
    S = NumericalSemigroup([1])
    assert S.genus == 0 and S.conductor == 0 and S.is_symmetric
    assert S.ell(5) == 6
    assert S.rho(3) == 2
    assert S.order_bound(4) == 6  # nu(s) = s + 1 on the nonnegative integers


@pytest.mark.parametrize("a,b", [(a, b) for a in range(2, 21) for b in range(a + 1, 21) if math.gcd(a, b) == 1])
def test_two_generator_genus_formula(a, b):
    S = NumericalSemigroup([a, b])
    assert S.genus == (a - 1) * (b - 1) // 2
    assert S.conductor == (a - 1) * (b - 1)
    assert S.is_symmetric
    assert S.generators == (a, b)


def test_suzuki_semigroup():
    S = NumericalSemigroup([8, 10, 12, 13])
    assert S.genus == 14
    assert S.is_symmetric
    assert S.conductor == 28
    assert S.gaps == (1, 2, 3, 4, 5, 6, 7, 9, 11, 14, 15, 17, 19, 27)
    assert S.generators == (8, 10, 12, 13)


def test_not_symmetric():
    S = NumericalSemigroup([3, 5, 7])
    assert S.gaps == (1, 2, 4)
    assert not S.is_symmetric


def test_minimal_generating_system_reduction():
    S = NumericalSemigroup([4, 6, 9, 13])  # 13 = 4 + 9 is redundant
    assert S.generators == (4, 6, 9)
    assert S == NumericalSemigroup([4, 6, 9])


def test_ell_counts_and_plateau():
    S = NumericalSemigroup([3, 5])
    g = S.genus
    for m in range(0, 40):
        assert S.ell(m) == sum(1 for s in range(m + 1) if S.contains(s))
        if m >= 2 * g - 1:
            assert S.ell(m) == m + 1 - g
    assert S.ell(-3) == 0


def test_rho():
    S = NumericalSemigroup([2, 3])
    assert [S.rho(r) for r in range(1, 6)] == [0, 2, 3, 4, 5]
    T = NumericalSemigroup([8, 10, 12, 13])
    members = [s for s in range(60) if T.contains(s)]
    for r in range(1, len(members) + 1):
        assert T.rho(r) == members[r - 1]
        if T.rho(r) >= T.conductor:
            assert T.rho(r) == r + T.genus - 1
    with pytest.raises(ValueError):
        S.rho(0)


def test_dimension_set():
    S = NumericalSemigroup([2, 3])
    assert S.dimension_set(8) == [0, 2, 3, 4, 5, 6, 7, 9]
    T = NumericalSemigroup([8, 10, 12, 13])
    M = T.dimension_set(64)
    assert len(M) == 64
    assert M[0] == 0 and M[-1] == 64 + 2 * T.genus - 1  # symmetric: top is n + 2g - 1
    # every element of M is a member, and m - n never is
    for m in M:
        assert T.contains(m) and not T.contains(m - 64)


def test_nu_values():
    S = NumericalSemigroup([2, 3])
    assert S.nu(0) == 1
    assert S.nu(4) == 3  # (0,4), (2,2), (4,0)
    assert S.nu(6) == 5
    assert S.nu(1) == 0
    # index form: nu at the r-th member is r - genus once past 2 * conductor
    for r in range(5, 12):
        rho = S.rho(r)
        if rho >= 2 * S.conductor:
            assert S.nu(rho) == r - S.genus


def test_order_bound_small():
    S = NumericalSemigroup([2, 3])
    assert S.order_bound(5) == 5
    assert S.order_bound(0) == 2  # nu(2) = 2
    # brute force cross-check over a window big enough to include the tail
    for m in range(0, 12):
        brute = min(S.nu(s) for s in range(m + 1, m + 200) if S.contains(s))
        assert S.order_bound(m) == max(1, brute)


def test_order_bound_suzuki():
    T = NumericalSemigroup([8, 10, 12, 13])
    expected = {0: 2, 13: 3, 16: 4, 23: 4, 24: 4, 25: 6, 26: 6}
    for m, want in expected.items():
        assert T.order_bound(m) == want
    for m in [0, 8, 13, 16, 23, 26, 40, 60]:
        brute = min(T.nu(s) for s in range(m + 1, m + 300) if T.contains(s))
        assert T.order_bound(m) == max(1, brute)


# -- the whole-array steps against the loops they replaced -------------------------

ROOT = Path(__file__).resolve().parent.parent
CURVE_FILES = sorted(ROOT.glob("curves/*.json")) + sorted(ROOT.glob("perfbench/curves/*.json")) + [
    ROOT / "tests/data/suzuki32.json"
]


def loop_sieve(gens, bound):
    member = np.zeros(bound + 1, dtype=bool)
    member[0] = True
    for i in range(gens[0], bound + 1):
        for g in gens:
            if g <= i and member[i - g]:
                member[i] = True
                break
    return member


def loop_nu(S, s):
    if s < 0:
        return 0
    window = np.array([S.contains(a) for a in range(s + 1)])
    return int(np.count_nonzero(window & window[::-1]))


def loop_order_bound(S, m, nu):
    c, g = S.conductor, S.genus
    vals = [nu[s] for s in range(m + 1, 2 * c) if S.contains(s)]
    if m + 1 > 2 * c - 1:
        vals.append(m + 2 - 2 * g)
    return max(1, min(vals))


def loop_generators(S):
    return tuple(
        s for s in S.elements_up_to(S.conductor + S.multiplicity)
        if s and not any(S.contains(s - t) for t in S.elements_up_to(s - 1) if 0 < t)
    )


@pytest.mark.parametrize("path", CURVE_FILES, ids=lambda p: p.stem)
def test_whole_array_steps_match_the_loops_on_every_curve(path):
    S = curve_from_json(json.loads(path.read_text())).semigroup
    gens = sorted(S.generators)
    bound = 2 * S.conductor + S.multiplicity + 5
    assert (S._sieve(bound) == loop_sieve(gens, bound)).all()
    assert S.generators == loop_generators(S)
    top = 2 * S.conductor + 3
    nu = {s: loop_nu(S, s) for s in range(-2, top)}  # the old nu, once per s
    assert [S.nu(s) for s in range(-2, top)] == list(nu.values())
    assert [S.order_bound(m) for m in range(-1, top)] == [loop_order_bound(S, m, nu) for m in range(-1, top)]


@pytest.mark.parametrize("gens", [[1], [2, 3], [3, 5, 7], [4, 6, 9], [6, 7, 8, 9, 10, 11], [5, 11]])
def test_whole_array_steps_match_the_loops_on_small_semigroups(gens):
    S = NumericalSemigroup(gens)
    bound = 3 * S.conductor + 2 * max(gens)
    assert (S._sieve(bound) == loop_sieve(sorted(gens), bound)).all()
    assert S.generators == loop_generators(S)
    top = 2 * S.conductor + 3
    nu = {s: loop_nu(S, s) for s in range(-2, top)}  # the old nu, once per s
    assert [S.nu(s) for s in range(-2, top)] == list(nu.values())
    assert [S.order_bound(m) for m in range(-1, top)] == [loop_order_bound(S, m, nu) for m in range(-1, top)]
