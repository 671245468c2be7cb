"""Numerical semigroups and the Feng-Rao order bound.

A numerical semigroup is the set of nonnegative integers generated by a
finite set with gcd 1 (so the complement, the gap set, is finite).  These are
the pole-order semigroups of the curves in this package; their combinatorics
drive code dimensions and the order bound on dual minimum distances.
"""

from __future__ import annotations

import math

import numpy as np


def accumulate_classes(ufunc, values, g):
    """ufunc.accumulate down each residue class mod g of a 1-D array: entry s
    combines values[s % g], values[s % g + g], ..., values[s]."""
    padded = np.concatenate([values, np.zeros(-len(values) % g, values.dtype)])  # trails every class
    return ufunc.accumulate(padded.reshape(-1, g), axis=0).ravel()[: len(values)]


class NumericalSemigroup:
    def __init__(self, generators):
        gens = sorted(set(int(g) for g in generators))
        if not gens or gens[0] < 1:
            raise ValueError("generators must be positive integers")
        if math.gcd(*gens) != 1:
            raise ValueError(f"generators {gens} have gcd > 1: not a numerical semigroup")
        self._gens = gens
        bound = (gens[0] - 1) * (gens[-1] - 1) + gens[-1] + 2
        self._member = self._sieve(bound)
        # every integer from the conductor on is a member; certify by finding a
        # full window of multiplicity-many consecutive members, extending if needed
        while not self._member[-gens[0]:].all():
            bound *= 2
            self._member = self._sieve(bound)

        self._gaps = gaps = np.nonzero(~self._member)[0]
        self.gaps = tuple(int(v) for v in gaps)
        self.genus = len(self.gaps)
        self.conductor = int(gaps[-1]) + 1 if self.genus else 0
        self.multiplicity = gens[0]

        # nu(s) for every s in one convolution of the membership vector; the
        # window reaches 2 * conductor, past which nu(s) = s + 1 - 2 * genus,
        # and the largest minimal generator, below conductor + multiplicity
        size = max(2 * self.conductor, self.conductor + self.multiplicity + 1)
        if len(self._member) < size:  # every integer from the conductor on is a member
            self._member = np.concatenate([self._member, np.ones(size - len(self._member), dtype=bool)])
        counts = self._member[:size].astype(np.int64)
        self._nu = np.convolve(counts, counts)[:size]
        # minimal generating system: the nonzero members whose only sums of
        # two members are 0 + s and s + 0
        self.generators = tuple(int(s) for s in np.flatnonzero(self._member[:size] & (self._nu == 2)) if s)
        for table in (self._member, self._gaps, self._nu):  # a curve's semigroup is shared with its users
            table.setflags(write=False)

    def _sieve(self, bound):
        """Members in [0, bound]: closing {0} under each generator g in turn,
        a running OR down each residue class mod g."""
        member = np.arange(bound + 1) == 0
        for g in self._gens:
            member = accumulate_classes(np.logical_or, member, g)
        return member

    # -- membership and counting ------------------------------------------------

    def contains(self, s):
        if s < 0:
            return False
        if s < len(self._member):
            return bool(self._member[s])
        return True  # beyond the certified window, everything is a member

    def elements_up_to(self, m):
        """Sorted members in [0, m]."""
        if m < 0:
            return []
        inside = min(m, len(self._member) - 1)
        out = np.flatnonzero(self._member[: inside + 1]).tolist()
        out.extend(range(inside + 1, m + 1))
        return out

    def ell(self, m):
        """Number of members in [0, m] (the dimension of L(mQ) on a curve), for an int or an int array:
        the m + 1 integers in [0, m] less the gaps among them; an int from the conductor on, exactly."""
        if not isinstance(m, np.ndarray) and m >= self.conductor:
            return int(m) + 1 - self.genus  # every gap lies below m, and m may exceed int64
        r = np.maximum(m + 1 - self._gaps.searchsorted(m, side="right"), 0)
        return r if isinstance(m, np.ndarray) else int(r)

    def rho(self, r):
        """The r-th member, 1-indexed: rho(1) = 0."""
        if r < 1:
            raise ValueError("rho is 1-indexed")
        below = self.conductor - self.genus  # members strictly below the conductor
        if r <= below:
            return self.elements_up_to(self.conductor - 1)[r - 1]
        return self.conductor + (r - below - 1)

    def dimension_set(self, n):
        """The n pole orders where an n-point evaluation code grows: S minus (n + S)."""
        out = [s for s in self.elements_up_to(n + self.conductor) if not self.contains(s - n)]
        assert len(out) == n
        return out

    # -- Feng-Rao machinery -------------------------------------------------------

    def nu(self, s):
        """Number of ordered pairs of members summing to s."""
        if s < 0:
            return 0
        if s < len(self._nu):
            return int(self._nu[s])
        return s + 1 - 2 * self.genus

    def order_bound(self, m):
        """min nu(s) over members s > m: the Feng-Rao floor of d(C(mQ)^perp).

        nu(s) = s + 1 - 2*genus for s >= 2*conductor - 1 and is increasing
        there, so the members below the threshold plus one tail value are exact.
        """
        c, g = self.conductor, self.genus
        if m + 1 > 2 * c - 1:
            return max(1, m + 2 - 2 * g)
        lo = max(m + 1, 0)
        return max(1, int(self._nu[lo : 2 * c][self._member[lo : 2 * c]].min()))

    def __repr__(self):
        return f"<{', '.join(map(str, self.generators))}>"

    def __eq__(self, other):
        return isinstance(other, NumericalSemigroup) and other.generators == self.generators

    def __hash__(self):
        return hash(self.generators)
