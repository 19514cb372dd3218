"""Exact index arithmetic: ruler values, the interleave map, and bit splits.

Three small functions generate everything else in the package:

* ``ruler(n)``: position of the lowest set bit of n, counted from one.
* ``interleave_p(n)``: the self-interleaving map with p(2n) = n and
  p(2n+1) = p(n); every natural number appears infinitely often.
* ``shifted_ruler_q(n)``: ruler value of n + 1, i.e. the count of trailing
  one-bits of n, plus one.

Together they index the positive integers: 2(n+1) factors as
(2 p(n) + 1) * 2**q(n), and 2n+1 is that value minus one.  The reconstruction
helpers and the two split functions below expose those representations.
"""

from __future__ import annotations

from typing import NamedTuple

from collatz_lab import kernels
from collatz_lab.errors import InnerSplitUndefined, require_int


class IndexTuple(NamedTuple):
    """The (p, q) pair attached to an index n; q is always at least one."""

    p: int
    q: int


class OddShiftRep(NamedTuple):
    """Representation m = (2i + 1) * 2**j - 1 with j maximal."""

    i: int
    j: int

    def value(self) -> int:
        return (2 * self.i + 1) * 2**self.j - 1


class ThreeTuple(NamedTuple):
    """Nested split (j, k, l): m = (2i+1)2**j - 1 with i = (2k+1)2**l - 1."""

    j: int
    k: int
    l: int


def ruler(n: int) -> int:
    """Largest e such that 2**e divides 2n.  Defined for n >= 1."""
    require_int(n, "n", 1)
    return kernels.ruler(n)


def interleave_p(n: int) -> int:
    """p(0) = 0, p(2n) = n, p(2n+1) = p(n)."""
    require_int(n, "n", 0)
    return kernels.interleave_p(n)


def shifted_ruler_q(n: int) -> int:
    """q(n) = ruler(n + 1); equivalently q(0) = 1, q(2n) = 1, q(2n+1) = q(n)+1."""
    require_int(n, "n", 0)
    return kernels.shifted_ruler_q(n)


def index_pair(n: int) -> IndexTuple:
    """Both index values at once."""
    require_int(n, "n", 0)
    return IndexTuple(kernels.interleave_p(n), kernels.shifted_ruler_q(n))


def even_from_index(n: int) -> int:
    """(2 p(n) + 1) * 2**q(n); always equals 2(n + 1)."""
    require_int(n, "n", 0)
    return (2 * kernels.interleave_p(n) + 1) << kernels.shifted_ruler_q(n)


def odd_from_index(n: int) -> int:
    """even_from_index(n) - 1; always equals 2n + 1."""
    return even_from_index(n) - 1


def odd_shift_split(m: int) -> OddShiftRep:
    """Split m >= 1 as (2i + 1) * 2**j - 1 with j maximal: i = p(m), j = q(m) - 1."""
    require_int(m, "m", 1)
    return OddShiftRep(kernels.interleave_p(m), kernels.shifted_ruler_q(m) - 1)


def three_tuple(m: int) -> ThreeTuple:
    """Nested split of m; requires the inner index i to be positive.

    For m = 2**j - 1 the outer split gives i = 0 and the inner split is
    undefined; callers should fall back to interleave_p / shifted_ruler_q
    directly.  The components satisfy p(p(m)) = k and q(p(m)) = l + 1.
    """
    i, j = odd_shift_split(m)
    if i == 0:
        raise InnerSplitUndefined(
            f"inner split undefined for m = {m} = 2**{j} - 1"
        )
    return ThreeTuple(j, kernels.interleave_p(i), kernels.shifted_ruler_q(i) - 1)
