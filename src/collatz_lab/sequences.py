"""Step maps and orbit tracing for the Collatz family.

The maps, in increasing degree of acceleration:

* ``collatz_step``: n/2 for even n, 3n+1 for odd n.
* ``terras_step``: n/2 for even n, (3n+1)/2 for odd n (the half-step map).
* ``g_step``: generalized half-step (an+b)/2 for odd n, parameters validated
  by :class:`GParams`.
* ``gapt_step`` / ``apt_step``: one whole parity run of g_step in closed
  form; ``apt_step`` is the (a, b) = (3, 1) case.
* ``mapt_even_step`` / ``mapt_odd_step``: the same acceleration indexed by
  the interleave/shifted-ruler pair instead of the value itself.
* ``emapt_step_pq`` / ``emapt_step_ruler``: even-to-even condensation (two
  accelerated steps fused), in two algebraic forms that must agree.
* ``omapt_step``: odd-to-odd condensation.
* ``x_step``: the even-to-even map transported to indices via u = 6x + 2.

``trace`` iterates any of these to a target value under a step budget and
never treats budget exhaustion as an error.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from collatz_lab import kernels
from collatz_lab.errors import ConfigurationError, DomainError, require_int

DEFAULT_MAGNITUDE_CEILING = 2**4096

#: Target value a trace runs toward, per kind.
DEFAULT_TARGETS = {
    "C": 1,
    "T": 1,
    "G": 1,
    "H": 1,
    "A": 1,
    "U": 2,
    "V": 1,
    "X": 0,
}

TRACE_KINDS = tuple(DEFAULT_TARGETS)


class GParams(NamedTuple("GParams", [("a", int), ("b", int)])):
    """Parameters (a, b) of the generalized odd step (an + b) / 2.

    Both must be odd, a >= 3, b >= 1, and a - 2 must divide b so that the
    translation constant c = b / (a - 2) is a positive odd integer.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> GParams:
        require_int(a, "a", 3, ConfigurationError)
        require_int(b, "b", 1, ConfigurationError)
        if a % 2 == 0 or b % 2 == 0:
            raise ConfigurationError(f"a and b must be odd, got {a}, {b}")
        if b % (a - 2) != 0:
            raise ConfigurationError(f"a - 2 = {a - 2} must divide b = {b}")
        return super().__new__(cls, a, b)

    @property
    def c(self) -> int:
        return self.b // (self.a - 2)


class ParityFlip(NamedTuple):
    """Result of collapsing one parity run: landing value and run length."""

    input: int
    output: int
    run_length: int


class Outcome(str, Enum):
    REACHED_TARGET = "reached-target"
    BUDGET_EXHAUSTED = "budget-exhausted"
    DOMAIN_STOP = "domain-stop"


class Trace(NamedTuple):
    kind: str
    start: int
    elements: tuple[int, ...]
    outcome: Outcome
    stopping_time: int | None


class StatsRow(NamedTuple):
    """Orbit lengths down to 1 for one start; None where the budget ran out."""

    n: int
    c_len: int | None
    t_len: int | None
    a_len: int | None
    exhausted: bool


class StatsTable(NamedTuple):
    lo: int
    hi: int
    budget: int
    rows: tuple[StatsRow, ...]


def collatz_step(n: int) -> int:
    """n/2 for even n, 3n+1 for odd n."""
    require_int(n, "n", 1)
    return n >> 1 if n & 1 == 0 else 3 * n + 1


def terras_step(n: int) -> int:
    """n/2 for even n, (3n+1)/2 for odd n."""
    require_int(n, "n", 1)
    return n >> 1 if n & 1 == 0 else (3 * n + 1) >> 1


def g_step(n: int, params: GParams) -> int:
    """n/2 for even n, (an+b)/2 for odd n."""
    require_int(n, "n", 1)
    return n >> 1 if n & 1 == 0 else (params.a * n + params.b) >> 1


def parity_flip(g0: int, params: GParams) -> ParityFlip:
    """Collapse the parity run of g_step starting at g0 into one closed form.

    An even g0 keeps halving for mu = ruler(g0 / 2) steps and lands on its
    odd part.  An odd g0 applies the odd rule nu = ruler((g0 + c) / 2) times
    and lands on a**nu * (g0 + c) / 2**nu - c; nu is exactly the 2-adic
    valuation of g0 + c, so the division is exact.
    """
    require_int(g0, "g0", 1)
    if g0 & 1 == 0:
        mu = kernels.ruler(g0) - 1
        return ParityFlip(g0, g0 >> mu, mu)
    shifted = g0 + params.c
    nu = kernels.ruler(shifted) - 1
    return ParityFlip(g0, params.a**nu * (shifted >> nu) - params.c, nu)


def gapt_step(n: int, params: GParams) -> int:
    """Landing value of the parity run; parity always flips."""
    return parity_flip(n, params).output


def apt_step(n: int) -> int:
    """gapt_step with (a, b) = (3, 1); the workhorse accelerated map."""
    require_int(n, "n", 1)
    return kernels.apt_step(n)


def mapt_even_step(i: int) -> tuple[int, int]:
    """Even value indexed by i and its accelerated successor.

    Returns ((2 p(i) + 1) * 2**q(i), 2 p(i) + 1); the value is 2(i + 1) and
    the successor is its odd part.
    """
    require_int(i, "i", 0)
    odd = 2 * kernels.interleave_p(i) + 1
    return odd << kernels.shifted_ruler_q(i), odd


def mapt_odd_step(j: int) -> tuple[int, int]:
    """Odd value indexed by j and its accelerated successor.

    Returns ((2 p(j) + 1) * 2**q(j) - 1, (2 p(j) + 1) * 3**q(j) - 1); the
    value is 2j + 1 and the successor swaps the power base from 2 to 3.
    """
    require_int(j, "j", 0)
    odd = 2 * kernels.interleave_p(j) + 1
    q = kernels.shifted_ruler_q(j)
    return (odd << q) - 1, odd * 3**q - 1


def _require_even(u: int, name: str = "u") -> None:
    require_int(u, name, 2)
    if u & 1:
        raise DomainError(f"{name} must be even, got {u}")


def _require_odd(v: int, name: str = "v") -> None:
    require_int(v, name, 1)
    if v & 1 == 0:
        raise DomainError(f"{name} must be odd, got {v}")


def emapt_step_pq(u: int) -> int:
    """Even successor of even u via the interleave/shifted-ruler indices."""
    _require_even(u)
    return kernels.emapt_step_pq(u)


def emapt_step_ruler(u: int) -> int:
    """Even successor of even u via ruler values only; agrees with the pq form."""
    _require_even(u)
    return kernels.emapt_step_ruler(u)


def omapt_step(v: int) -> int:
    """Odd successor of odd v; two accelerated steps fused."""
    _require_odd(v)
    return kernels.omapt_step(v)


def u_to_v(u: int) -> int:
    """Odd companion of even u: 2u / 2**ruler(u), the odd part of u."""
    _require_even(u)
    return kernels.odd_part(u)


def x_step(x: int) -> int:
    """Index image of the even-to-even step: 6 x_step(x) + 2 = emapt(6x + 2)."""
    require_int(x, "x", 0)
    return kernels.x_step(x)


# --- tracing -----------------------------------------------------------------


def _validate_start(kind: str, start: int) -> None:
    if kind == "X":
        require_int(start, "start", 0)
    elif kind == "U":
        _require_even(start, "start")
    elif kind == "V":
        _require_odd(start, "start")
    else:
        require_int(start, "start", 1)


def trace(
    kind: str,
    start: int,
    budget: int,
    target: int | None = None,
    params: GParams | None = None,
    magnitude_ceiling: int | None = None,
) -> Trace:
    """Iterate the kind's step from start until target, budget, or blow-up.

    The target defaults per kind (1 for C/T/G/H/A/V, 2 for U, 0 for X).
    Budget exhaustion is a normal outcome, not an error.  For generalized
    kinds (G/H) with a >= 5 a magnitude ceiling (default 2**4096) guards
    against divergent orbits; crossing it yields a DOMAIN_STOP outcome with
    the oversized element included.
    """
    if kind not in DEFAULT_TARGETS:
        raise ConfigurationError(f"unknown trace kind {kind!r}")
    require_int(budget, "budget", 1)
    _validate_start(kind, start)

    if kind in ("G", "H"):
        if params is None:
            raise ConfigurationError(f"kind {kind} requires GParams")
        if kind == "G":
            step = lambda n: g_step(n, params)
        else:
            step = lambda n: gapt_step(n, params)
        ceiling = magnitude_ceiling
        if ceiling is None and params.a >= 5:
            ceiling = DEFAULT_MAGNITUDE_CEILING
    else:
        step = {
            "C": collatz_step,
            "T": terras_step,
            "A": kernels.apt_step,
            "U": kernels.emapt_step_pq,
            "V": kernels.omapt_step,
            "X": kernels.x_step,
        }[kind]
        ceiling = magnitude_ceiling

    if target is None:
        target = DEFAULT_TARGETS[kind]

    elements = [start]
    x = start
    outcome = Outcome.BUDGET_EXHAUSTED
    for _ in range(budget):
        if x == target:
            break
        x = step(x)
        elements.append(x)
        if ceiling is not None and x > ceiling:
            outcome = Outcome.DOMAIN_STOP
            break
    if x == target:
        outcome = Outcome.REACHED_TARGET
    stopping_time = len(elements) - 1 if outcome is Outcome.REACHED_TARGET else None
    return Trace(kind, start, tuple(elements), outcome, stopping_time)


def stopping_stats(lo: int, hi: int, budget: int, workers: int = 1) -> StatsTable:
    """Orbit-length table for n in [lo, hi] under the plain, half-step and
    accelerated maps; rows where any orbit exhausted the budget are flagged."""
    require_int(lo, "lo", 1)
    require_int(hi, "hi", lo)
    require_int(budget, "budget", 1)
    require_int(workers, "workers", 1, ConfigurationError)
    from collatz_lab.parallel import run_chunked

    workers = max(1, min(workers, (hi - lo + 1) // _STATS_MIN_INPUTS))
    parts = run_chunked(_stats_span, lo, hi, workers, args=(budget,))
    lengths = (triple for part in parts for triple in part)
    # `_make` skips the generated keyword `__new__`, and is looked up once:
    # a lookup per row costs what it saves.
    make = StatsRow._make
    return StatsTable(lo, hi, budget, tuple(
        make((n, None if c < 0 else c, None if t < 0 else t,
              None if a < 0 else a, c < 0 or t < 0 or a < 0))
        for n, (c, t, a) in zip(range(lo, hi + 1), lengths)
    ))


def _stats_span(lo: int, hi: int, budget: int) -> list[tuple[int, int, int]]:
    """`kernels.orbit_lengths` of each n in [lo, hi]: plain tuples pickle
    back from a pool worker in a tenth of the time `StatsRow`s take."""
    return [kernels.orbit_lengths(n, budget) for n in range(lo, hi + 1)]


#: The fewest rows that repay a forked process: about 10 ms of pure work at
#: 2.1 us a row (ROADMAP item 14).
_STATS_MIN_INPUTS = 5_000
