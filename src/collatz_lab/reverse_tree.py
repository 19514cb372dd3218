"""Reverse maps: affine inverse steps and the odd-candidate tree.

The even-to-even engine steps forward from u to u'.  Each such step is an
affine map with slope 3**alpha / 2**(alpha+beta), so it inverts exactly:

    z' = (2**(alpha+beta) / 3**alpha) z - 2**beta (3**alpha - 2**alpha) / 3**alpha

with alpha read from the odd companion (alpha = ruler(v+1) - 1) and beta
from the even value itself (beta = ruler(u) - 1); both are at least one.
Compositions of inverse steps stay affine, and a path is a fixed point of
its own composition exactly when

    z0 = -2**beta (3**alpha - 2**alpha) / (3**alpha - 2**(alpha+beta)),

which `steiner_search` sweeps for integer solutions; on any rectangular grid
tested, only (alpha, beta) = (1, 1) with z0 = 2 qualifies.

The candidate enumeration works on odd numbers not divisible by three,
w = 1, 5, 7, 11, 13, ...  Each candidate w generates z = (w+1)(3/2)**e - 1
with e = ruler((w+1)/2), and the parent of w is the odd part of z.  A node
therefore carries the pair (w, z) and the edge child -> parent satisfies
parent = 2z / 2**ruler(z).  Every parent has infinitely many preimages: if
z_m and z_n share an odd part, then z_m = 2**k z_n with
k = ruler(z_m) - ruler(z_n).  (Stated elsewhere with the power misplaced;
the exponent form here is the consistent one.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from collatz_lab import kernels
from collatz_lab.errors import DomainError, require_int

if TYPE_CHECKING:
    from fractions import Fraction


class AffineStep(NamedTuple("AffineStep", [("alpha", int), ("beta", int)])):
    """One inverse step, determined by the exponent pair (alpha, beta);
    `apply` holds its formula, and the slope and intercept are read off it."""

    __slots__ = ()

    def __new__(cls, alpha: int, beta: int) -> AffineStep:
        require_int(alpha, "alpha", 1)
        require_int(beta, "beta", 1)
        return super().__new__(cls, alpha, beta)

    @property
    def slope(self) -> Fraction:
        return self.apply(1) - self.intercept

    @property
    def intercept(self) -> Fraction:
        return self.apply(0)

    def apply(self, z) -> int | Fraction:
        # slope * z + intercept over the one denominator 3^alpha; an int when
        # that divides, so an integer round trip loads no `fractions`.  A
        # plain import: on Python 3.11 the from-form costs about 1 us a call.
        a, b = self.alpha, self.beta
        numerator = 2 ** (a + b) * z - 2**b * (3**a - 2**a)
        quotient, remainder = divmod(numerator, 3**a)
        if not remainder:
            return quotient
        import fractions

        return fractions.Fraction(numerator, 3**a)


class PathComposition(NamedTuple):
    """Affine composition of a sequence of inverse steps."""

    slope: Fraction
    intercept: Fraction
    length: int

    def apply(self, z0) -> Fraction:
        return self.slope * z0 + self.intercept


class WZNode(NamedTuple):
    """Tree vertex: candidate w and the z its own step generates."""

    w: int
    z: int


class Orphan(NamedTuple):
    """Candidate not reachable from the root; parent recorded for reporting."""

    w: int
    parent: int


class WZTree(NamedTuple):
    root: WZNode
    candidate_bound: int
    depth_bound: int
    nodes: tuple[WZNode, ...]              # in breadth-first order
    depths: dict[int, int]                 # w -> depth, root at 0
    children: dict[int, tuple[int, ...]]   # parent w -> child ws, ascending
    parents: dict[int, int]                # child w -> parent w (root maps to itself)
    orphans: tuple[Orphan, ...]


class CycleScanReport(NamedTuple):
    candidate_bound: int
    step_budget: int
    cycles: tuple[tuple[int, ...], ...]
    reached_root: int
    budget_exhausted: tuple[int, ...]


class MultiplicityResult(NamedTuple):
    count: int
    preimages: tuple[int, ...]


def w_candidate(m: int) -> int:
    """m-th odd natural not divisible by three: (6m + (-1)**m - 3) / 2 for m >= 1."""
    require_int(m, "m", 1)
    return _candidate(m)


def _candidate(m: int) -> int:
    # w_candidate unvalidated, with (-1)**m as 1 - 2 (m & 1): 3m - 1 for
    # even m, 3m - 2 for odd.  The package's own loops call it directly.
    return 3 * m - 1 - (m & 1)


def _require_candidate(w: int, name: str = "w") -> None:
    require_int(w, name, 1)
    if w % 2 == 0 or w % 3 == 0:
        raise DomainError(f"{name} must be odd and not divisible by 3, got {w}")


def z_from_w(w: int) -> int:
    """z = (w + 1) * (3/2)**e - 1 with e = ruler((w+1)/2): the accelerated step of w."""
    _require_candidate(w)
    return kernels.apt_step(w)


def w_from_z(z: int) -> int:
    """Parent candidate of z: 2z / 2**ruler(z), the odd part of z."""
    require_int(z, "z", 1)
    return kernels.odd_part(z)


def w_forward(w: int) -> int:
    """Parent of candidate w: one generated z, reduced to its odd part."""
    return w_from_z(z_from_w(w))


def reverse_affine_step(z, alpha: int, beta: int) -> int | Fraction:
    """Apply one inverse step to z; exact rational, an int on valid orbits."""
    return AffineStep(alpha, beta).apply(z)


def compose_path(steps) -> PathComposition:
    """Fold inverse steps (applied first-to-last) into one affine map."""
    steps = [AffineStep(*s) for s in steps]
    if not steps:
        raise DomainError("compose_path requires at least one step")
    slope, intercept = steps[0].slope, steps[0].intercept
    for s in steps[1:]:
        slope = s.slope * slope
        intercept = s.slope * intercept + s.intercept
    return PathComposition(slope, intercept, len(steps))


def steiner_search(alpha_max: int, beta_max: int) -> list[tuple[int, int, int]]:
    """Grid-scan fixed points of single inverse steps.

    Returns every (alpha, beta, z0) with 1 <= alpha <= alpha_max,
    1 <= beta <= beta_max whose fixed point z0 is a positive integer.
    """
    require_int(alpha_max, "alpha_max", 1)
    require_int(beta_max, "beta_max", 1)
    hits = []
    for alpha in range(1, alpha_max + 1):
        pow3 = 3**alpha
        pow2 = 2**alpha
        for beta in range(1, beta_max + 1):
            denom = (pow2 << beta) - pow3
            if denom <= 0:
                continue
            numer = (pow3 - pow2) << beta
            if numer % denom == 0:
                hits.append((alpha, beta, numer // denom))
    return hits


def build_tree(candidate_bound: int, depth_bound: int) -> WZTree:
    """Bucket the first candidate_bound candidates under their parents and
    walk breadth-first from the root candidate 1.

    One pass over the candidates computes each z and parent and appends the
    candidate to its parent's bucket, which stays ascending because the
    candidates grow with m; the walk then visits buckets, level by level.
    The root's generated z is 2 and its parent is itself; that self-loop is
    kept as an explicit marked edge, not recursed.  Candidates whose parent
    chain leaves the enumerated set (or lies beyond depth_bound) end up in
    the orphan pool with their computed parent attached.
    """
    require_int(candidate_bound, "candidate_bound", 1)
    require_int(depth_bound, "depth_bound", 0)
    z_of: dict[int, int] = {}   # insertion order is m order
    parent_of: dict[int, int] = {}
    bucket: dict[int, list[int]] = {}
    for w in map(_candidate, range(1, candidate_bound + 1)):
        z_of[w] = z = kernels.apt_step(w)
        parent_of[w] = parent = kernels.odd_part(z)
        bucket.setdefault(parent, []).append(w)

    depths = {1: 0}   # the nodes so far, in breadth-first order
    frontier = [1]
    for depth in range(1, depth_bound + 1):
        # the root's self-loop is recorded, not walked
        frontier = [c for p in frontier for c in bucket.get(p, ()) if c != p]
        if not frontier:
            break
        depths.update(dict.fromkeys(frontier, depth))

    # A node above the last level has its whole bucket in the tree; a node on
    # it, only a self-loop, which only the root has.
    children = {
        w: tuple(kids if depths[w] < depth_bound else (c for c in kids if c in depths))
        for w in depths
        if (kids := bucket.get(w))
    }
    return WZTree(
        root=WZNode(1, z_of[1]),
        candidate_bound=candidate_bound,
        depth_bound=depth_bound,
        nodes=tuple(WZNode(w, z_of[w]) for w in depths),
        depths=depths,
        children=children,
        parents={w: parent_of[w] for w in depths},
        orphans=tuple(Orphan(w, p) for w, p in parent_of.items() if w not in depths),
    )


def cycle_scan(candidate_bound: int, step_budget: int) -> CycleScanReport:
    """Iterate the parent map from every candidate, recording any cycles.

    Each orbit stops on reaching the root value 1, on revisiting a value
    from the same orbit (a cycle, canonicalized to start at its smallest
    element), or on running out of budget.
    """
    require_int(candidate_bound, "candidate_bound", 1)
    require_int(step_budget, "step_budget", 1)
    cycles: list[tuple[int, ...]] = []
    seen_cycles = set()
    reached = 0
    exhausted = []
    for w in map(_candidate, range(1, candidate_bound + 1)):
        orbit = [w]
        index_of = {w: 0}
        for _ in range(step_budget):
            w = kernels.odd_part(kernels.apt_step(w))
            if w in index_of:
                cyc = tuple(orbit[index_of[w]:])
                pivot = cyc.index(min(cyc))
                canon = cyc[pivot:] + cyc[:pivot]
                if canon not in seen_cycles:
                    seen_cycles.add(canon)
                    cycles.append(canon)
                break
            if w == 1:
                reached += 1
                break
            index_of[w] = len(orbit)
            orbit.append(w)
        else:   # neither a cycle nor the root within the budget
            exhausted.append(orbit[0])
    cycles.sort(key=lambda c: (len(c), c))
    return CycleScanReport(
        candidate_bound=candidate_bound,
        step_budget=step_budget,
        cycles=tuple(cycles),
        reached_root=reached,
        budget_exhausted=tuple(exhausted),
    )


def multiplicity(target: int, candidate_bound: int) -> MultiplicityResult:
    """Count candidates among the first candidate_bound mapping onto target."""
    _require_candidate(target, "target")
    require_int(candidate_bound, "candidate_bound", 1)
    pre = tuple(
        w
        for w in map(_candidate, range(1, candidate_bound + 1))
        if kernels.odd_part(kernels.apt_step(w)) == target
    )
    return MultiplicityResult(len(pre), pre)
