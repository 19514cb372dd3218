"""Pure-Python integer kernels.

Reference implementations of the hot inner loops.  `collatz_lab.kernels`
star-imports this module, then `collatz_lab._fast` over it when that
extension imports: every name here without a leading underscore is a
kernel, and each compiled twin takes its function's place.  Each twin must
agree with its function here on every input (the tests run the step, scan
and span suites on both).  The functions with no twin run from here on
both backends; `PURE_ONLY` in tests/test_kernels.py names them, and the
tests check them against literal loops.
Functions here assume validated arguments (the checked public surface
lives in `arith`, `sequences` and `reverse_tree`); a negative
`interleave_p` argument or an orbit start below 1 raises ValueError rather
than loop or index the tables.  Everything is plain-int arithmetic, so
arbitrarily large values are handled natively.

The range kernels at the end run a whole `verify` span in one call (all
but `scan_emapt_forms`, which only a benchmark probe calls).  The scans
and `span_linear_fixed_point` call a step kernel per input; the residue,
parity-run and dual-form spans write the formulas out inline, so that no
element pays a function call.  The two residue spans share one walk to 2,
and the three orbit-walk spans run the stopping walk or the covering walk
per start; these five keep a memo of the tails that earlier seeds or
starts of the span finished.  The tests compare each range kernel with the
literal checker loop (`tests/oracles.py`).
"""

import operator as _operator


def ruler(n):
    """Position of the lowest set bit of n, counted from one.

    Equals the 2-adic valuation of 2n: 1 for odd n, 2 for n = 2 mod 4, ...
    """
    return (n & -n).bit_length()


def interleave_p(n):
    # p(2n) = n, p(2n+1) = p(n): halve through the odd prefix, then once more.
    if n < 0:   # -1 >> 1 is -1: the odd prefix of a negative n never ends
        raise ValueError(f"interleave_p needs n >= 0, got {n}")
    while n & 1:
        n >>= 1
    return n >> 1


def shifted_ruler_q(n):
    """Ruler value of n + 1; counts the trailing one-bits of n, plus one."""
    m = n + 1
    return (m & -m).bit_length()


def odd_part(n):
    return n >> ((n & -n).bit_length() - 1)


def apt_step(n):
    """One full parity run of the half-step map, in closed form.

    Even n drops to its odd part; odd n lands on 3^e * ((n+1)/2^e) - 1 where
    e is the 2-adic valuation of n + 1.  The shift is exact by choice of e.
    """
    if n & 1 == 0:
        return n >> ((n & -n).bit_length() - 1)
    m = n + 1
    e = (m & -m).bit_length() - 1
    return 3**e * (m >> e) - 1


def emapt_step_pq(u):
    """Even-to-even accelerated step via the interleave/shifted-ruler pair."""
    m = interleave_p((u - 2) >> 1)
    return (2 * interleave_p(m) + 1) * 3 ** shifted_ruler_q(m) - 1


def emapt_step_ruler(u):
    """Even-to-even accelerated step via ruler values only.

    Defined for any u >= 1 (odd u gives the step out of an odd seed); the
    public API restricts it to even u, the checkers use the odd case too.
    """
    return apt_step(odd_part(u))


def omapt_step(v):
    """Odd-to-odd accelerated step."""
    m = (v - 1) >> 1
    k = ((2 * interleave_p(m) + 1) * 3 ** shifted_ruler_q(m) - 3) >> 1
    return 2 * interleave_p(k) + 1


def x_step(x):
    """Index form of the even-to-even step: x maps to (emapt(6x+2) - 2) / 6."""
    m = interleave_p(3 * x)
    return ((2 * interleave_p(m) + 1) * 3 ** (shifted_ruler_q(m) - 1) - 1) >> 1


def _c_step(n):
    return n >> 1 if n & 1 == 0 else 3 * n + 1


def _t_step(n):
    return n >> 1 if n & 1 == 0 else (3 * n + 1) >> 1


def covering_chain(n, budget):
    """Element counts of the three orbits from n down to 1, plus containment.

    Returns (c_len, t_len, a_len, ok).  A length is -1 when the step budget
    ran out before reaching 1.  ok is 1 when the accelerated orbit embeds in
    the half-step orbit embeds in the plain orbit (ordered subsequences),
    0 when an embedding fails, -1 when any orbit is unfinished.  n < 1
    raises ValueError.
    """
    budget = _operator.index(budget)   # a float raises TypeError, as in _fast
    if n < 1:
        raise ValueError(f"orbits start at n >= 1, got {n}")
    return _lock_step(n, budget, None)


def _lock_step(n, budget, tails):
    """`covering_chain(n, budget)`, with a span's memo `tails` or None.

    The three walks advance together and store nothing: each accelerated
    value steps the half-step walk until equal, and each half-step value the
    plain walk (the greedy, consuming match of an ordered subsequence; no
    map fixes the value a walk stands on, so each steps at least once).  A
    walk that reaches 1 or its budget unmatched breaks the embedding; then
    each walk finishes on its own to count its length.

    After each accelerated step the three walks stand on one value x, as at
    the start of the walk from x, so what is left is that walk.  `tails`
    maps such an x to the plain, half-step and accelerated step counts from
    x to 1 of a walk that embedded; a known x ends the walk, and a walk that
    reaches 1 with ok = 1 stores the tail of every x it passed.
    """
    c = t = a = n
    c_steps = t_steps = a_steps = 0
    ok = 1
    path = []
    while a != 1 and a_steps < budget:
        a = apt_step(a)
        a_steps += 1
        while t != a and t != 1 and t_steps < budget:
            t = _t_step(t)
            t_steps += 1
            while c != t and c != 1 and c_steps < budget:
                c = _c_step(c)
                c_steps += 1
            if c != t:
                break
        if t != a or c != t:
            ok = 0
            break
        if tails is not None and a != 1:
            tail = tails.get(a)
            if tail is not None:
                c_steps += tail[0]
                t_steps += tail[1]
                a_steps += tail[2]
                c = t = a = 1
                break
            path.append((a, c_steps, t_steps, a_steps))
    lengths = []
    walks = ((_c_step, c, c_steps), (_t_step, t, t_steps), (apt_step, a, a_steps))
    for step, x, steps in walks:
        while x != 1 and steps < budget:
            x = step(x)
            steps += 1
        # Only a splice passes the budget; n = 1 counts 1 whatever the budget.
        lengths.append(steps + 1 if x == 1 and steps <= max(budget, 0) else -1)
    if -1 in lengths:
        return (*lengths, -1)
    if ok == 1:
        c_len, t_len, a_len = lengths
        for x, c_steps, t_steps, a_steps in path:
            if len(tails) >= _TAILS_CAP:
                tails.clear()
            tails[x] = (c_len - 1 - c_steps, t_len - 1 - t_steps, a_len - 1 - a_steps)
    return (*lengths, ok)


# --- stopping counts by 2^k block jumps --------------------------------------
#
# Terras (1976): T^k(2^k a + b) = 3^c(b) a + T^k(b) for every integer a, where
# c(b) counts the odd values among b, T(b), ..., T^(k-1)(b), and those k
# values have the parities of the first k values of the orbit of 2^k a + b.
# So one lookup on the low k bits advances the half-step orbit k steps, c(b)
# of them odd, and says where its parity runs start.  T at most halves, so
# while n >= 2^k none of the k values jumped over is 1 and every step counted
# lies before 1.  An odd T-step is two plain steps (3n + 1, then the halving),
# so the plain-map count is the T-step count plus the odd T-step count.
# The even-only count is a corollary, not a second walk: (R + 1) / 2 for the
# accelerated count R of an even u != 2 (see `emapt_stopping`).

_K = 12
_BLOCK = 1 << _K
_MASK = _BLOCK - 1

#: (block table, small tails); built on the first stopping call.
_STOP_TABLES = None

#: Entries a span's tail memo holds before it is cleared: a constant, so a
#: span's memory does not grow with its window.
_TAILS_CAP = 1 << 14


def _block_table():
    """Per k-bit residue b: (3^c(b), T^k(b), parity changes among the k
    parities after the first, the last of the k parities, c(b))."""
    powers = [3**c for c in range(_K + 1)]
    table = []
    for b in range(_BLOCK):
        x = b
        odd = changes = 0
        last = b & 1
        for _ in range(_K):
            p = x & 1
            changes += p != last
            odd += p
            last = p
            x = (3 * x + 1) >> 1 if p else x >> 1
        table.append((powers[odd], x, changes, last, odd))
    return table


def _small_tails():
    """Per start m < 2^k, its tail: the parity runs, T-steps and odd T-steps
    of its T-orbit before 1, m opening the first run.  Smallest m first:
    accelerated steps take m below itself to x, then add x's counts.  An
    accelerated step from x is e T-steps, all odd when x is, where 2^e
    exactly divides x or x + 1."""
    tails = [None, (0, 0, 0)]
    for m in range(2, _BLOCK):
        x = m
        runs = steps = odd = 0
        while x >= m:
            p = x & 1
            e = ruler(x + p) - 1
            steps += e
            odd += e * p
            x = apt_step(x)
            runs += 1
        x_runs, x_steps, x_odd = tails[x]
        tails.append((runs + x_runs, steps + x_steps, odd + x_odd))
    return tails


def _stop_tables():
    global _STOP_TABLES
    if _STOP_TABLES is None:
        _STOP_TABLES = (_block_table(), _small_tails())
    return _STOP_TABLES


def orbit_lengths(n, budget, tails=None):
    """Element counts (c_len, t_len, a_len) of the plain, half-step and
    accelerated orbits from n down to 1, each -1 when its own orbit needs
    more than budget steps; equal to `covering_chain(n, budget)[:3]`.

    One block walk, k = 12 half-steps per table lookup, counts the parity
    runs, the T-steps and the odd T-steps.  Runs <= T-steps <= plain steps,
    so once the runs pass the budget every orbit has.  Below 2^k the walk
    splices on the small table's tail of the value it stands on, less one
    run when that value continues the last run.  n = 1 gives (1, 1, 1)
    whatever the budget; n < 1 raises ValueError.

    `tails`, a reach span's memo, extends the small table past 2^k: it maps
    a value that a walk reached at a block boundary to that value's tail,
    spliced on alike.  A walk that reaches 1 stores the tail of every
    boundary value it passed.
    """
    budget = _operator.index(budget)   # a float raises TypeError, as in _fast
    if n < 1:
        raise ValueError(f"orbits start at n >= 1, got {n}")
    blocks, small = _STOP_TABLES or _stop_tables()
    runs = steps = odd = 0
    last = ~n & 1   # so that n opens a run
    path = []
    while n >= _BLOCK:
        b = n & _MASK
        mult, image, changes, end, c = blocks[b]
        runs += changes + ((b ^ last) & 1)
        if runs > budget:
            return -1, -1, -1
        steps += _K
        odd += c
        last = end
        n = mult * (n >> _K) + image
        if tails is not None and n >= _BLOCK:
            tail = tails.get(n)
            if tail is not None:
                break
            path.append((n, runs, steps, odd, last))
    else:
        tail = small[n]
    tail_runs, tail_steps, tail_odd = tail
    runs += tail_runs - ((n & 1) == last)
    steps += tail_steps
    odd += tail_odd
    for x, x_runs, x_steps, x_odd, x_last in path:
        if len(tails) >= _TAILS_CAP:
            tails.clear()
        tails[x] = (runs - x_runs + ((x & 1) == x_last), steps - x_steps, odd - x_odd)
    if not runs:   # n = 1 is there already, whatever the budget
        return 1, 1, 1
    plain = steps + odd
    return (
        plain + 1 if plain <= budget else -1,
        steps + 1 if steps <= budget else -1,
        runs + 1 if runs <= budget else -1,
    )


def apt_stopping(n, budget):
    """Steps for the accelerated map to reach 1, or -1 if the budget runs out.

    An accelerated step is one maximal parity run of the half-step map, so
    this is the run count of `orbit_lengths`.  n = 1 gives 0 whatever the
    budget.
    """
    a_len = orbit_lengths(n, budget)[2]
    return a_len - 1 if a_len > 0 else -1


def emapt_stopping(u, budget):
    """Steps for the even-only map to reach 2, or -1 if the budget runs out.

    T(x) = 1 only for x = 2, so from even u != 2 the half-step orbit's parity
    runs before 1 go even, odd, ..., even: R = 2j + 1 of them, R being the
    accelerated count.  One even-only step covers an even run and the odd run
    after it, so the count is j + 1 = (R + 1) / 2.  u = 2 gives 0.
    """
    budget = _operator.index(budget)   # before the shortcut, so u = 2 checks it too
    if u == 2:
        return 0
    runs = apt_stopping(u, 2 * budget - 1)
    return -1 if runs < 0 else (runs + 1) >> 1


# --- range kernels; each returns (checked, violations, exhausted) -----------
#
# Violations are (input, detail) pairs in input order, and checked counts the
# inputs.  The scans and `span_linear_fixed_point` call the standalone
# kernels per input; the other spans are their `verify` checkers' loops with
# them written out inline: p is the literal recursion (halve through the odd
# prefix, then once more), never the closed form (n + 1) >> q(n), and q(n) is
# ruler(n + 1).  A span whose first element lies outside the checker's domain
# raises ValueError, where the loop would never end.


def scan_p3n(lo, hi):
    """n in [lo, hi]: p(3n) is never 1 mod 3."""
    violations = []
    for n in range(lo, hi + 1):
        if interleave_p(3 * n) % 3 == 1:
            violations.append((n, "p(3n) is 1 mod 3"))
    return len(range(lo, hi + 1)), violations, []


def scan_x_residues(lo, hi):
    """x in [lo, hi]: the index-form image x_step(x) is never 2 mod 3."""
    violations = []
    for x in range(lo, hi + 1):
        if x_step(x) % 3 == 2:
            violations.append((x, "image is 2 mod 3"))
    return len(range(lo, hi + 1)), violations, []


def scan_emapt_forms(lo, hi):
    """Even u >= 2 in [lo, hi]: the two even-step forms agree."""
    evens = range(max(lo + (lo & 1), 2), hi + 1, 2)   # the even-step domain starts at 2
    violations = []
    for u in evens:
        if emapt_step_pq(u) != emapt_step_ruler(u):
            violations.append((u, "pq and ruler forms disagree"))
    return len(evens), violations, []


def span_u_residues(lo, hi, budget):
    """Even seeds u in [lo, hi]: every even-engine image, in the pq form, is
    2 mod 6, and 2 or 8 mod 18 from the second image on; a seed still short
    of 2 after budget steps is exhausted.

    The mod-18 refinement needs an input that is already 2 mod 6, so it
    starts at the second image: seeds divisible by 6 have first images like
    18 -> 14 that sit outside {2, 8} mod 18.
    """
    first = lo + (lo & 1)
    if first < 2:
        raise ValueError(f"even seeds start at 2, got lo = {lo}")
    return _residue_walks(range(first, hi + 1, 2), budget, False)


def span_u_residues_odd(lo, hi, budget):
    """Odd seeds in [lo, hi]: one ruler-form step, then every pq-form image
    is 2 or 8 mod 18; a seed still short of 2 after budget pq steps is
    exhausted.  The first pq input, 3^e (seed + 1) / 2^e - 1, is 2 mod 6 by
    construction; only the mod-18 pattern is observed, not proved."""
    first = lo | 1
    if first < 1:
        raise ValueError(f"odd seeds start at 1, got lo = {lo}")
    return _residue_walks(range(first, hi + 1, 2), budget, True)


def _residue_walks(seeds, budget, odd):
    """The walk of each seed to 2 that both residue spans run, as `_fast.c`'s
    residue_walk: up to budget pq steps, each image 2 mod 6 and, from the
    second image on, 2 or 8 mod 18.  An `odd` seed first takes one
    ruler-form step, then has only the mod-18 check, from its first image.
    An image that is 2 or 8 mod 18 is 2 mod 6, so one remainder passes both.

    `tails` maps an image that a walk reached at step 2 or later, and that
    passed its check, to its pq steps to 2.  Every walk checks the images of
    its steps 2, 3, ... alike, so a tail, stored from steps 3 on, passes in
    any walk that reaches its image at step 2 or later: that walk adds the
    tail's steps and compares the sum with the budget.  Only a walk that
    reaches 2 clean stores tails, one per image it recorded.  A walk records
    and looks up nothing when it is the span's only one (a seed that `_fast`
    hands over alone) or follows an exhausted walk: where walks exhaust in a
    row, as from 2^68 at budget 30, nothing would be stored.
    """
    budget = _operator.index(budget)   # a float raises TypeError, as in _fast
    limit = max(budget, 0)   # a seed already at 2 is not exhausted
    violations = []
    exhausted = []
    tails = {}
    recording = len(seeds) > 1
    for seed in seeds:
        x = seed
        if odd:
            # x = emapt_step_ruler(seed): an odd seed is its own odd part, so
            # one parity run, 3^e (seed + 1) / 2^e - 1, 2^e exactly dividing seed + 1
            m = seed + 1
            e = (m & -m).bit_length() - 1
            x = 3**e * (m >> e) - 1
        steps = 0
        path = []   # the images of steps 2, 3, ...
        while x != 2 and steps < budget:
            # x = emapt_step_pq(x): m = p((x - 2) / 2), then (2 p(m) + 1) 3^q(m) - 1
            n = (x - 2) >> 1
            while n & 1:
                n >>= 1
            m = n = n >> 1
            while n & 1:
                n >>= 1
            m += 1
            x = (2 * (n >> 1) + 1) * 3 ** (m & -m).bit_length() - 1
            steps += 1
            if x % 18 not in (2, 8):
                if not odd and x % 6 != 2:
                    violations.append((seed, f"element {x} is not 2 mod 6"))
                    break
                if odd or steps >= 2:
                    violations.append((seed, f"element {x} is not 2 or 8 mod 18"))
                    break
            elif recording and steps >= 2:
                if x in tails:
                    steps += tails[x]
                    x = 2   # where the tail ends
                else:
                    path.append(x)
        else:
            # No violation: the walk stands on 2 after steps, or the budget ran out.
            recording = x == 2 and steps <= limit
            if not recording:
                exhausted.append(seed)
                continue
            for y, tail in zip(path, range(steps - 2, -1, -1)):
                if len(tails) >= _TAILS_CAP:
                    tails.clear()
                tails[y] = tail
    return len(seeds), violations, exhausted


def span_parity_runs(lo, hi):
    """n in [lo, hi]: the literal parity run from n has the closed-form
    length, ruler(n / 2) halvings for even n and ruler((n + 1) / 2) odd
    half-steps for odd n, and lands on apt_step(n)."""
    if lo < 1:
        raise ValueError(f"parity runs start at 1, got lo = {lo}")
    violations = []
    for n in range(lo, hi + 1):
        x = n
        run = 0
        if n & 1 == 0:
            # halving run in the plain orbit; apt_step is the odd part
            while x & 1 == 0:
                x >>= 1
                run += 1
            m = n >> 1
            expected = (m & -m).bit_length()
            landing = n >> ((n & -n).bit_length() - 1)
        else:
            # odd run in the half-step orbit; apt_step is 3^e (n + 1) / 2^e - 1
            while x & 1:
                x = (3 * x + 1) >> 1
                run += 1
            m = (n + 1) >> 1
            expected = (m & -m).bit_length()
            m = n + 1
            e = (m & -m).bit_length() - 1
            landing = 3**e * (m >> e) - 1
        if run != expected:
            violations.append((n, f"run length {run}, expected {expected}"))
        elif x != landing:
            violations.append((n, f"run lands on {x}, not the accelerated step"))
    return len(range(lo, hi + 1)), violations, []


def span_dual_forms(lo, hi):
    """For each n in [lo, hi]: when n is even and at least 2, the pq and
    ruler forms of the even step agree on it; and both index maps built from
    p(n) and q(n) agree with the ruler-form accelerated step: the even value
    (2 p + 1) 2^q runs to its odd part 2 p + 1, and the odd value
    (2 p + 1) 2^q - 1 runs to (2 p + 1) 3^q - 1."""
    if lo < 0:
        raise ValueError(f"index maps start at 0, got lo = {lo}")
    violations = []
    for n in range(lo, hi + 1):
        if n & 1 == 0 and n >= 2:
            # emapt_step_pq(n): m = p((n - 2) / 2), then (2 p(m) + 1) 3^q(m) - 1
            p = (n - 2) >> 1
            while p & 1:
                p >>= 1
            m = p = p >> 1
            while p & 1:
                p >>= 1
            m += 1
            via_pq = (2 * (p >> 1) + 1) * 3 ** (m & -m).bit_length() - 1
            # emapt_step_ruler(n): apt_step of the odd part o, 3^e (o + 1) / 2^e - 1
            m = (n >> ((n & -n).bit_length() - 1)) + 1
            e = (m & -m).bit_length() - 1
            if via_pq != 3**e * (m >> e) - 1:
                violations.append((n, "pq and ruler forms disagree"))
        p = n
        while p & 1:
            p >>= 1
        odd = 2 * (p >> 1) + 1
        m = n + 1
        q = (m & -m).bit_length()
        even = odd << q
        # apt_step of both index values: 2^r exactly divides the even value
        # and the odd one plus one, so the even value drops to even >> r and
        # the odd one runs to 3^r (even >> r) - 1
        r = (even & -even).bit_length() - 1
        if odd != even >> r:
            violations.append((n, "even index map disagrees with accelerated step"))
        if odd * 3**q - 1 != 3**r * (even >> r) - 1:
            violations.append((n, "odd index map disagrees with accelerated step"))
    evens = range(max(lo + (lo & 1), 2), hi + 1, 2)   # the even-step domain starts at 2
    return len(evens) + len(range(lo, hi + 1)), violations, []


def span_linear_fixed_point(lo, hi):
    """u = 2 mod 6 in [lo, hi]: with 2^b exactly dividing u, v = u / 2^b and
    2^a exactly dividing v + 1, succ = emapt_step_pq(u) satisfies the linear
    relation succ 2^(a+b) = 3^a u + (3^a - 2^a) 2^b.  Divided by 2^b it is
    the fixed-point relation (succ + 1) 2^a = (v + 1) 3^a, and the inverse
    step (2^(a+b) succ - (3^a - 2^a) 2^b) / 3^a is u exactly when it holds,
    so neither is checked again."""
    seeds = range(lo + (2 - lo) % 6, hi + 1, 6)
    if seeds.start < 2:
        raise ValueError(f"the linear system starts at u = 2, got lo = {lo}")
    violations = []
    for u in seeds:
        b = (u & -u).bit_length() - 1
        m = (u >> b) + 1
        a = (m & -m).bit_length() - 1
        if emapt_step_pq(u) << (a + b) != 3**a * u + ((3**a - (1 << a)) << b):
            violations.append((u, "linear relation failed"))
    return len(seeds), violations, []


# --- orbit-walk spans: each start walks to 1, sharing finished tails ----------
#
# The orbits of consecutive starts merge early, so each span keeps a memo of
# the tails its walks finished (see `orbit_lengths` and `_lock_step`; the
# even-only walks to 2 of the residue spans share theirs in `_residue_walks`),
# and most walks end at a value an earlier start of the span already walked
# to 1.  The memo lives for one call and is cleared at _TAILS_CAP entries.


def span_conjecture_apt(lo, hi, budget):
    """Starts n in [lo, hi] whose accelerated orbit needs more than budget
    steps to reach 1 are exhausted; as `apt_stopping(n, budget) < 0`."""
    budget = _operator.index(budget)
    if lo < 1:
        raise ValueError(f"orbits start at n >= 1, got lo = {lo}")
    tails = {}
    starts = range(lo, hi + 1)
    exhausted = [n for n in starts if orbit_lengths(n, budget, tails)[2] < 0]
    return len(starts), [], exhausted


def span_conjecture_emapt(lo, hi, budget):
    """Indices n in [lo, hi] whose even-only orbit from u = 6n + 2 needs more
    than budget steps to reach 2 are exhausted; as `emapt_stopping(u, budget)
    < 0`, by its (R + 1) / 2 count of the accelerated runs R."""
    budget = _operator.index(budget)
    if lo < 0:
        raise ValueError(f"even-only orbits start at 6n + 2 >= 2, got lo = {lo}")
    tails = {}
    starts = range(lo, hi + 1)
    exhausted = [   # n = 0 is u = 2, there already
        n for n in starts if n and orbit_lengths(6 * n + 2, 2 * budget - 1, tails)[2] < 0
    ]
    return len(starts), [], exhausted


def span_covering(lo, hi, budget):
    """Starts n in [lo, hi]: the accelerated orbit embeds in the half-step
    orbit embeds in the plain orbit, with lengths in that order, for every
    start whose orbits reach 1 within budget steps; the others are
    exhausted.  As `covering_chain(n, budget)`."""
    budget = _operator.index(budget)
    if lo < 1:
        raise ValueError(f"orbits start at n >= 1, got lo = {lo}")
    violations = []
    exhausted = []
    tails = {}
    starts = range(lo, hi + 1)
    for n in starts:
        c_len, t_len, a_len, ok = _lock_step(n, budget, tails)
        if ok == 0:
            violations.append((n, "orbit containment failed"))
        elif ok < 0:
            exhausted.append(n)
        elif not (a_len <= t_len <= c_len):
            violations.append((n, f"length chain broken: {a_len}, {t_len}, {c_len}"))
    return len(starts), violations, exhausted
