"""Kernel backend selection.

The accelerator idiom of the standard library (`heapq` over `_heapq`):
every kernel of the pure-Python reference module, then, when the
`collatz_lab._fast` extension imports, its compiled twins in their place.
`BACKEND` names the one that imported.  Only `_fast.c`'s method table
records which kernels have a twin; `PURE_ONLY` in tests/test_kernels.py
pins the rest, which run pure on both backends, as does any kernel that a
stale in-place build lacks.

The two `scan_*` and eight `span_*` kernels that `verify.CHECKERS` names,
one per checker and looked up here at each call, each run a whole checker
span in one call and return (checked, violations, exhausted): the linear
span calls a step kernel per input, the two scans and four spans inline
their formulas, and three walk orbits (`covering` and the two reach
sweeps).
The tests compare each, on both backends, with the literal checker loop.
"""

from collatz_lab._pure import *

try:
    from collatz_lab._fast import *
except ImportError:
    BACKEND = "pure-python"
else:
    BACKEND = "compiled"

#: Default step budget for orbit walks: the checkers' and the CLI's --budget.
DEFAULT_BUDGET = 100_000
