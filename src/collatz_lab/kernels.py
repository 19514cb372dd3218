"""Kernel backend selection.

The accelerator idiom of the standard library (`heapq` over `_heapq`):
every kernel of the pure-Python reference module, then, when the
`collatz_lab._fast` extension imports, its compiled twins in their place.
`BACKEND` names the one that imported.  Only `_fast.c`'s method table
records which kernels have a twin; `PURE_ONLY` in tests/test_kernels.py
pins the rest, which run pure on both backends, as does any kernel that a
stale in-place build lacks.

The seven `span_*` kernels run a whole `verify` checker span in one call:
four with the step formulas inlined, for which the standalone step kernels
stay the reference, and three orbit walks (`covering` and the two reach
sweeps).  The tests compare each span kernel, on both backends, with the
literal checker loop.
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
