"""Kernel backend selection.

One rule: the compiled kernels when the `collatz_lab._fast` extension
imports, otherwise the pure-Python reference module.  `BACKEND` names the
one that imported.  Seven kernels have no compiled twin and are bound to
the pure module on both backends; the comment at their bindings says why.

The seven `span_*` kernels run a whole `verify` checker span in one call:
four with the step formulas inlined, for which the standalone step kernels
stay the reference, and three orbit walks (`covering` and the two reach
sweeps).  The tests compare each span kernel, on both backends, with the
literal checker loop.
"""

from __future__ import annotations

from collatz_lab import _pure

try:
    from collatz_lab import _fast as _impl
except ImportError:
    _impl = _pure

BACKEND = "pure-python" if _impl is _pure else "compiled"

#: Default step budget for orbit walks: the checkers' and the CLI's --budget.
DEFAULT_BUDGET = 100_000

ruler = _impl.ruler
interleave_p = _impl.interleave_p
shifted_ruler_q = _impl.shifted_ruler_q
odd_part = _impl.odd_part
apt_step = _impl.apt_step
emapt_step_pq = _impl.emapt_step_pq
emapt_step_ruler = _impl.emapt_step_ruler
omapt_step = _impl.omapt_step
x_step = _impl.x_step
scan_p3n = _impl.scan_p3n
scan_x_residues = _impl.scan_x_residues
span_u_residues = _impl.span_u_residues
span_u_residues_odd = _impl.span_u_residues_odd
span_parity_runs = _impl.span_parity_runs
span_dual_forms = _impl.span_dual_forms
span_covering = _impl.span_covering
span_conjecture_apt = _impl.span_conjecture_apt
span_conjecture_emapt = _impl.span_conjecture_emapt
# The pure kernels on both backends, with no compiled twin.  `stats` walks
# `orbit_lengths`, the block walk that the tests check against the literal
# orbits in tests/oracles.py; a compiled one would start from the lock-step
# walk `cover()` in _fast.c.  No command reaches the other six: the
# acceptance criteria 2, 3 and 5 call them, the test oracles build the
# literal checker loops from them, and perfbench's bare-loop probes time
# them.
orbit_lengths = _pure.orbit_lengths
covering_chain = _pure.covering_chain
apt_stopping = _pure.apt_stopping
emapt_stopping = _pure.emapt_stopping
scan_index_reps = _pure.scan_index_reps
scan_ruler_identities = _pure.scan_ruler_identities
scan_emapt_forms = _pure.scan_emapt_forms
