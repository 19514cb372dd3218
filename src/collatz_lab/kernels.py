"""Kernel backend selection.

One rule: the compiled kernels when the `collatz_lab._fast` extension
imports, otherwise the pure-Python reference module.  `BACKEND` names the
one that imported.

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
covering_chain = _impl.covering_chain
apt_stopping = _impl.apt_stopping
emapt_stopping = _impl.emapt_stopping
# The pure block walk on both backends, though near 8.5e6 the compiled
# lock-step covering_chain gives the same lengths in about half the time
# (benchmarks/bench_kernels.py): the walk, and the Terras identity in it, is
# what the tests check against those compiled literal loops.
orbit_lengths = _pure.orbit_lengths
scan_index_reps = _impl.scan_index_reps
scan_ruler_identities = _impl.scan_ruler_identities
scan_p3n = _impl.scan_p3n
scan_x_residues = _impl.scan_x_residues
scan_emapt_forms = _impl.scan_emapt_forms
span_u_residues = _impl.span_u_residues
span_u_residues_odd = _impl.span_u_residues_odd
span_parity_runs = _impl.span_parity_runs
span_dual_forms = _impl.span_dual_forms
span_covering = _impl.span_covering
span_conjecture_apt = _impl.span_conjecture_apt
span_conjecture_emapt = _impl.span_conjecture_emapt
