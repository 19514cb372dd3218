"""Kernel backend selection.

Imports the compiled kernels when the `collatz_lab._fast` extension built,
otherwise the pure-Python reference module.  Setting the environment variable
COLLATZ_LAB_PURE to anything but "0" forces the pure backend; useful for
benchmarking and for reproducing behaviour on installs without a compiler.
"""

from __future__ import annotations

import os

from collatz_lab import _pure

_forced_pure = os.environ.get("COLLATZ_LAB_PURE", "") not in ("", "0")

if _forced_pure:
    _impl = _pure
else:
    try:
        from collatz_lab import _fast as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _pure

ACCELERATED = _impl is not _pure
BACKEND = "compiled" if ACCELERATED else "pure-python"

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
# The pure block walk on both backends: the compiled module has no twin, and
# near 8.5e6 the walk (about 2.8 us per start) already beats the compiled
# literal covering_chain (about 3.7 us); see benchmarks/bench_kernels.py.
orbit_lengths = _pure.orbit_lengths
scan_index_reps = _impl.scan_index_reps
scan_ruler_identities = _impl.scan_ruler_identities
scan_p3n = _impl.scan_p3n
scan_x_residues = _impl.scan_x_residues
scan_emapt_forms = _impl.scan_emapt_forms
