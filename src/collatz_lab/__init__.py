"""Exact-arithmetic laboratory for the Collatz map family.

Index arithmetic (`arith`), accelerated step maps and tracing (`sequences`),
the inverse affine map with candidate-tree enumeration (`reverse_tree`),
range checkers (`verify`, `oeis`), serialization (`emit`) and a CLI (`cli`).
Hot loops run on a compiled extension when it imports; `BACKEND` names
the implementation in use.  Each exported name imports its home module on
first use, so importing one submodule does not import the others.
"""

import importlib

__version__ = "0.1.0"

#: Home module of every exported name.
_EXPORTS = {
    "arith": "IndexTuple OddShiftRep ThreeTuple even_from_index index_pair interleave_p "
    "odd_from_index odd_shift_split ruler shifted_ruler_q three_tuple",
    "errors": "BFileParseError ConfigurationError DomainError InnerSplitUndefined",
    "kernels": "BACKEND",
    "reverse_tree": "AffineStep CycleScanReport MultiplicityResult Orphan PathComposition "
    "WZNode WZTree build_tree compose_path cycle_scan multiplicity reverse_affine_step "
    "steiner_search w_candidate w_forward w_from_z z_from_w",
    "sequences": "DEFAULT_MAGNITUDE_CEILING DEFAULT_TARGETS GParams Outcome ParityFlip "
    "StatsRow StatsTable Trace apt_step collatz_step emapt_step_pq emapt_step_ruler g_step "
    "gapt_step mapt_even_step mapt_odd_step omapt_step parity_flip stopping_stats "
    "terras_step trace u_to_v x_step",
    "verify": "TheoremReport Violation run_check",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import an exported name from its home module and keep it here (PEP 562)."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value
