"""FSAM: the sparse flow-sensitive pointer analysis for multithreaded
C programs (the paper's primary contribution).

Typical use::

    from repro.frontend import compile_source
    from repro.fsam import FSAM, FSAMConfig

    module = compile_source(minic_source)
    result = FSAM(module, FSAMConfig()).run()
    result.pts(some_temp)          # points-to set of a top-level var
    result.load_pts_at_line(42)    # pt() of loads on a source line
"""

from repro.fsam.config import AnalysisTimeout, Deadline, FSAMConfig
from repro.fsam.solver import SparseSolver
from repro.fsam.analysis import FSAM, FSAMResult, analyze_source
from repro.fsam.explain import (
    derivation_chain, explain_at_line, explain_fact, render_derivation,
)

__all__ = [
    "FSAM", "FSAMConfig", "FSAMResult", "SparseSolver",
    "AnalysisTimeout", "Deadline", "analyze_source",
    "derivation_chain", "explain_at_line", "explain_fact",
    "render_derivation",
]
