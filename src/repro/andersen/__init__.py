"""Andersen's inclusion-based pointer analysis (the pre-analysis).

FSAM bootstraps its sparse phase with a fast flow- and context-
insensitive whole-program points-to analysis (paper Figure 2). This
package implements Andersen's analysis with the wave-propagation
solving strategy of Pereira & Berlin (CGO'09, the paper's [23]): each
wave runs one Tarjan pass over the copy graph, collapses its SCCs and
propagates points-to sets in the topological order that pass yields;
the call graph is built on the fly. Field-sensitive; arrays are
monolithic; positive-weight cycles from field derivations are defused
by capping derivation depth (Section 4.2's PWC collapsing).
"""

from repro.andersen.solver import AndersenResult, AndersenSolver, run_andersen

__all__ = ["AndersenResult", "AndersenSolver", "run_andersen"]
