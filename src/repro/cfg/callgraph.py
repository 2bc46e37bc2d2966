"""The program call graph.

Built on the fly by the Andersen pre-analysis (paper Section 4.2):
direct calls are added immediately; indirect calls and fork sites are
resolved as the points-to sets of their function pointers grow.
Call-graph SCCs drive context-insensitive handling of recursion
(Section 3.1) and the in-recursion flag of stack objects.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Union

from repro.graphs.digraph import DiGraph
from repro.graphs.scc import tarjan_scc
from repro.ir.instructions import Call, Fork
from repro.ir.module import Module
from repro.ir.values import Function

CallSite = Union[Call, Fork]


class CallGraph:
    """Functions plus callsite-labelled edges."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self.graph = DiGraph()
        for fn in module.functions.values():
            self.graph.add_node(fn)
        # callsite -> set of callees; function -> set of callsites in it.
        self._callees: Dict[CallSite, Set[Function]] = {}
        self._callers: Dict[Function, Set[CallSite]] = {fn: set() for fn in module.functions.values()}
        self._scc_of: Optional[Dict[Function, int]] = None
        self._in_cycle: Optional[Set[Function]] = None

    def add_edge(self, site: CallSite, callee: Function) -> bool:
        """Record that *site* may invoke *callee*. Returns True if new."""
        callees = self._callees.setdefault(site, set())
        if callee in callees:
            return False
        callees.add(callee)
        self._callers.setdefault(callee, set()).add(site)
        caller = site.function
        if caller is not None:
            self.graph.add_edge(caller, callee)
        self._scc_of = None  # invalidate caches
        self._in_cycle = None
        return True

    def callees(self, site: CallSite) -> Set[Function]:
        """Functions that *site* may invoke (empty if unresolved)."""
        return self._callees.get(site, set())

    def callsites_of(self, callee: Function) -> Set[CallSite]:
        """Callsites (calls and forks) that may invoke *callee*."""
        return self._callers.get(callee, set())

    def call_sites(self) -> Iterable[CallSite]:
        return self._callees.keys()

    def _compute_sccs(self) -> None:
        sccs = tarjan_scc(self.graph)
        self._scc_of = {}
        self._in_cycle = set()
        for idx, component in enumerate(sccs):
            for fn in component:
                self._scc_of[fn] = idx
            if len(component) > 1:
                self._in_cycle.update(component)
            elif self.graph.has_edge(component[0], component[0]):
                self._in_cycle.add(component[0])

    def scc_id(self, fn: Function) -> int:
        if self._scc_of is None:
            self._compute_sccs()
        return self._scc_of.get(fn, -1)

    def in_cycle(self, fn: Function) -> bool:
        """True if *fn* participates in call-graph recursion."""
        if self._in_cycle is None:
            self._compute_sccs()
        return fn in self._in_cycle

    def site_in_cycle(self, site: CallSite) -> bool:
        """True when the callsite's enclosing function is in an SCC with
        one of the site's callees — such callsites are analysed
        context-insensitively (paper Section 3.1)."""
        caller = site.function
        if caller is None:
            return False
        if self._scc_of is None:
            self._compute_sccs()
        cid = self.scc_id(caller)
        return any(self.scc_id(callee) == cid and self.in_cycle(callee)
                   for callee in self.callees(site))

    def reachable_functions(self, roots: Iterable[Function]) -> Set[Function]:
        """Functions transitively callable from *roots* (per this graph)."""
        seen: Set[Function] = set()
        work: List[Function] = list(roots)
        while work:
            fn = work.pop()
            if fn in seen:
                continue
            seen.add(fn)
            work.extend(self.graph.successors(fn))
        return seen
