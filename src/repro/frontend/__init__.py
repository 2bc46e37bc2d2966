"""AST-to-IR lowering and SSA construction.

``compile_source`` is the one-call pipeline used throughout the
project: MiniC text -> AST -> naive IR (every local in memory) ->
mem2reg promotion (the paper's compile setup enables LLVM's mem2reg,
Section 4.1) -> verified partial-SSA module.
"""

from repro.frontend.lower import Lowerer, lower_program
from repro.frontend.mem2reg import promote_to_ssa

from repro.ir.verify import verify_module
from repro.minic.parser import parse
from repro.obs import NULL_OBS, Observer


def compile_source(source: str, name: str = "module",
                   obs: Observer = NULL_OBS):
    """Compile MiniC *source* into a verified partial-SSA module.

    Each stage is timed as a phase of *obs*: ``parse``, ``lower``,
    ``mem2reg`` and ``verify``, nested under whatever phase the caller
    has open (``compile`` in the CLI and the service runners).
    """
    with obs.phase("parse"):
        program = parse(source)
    with obs.phase("lower"):
        module = lower_program(program, name=name)
    with obs.phase("mem2reg"):
        promote_to_ssa(module)
    with obs.phase("verify"):
        verify_module(module)
    return module


__all__ = ["compile_source", "lower_program", "Lowerer", "promote_to_ssa"]
