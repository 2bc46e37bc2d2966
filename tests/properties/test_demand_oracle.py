"""Property: demand answers equal the reference oracle on generated
programs.

For every top-level variable and every global of a random program, a
query on ``FSAM(module).prepare()`` (a backward DUG slice solved by
the delta engine) names the same objects as the reference engine's
whole-program fixpoint.
"""

from hypothesis import HealthCheck, given, settings

from repro.frontend import compile_source
from repro.fsam import FSAM, FSAMConfig
from repro.fsam.query import resolve_temps

from tests.fsam.test_query import top_level_names
from tests.properties.program_gen import (
    argument_passing_programs, multithreaded_programs, sequential_programs,
)

SETTINGS = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def check_demand_matches_oracle(src):
    oracle = FSAM(compile_source(src),
                  FSAMConfig(solver_engine="reference")).run()
    prepared = FSAM(compile_source(src)).prepare()
    module = oracle.module
    for var in top_level_names(oracle):
        expected = set()
        for temp in resolve_temps(module, var).values():
            expected |= oracle.pts_names(temp)
        assert set(prepared.query(var).names()) == expected, (var, src)
    for name in sorted(module.globals):
        assert set(prepared.query(name, obj=True).names()) == \
            oracle.global_pts_names(name), (name, src)


class TestDemandMatchesOracle:
    @SETTINGS
    @given(sequential_programs())
    def test_sequential(self, src):
        check_demand_matches_oracle(src)

    @SETTINGS
    @given(multithreaded_programs())
    def test_multithreaded(self, src):
        check_demand_matches_oracle(src)

    @SETTINGS
    @given(argument_passing_programs())
    def test_argument_passing(self, src):
        """Calls and forks pass pointers, so slices must walk the
        interprocedural copies from arguments to parameters and from
        return values to call results."""
        check_demand_matches_oracle(src)
