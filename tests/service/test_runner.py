"""The inline runner and its degradation ladder."""

from repro.fsam.config import FSAMConfig
from repro.service.requests import AnalysisRequest
from repro.service.runner import run_request_inline
from repro.workloads import get_workload


def _request(**config_kwargs):
    return AnalysisRequest(name="raytrace",
                           source=get_workload("raytrace").source(1),
                           config=FSAMConfig(**config_kwargs))


class TestInlineLadder:
    def test_full_pipeline(self):
        outcome = run_request_inline(_request())
        assert outcome.status == "ok"
        assert not outcome.artifact.degraded
        assert outcome.artifact.store_out
        assert outcome.artifact.obj_union
        assert outcome.attempts == 1
        assert len(outcome.digest) == 64

    def test_tiny_budget_degrades_instead_of_failing(self):
        # The acceptance-criterion path: an artificially tiny budget
        # exhausts mid-pipeline; the ladder lands on an Andersen-only
        # degraded result rather than raising out of the batch.
        outcome = run_request_inline(_request(time_budget=1e-9))
        assert outcome.status == "degraded"
        assert outcome.artifact.degraded
        assert outcome.artifact.degraded_reason == "budget-exhausted"
        # Andersen-only: flow-insensitive top sets, no memory states,
        # no solver work.
        assert outcome.artifact.pts_top
        assert not outcome.artifact.store_out
        assert not outcome.artifact.obj_union
        assert outcome.artifact.solver_iterations() == 0

    def test_degraded_result_still_validates(self):
        from repro.service.artifacts import validate_artifact
        outcome = run_request_inline(_request(time_budget=1e-9))
        validate_artifact(outcome.artifact.to_dict())
