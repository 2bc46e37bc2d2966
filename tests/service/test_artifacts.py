"""Artifact serialization: canonical keys, round trips, validation."""

import pytest

from repro.andersen import run_andersen
from repro.frontend import compile_source
from repro.fsam import FSAM, FSAMConfig
from repro.schemas import ARTIFACT_SCHEMA, CODE_VERSION
from repro.service.artifacts import (
    AnalysisArtifact, artifact_from_andersen, artifact_from_result,
    validate_artifact,
)
from repro.workloads import get_workload

SOURCE = get_workload("word_count").source(1)


@pytest.fixture(scope="module")
def artifact():
    result = FSAM(compile_source(SOURCE), FSAMConfig()).run()
    return artifact_from_result("word_count", result)


class TestArtifactFromResult:
    def test_has_facts(self, artifact):
        assert artifact.pts_top
        assert artifact.mem
        assert artifact.store_classes
        assert artifact.objects
        assert not artifact.degraded

    def test_summary_counts(self, artifact):
        assert artifact.summary["points_to_entries"] > 0
        assert artifact.solver_iterations() > 0

    def test_masks_are_hex(self, artifact):
        for mask in artifact.pts_top.values():
            assert int(mask, 16) >= 0
        for mask in artifact.mem.values():
            assert int(mask, 16) >= 0

    def test_round_trip(self, artifact):
        doc = artifact.to_dict()
        assert doc["schema"] == ARTIFACT_SCHEMA
        back = AnalysisArtifact.from_dict(doc)
        assert back.to_dict() == doc
        assert back.payload_digest() == artifact.payload_digest()

    def test_same_run_same_digest(self):
        a = artifact_from_result(
            "a", FSAM(compile_source(SOURCE), FSAMConfig()).run())
        b = artifact_from_result(
            "b", FSAM(compile_source(SOURCE), FSAMConfig()).run())
        # Different raw process-global ids, identical canonical payload.
        assert a.payload_digest() == b.payload_digest()

    def test_digest_ignores_profile_and_name(self, artifact):
        doc = artifact.to_dict()
        stripped = AnalysisArtifact.from_dict(doc)
        stripped.name = "other"
        assert stripped.payload_digest() == artifact.payload_digest()


class TestDegradedArtifact:
    def test_andersen_only(self):
        module = compile_source(SOURCE)
        andersen = run_andersen(module)
        artifact = artifact_from_andersen("wc", module, andersen,
                                          reason="wall-clock-timeout")
        assert artifact.degraded
        assert artifact.degraded_reason == "wall-clock-timeout"
        assert artifact.pts_top          # flow-insensitive sets exist
        assert not artifact.mem          # no per-definition states
        assert not artifact.store_classes
        assert artifact.solver_iterations() == 0
        validate_artifact(artifact.to_dict())


class TestValidateArtifact:
    def _doc(self, artifact, **overrides):
        doc = artifact.to_dict()
        doc.update(overrides)
        return doc

    def test_accepts_good(self, artifact):
        assert validate_artifact(artifact.to_dict()) is not None

    def test_rejects_wrong_schema(self, artifact):
        with pytest.raises(ValueError, match="schema"):
            validate_artifact(self._doc(artifact, schema="repro.obs/1"))

    def test_rejects_bad_mask(self, artifact):
        doc = artifact.to_dict()
        doc["pts_top"] = {"0": "not-hex"}
        with pytest.raises(ValueError, match="hex"):
            validate_artifact(doc)

    def test_rejects_unknown_store_class(self, artifact):
        doc = artifact.to_dict()
        doc["store_classes"] = {"0:0": "sideways"}
        with pytest.raises(ValueError, match="store_classes"):
            validate_artifact(doc)

    def test_rejects_missing_code_version(self, artifact):
        with pytest.raises(ValueError, match="code_version"):
            validate_artifact(self._doc(artifact, code_version=""))

    def test_rejects_non_dict(self):
        with pytest.raises(ValueError):
            validate_artifact([1, 2, 3])

    def test_code_version_round_trips(self, artifact):
        assert artifact.code_version == CODE_VERSION
        assert AnalysisArtifact.from_dict(
            artifact.to_dict()).code_version == CODE_VERSION
