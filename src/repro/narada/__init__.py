"""The end-to-end Narada pipeline."""

from repro.narada.cache import ArtifactCache, default_cache_dir, table_digest
from repro.narada.daemon import (
    AdmissionController,
    DaemonClient,
    ReproDaemon,
    ResourceGovernor,
    default_socket_path,
)
from repro.narada.faults import (
    CancelToken,
    FaultInjector,
    FaultLedger,
    FaultPlan,
    RunCancelled,
    UnitExecutionError,
    UnitFailure,
)
from repro.narada.orchestrator import (
    PipelineConfig,
    PipelineOrchestrator,
    SubjectOutcome,
    SubjectSpec,
    subject_specs,
)
from repro.narada.pipeline import DetectionReport, Narada, SynthesisReport

__all__ = [
    "AdmissionController",
    "ArtifactCache",
    "CancelToken",
    "DaemonClient",
    "DetectionReport",
    "FaultInjector",
    "FaultLedger",
    "FaultPlan",
    "Narada",
    "PipelineConfig",
    "PipelineOrchestrator",
    "ReproDaemon",
    "ResourceGovernor",
    "RunCancelled",
    "SubjectOutcome",
    "SubjectSpec",
    "SynthesisReport",
    "UnitExecutionError",
    "UnitFailure",
    "default_cache_dir",
    "default_socket_path",
    "subject_specs",
    "table_digest",
]
