"""Stage-based compilation pipeline (thesis Figure 3.1, made explicit).

The deployment flow — graph import/fusion, scheduling, lowering, OpenCL
emission, AOC synthesis, host planning — runs through a small stage/pass
manager.  Each stage consumes and produces typed, fingerprinted
artifacts; every run yields a :class:`Trace` of per-stage wall-times,
artifact sizes and counters.  A deterministic stage's artifact is
fingerprinted by its derivation (stage, config, upstream fingerprints);
the imported graph, seeded artifacts and the generated source by
content.  The ``synthesize`` stage is backed by a content-addressed
:class:`CompileCache` so identical designs are never synthesized twice
(offline compilation dominates the real toolflow, so real systems in
this space cache aggressively).
"""

from repro.pipeline.cache import (
    CachedFailure,
    CompileCache,
    DiskBackend,
    MemoryBackend,
    default_cache,
    set_default_cache,
)
from repro.pipeline.fingerprint import canonical, fingerprint, register_canonicalizer
from repro.pipeline.pipeline import (
    BY_CONTENT,
    Artifact,
    Context,
    Pipeline,
    PipelineResult,
    Stage,
    StageDiagnostic,
    describe_artifact,
    register_annotator,
    register_describer,
)
from repro.pipeline.trace import StageRecord, Trace

__all__ = [
    "Artifact", "BY_CONTENT", "CachedFailure", "CompileCache", "Context", "DiskBackend",
    "MemoryBackend", "Pipeline", "PipelineResult", "Stage", "StageDiagnostic",
    "StageRecord", "Trace", "canonical", "default_cache", "describe_artifact",
    "fingerprint", "register_annotator", "register_canonicalizer", "register_describer",
    "set_default_cache",
]
