"""Stage 3 of Narada: test synthesis and execution (§3.4, Algorithm 1)."""

from repro.synth.collect import Capture, SeedCollector
from repro.synth.runner import RunOutcome, TemplateSource, TestRunner
from repro.synth.synthesizer import (
    MaterializedTest,
    SynthesizedTest,
    TestSynthesizer,
    materialize,
    plan_signature,
)

__all__ = [
    "Capture",
    "MaterializedTest",
    "RunOutcome",
    "SeedCollector",
    "SynthesizedTest",
    "TemplateSource",
    "TestRunner",
    "TestSynthesizer",
    "materialize",
    "plan_signature",
]
