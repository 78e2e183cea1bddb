"""Adversarial constraint fuzzer and metamorphic cross-validation.

The paper's termination conditions, chase runners, query answering and
batch service all promise *universally quantified* properties -- every
Figure 1 inclusion, agreement of every join engine, answer invariance
under optimization.  This package checks those promises on seeded random
inputs biased toward the termination-class boundaries:

* :mod:`repro.fuzz.generate` -- deterministic case generation;
* :mod:`repro.fuzz.oracles`  -- the metamorphic properties;
* :mod:`repro.fuzz.shrink`   -- delta-debugging minimization;
* :mod:`repro.fuzz.runner`   -- corpus driving, repro specs.

Entry points: :func:`repro.fuzz.runner.run_corpus` and the
``repro fuzz`` CLI command.
"""

from repro.fuzz.generate import (FuzzCase, FuzzConfig, GENERATOR_VERSION,
                                 case_rng, generate_case, generate_corpus)
from repro.fuzz.oracles import (ALL_SEQUENCE_CLASSES, DEEP_PROBES, ORACLES,
                                OracleContext, PROBES, Violation)
from repro.fuzz.runner import (FuzzFailure, FuzzReport, run_corpus,
                               write_repro_spec)
from repro.fuzz.shrink import ShrinkResult, shrink_case

__all__ = [
    "FuzzCase", "FuzzConfig", "GENERATOR_VERSION", "case_rng",
    "generate_case", "generate_corpus", "ALL_SEQUENCE_CLASSES",
    "DEEP_PROBES", "ORACLES", "OracleContext", "PROBES", "Violation",
    "FuzzFailure", "FuzzReport", "run_corpus", "write_repro_spec",
    "ShrinkResult", "shrink_case",
]
