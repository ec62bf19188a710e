"""repro.gen — constrained-random RMA program generation + fuzzing.

Public surface:

* :class:`~repro.gen.config.GenConfig` — frozen generation config;
* :func:`~repro.gen.generator.generate_program` — config -> program
  + ground-truth manifest;
* :func:`~repro.gen.program.replay` — the app executing any spec;
* :func:`~repro.gen.manifest.score_report` — findings vs manifest
  recall/precision;
* :mod:`~repro.gen.fuzz` — the differential fuzzing harness.

The stable entry points are re-exported through :mod:`repro.api`
(``generate`` / ``fuzz`` / ``score``).
"""

from repro.gen.config import (
    BUG_ANY, BUG_PATTERNS, EPOCH_KINDS, OP_KINDS, GenConfig,
)
from repro.gen.generator import (
    GeneratedProgram, GenerationError, generate_program,
)
from repro.gen.manifest import InjectedBug, Manifest, Score, score_report
from repro.gen.program import Action, Program, Round, replay

__all__ = [
    "BUG_ANY", "BUG_PATTERNS", "EPOCH_KINDS", "OP_KINDS",
    "GenConfig",
    "GeneratedProgram", "GenerationError", "generate_program",
    "InjectedBug", "Manifest", "Score", "score_report",
    "Action", "Program", "Round", "replay",
]
