"""SLinGen driver: options, Stage 1/2/3 orchestration, autotuning."""

from .generator import (Candidate, GeneratedCode, GenerationResult, SLinGen,
                        generate)
from .options import Options
from .rewrite import RewriteReport, apply_rule_r1
from .stage1 import (HlacSite, Stage1Result, enumerate_variant_choices,
                     find_hlac_sites, synthesize_basic_program)

__all__ = [
    "Candidate", "GeneratedCode", "GenerationResult", "SLinGen", "generate",
    "Options",
    "RewriteReport", "apply_rule_r1",
    "HlacSite", "Stage1Result", "enumerate_variant_choices",
    "find_hlac_sites", "synthesize_basic_program",
]
