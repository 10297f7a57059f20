from .base import CompressionReport, word_program
from .bands import BandCompression, class_generators, compress_normal_band
from .diameter import compress_bounded_diameter
from .dispatch import STRATEGIES, check_strategy, compress
from .general import GeneralCompression, compress_general
from .in_group import GROUP_STRATEGIES
from .peel import ideal_generators, nilpotent_peel
from .permutative import PermNormalForm, compress_permutative, minimize_exponents
from .reachability import (
    CubeState,
    build_cube,
    compress_group_reachability,
    emit_from_cube,
    start_cube,
)
from .solvable import (
    DeltaSet,
    PolycyclicGenSet,
    PolyRecord,
    adapt_subnormal,
    adapted_levels,
    build_derived_adapted_set,
    build_polycyclic_set,
    compress_group_solvable,
    compress_group_solvable_bounded,
    emit_delta_program,
    solvable_plan,
)

__all__ = [
    "BandCompression",
    "CompressionReport",
    "CubeState",
    "DeltaSet",
    "GROUP_STRATEGIES",
    "GeneralCompression",
    "PermNormalForm",
    "PolycyclicGenSet",
    "PolyRecord",
    "STRATEGIES",
    "adapt_subnormal",
    "adapted_levels",
    "build_cube",
    "build_derived_adapted_set",
    "build_polycyclic_set",
    "check_strategy",
    "class_generators",
    "compress",
    "compress_bounded_diameter",
    "compress_general",
    "compress_group_reachability",
    "compress_group_solvable",
    "compress_group_solvable_bounded",
    "compress_normal_band",
    "compress_permutative",
    "emit_delta_program",
    "emit_from_cube",
    "ideal_generators",
    "minimize_exponents",
    "nilpotent_peel",
    "solvable_plan",
    "start_cube",
    "word_program",
]
