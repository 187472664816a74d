"""latticelab: a desk-scale laboratory for lattice pattern combinatorics.

Enumeration and constructive extension of graph-homomorphism patterns on
boxes of Z^d, rectangular tilings and their marker families, transfer-matrix
entropy counts and exact dimer counts, and height functions for 3-colorings.
"""

__version__ = "0.1.0"

from .lattice import (Region, box_B, box_F, is_box_spaced, is_K_spaced,
                      parity, rectangle, shell_F)
from .homshift import (Pattern, PatternSet, TargetGraph, checkerboard_set,
                       complete_graph, count_hom_dfs, cycle_graph,
                       embed_in_marker, embed_in_marker_rows, enumerate_hom,
                       flexible_fill, graph_preset, hat_extend,
                       hat_extend_rows, hat_set, hom_rows, is_hom, marker_set,
                       min_universal_path_length, path_extend,
                       path_extend_rows, tau, tau_n, verify_marker_spacing)
from .tiling import (TileSet, Tiling, TilingFamily, count_tilings, dominoes,
                     flexible_tile_fill, frobenius_decompose,
                     grid_tiling_variants, is_coprime, marker_tiling_set,
                     partition_complement, tile_preset, tile_rectangle)
from .entropy import (EntropyReport, TransferOperator, count_dimer_tilings_dp,
                      count_dimer_tilings_kasteleyn, count_hom_box,
                      count_hom_torus, entropy_ratio_report, strip_entropy)
from .height import (HeightField, checker_coloring, height_cocycle,
                     lift_rows, lipschitz_check, lipschitz_rows, quasiflat_gap,
                     sample_coloring, sample_rows, striped_coloring,
                     ufp_window_check)
from .util import BudgetError, NegativeResult

__all__ = [
    "Region", "box_B", "box_F", "is_box_spaced", "is_K_spaced", "parity",
    "rectangle", "shell_F",
    "Pattern", "PatternSet", "TargetGraph", "checkerboard_set",
    "complete_graph", "count_hom_dfs", "cycle_graph", "embed_in_marker",
    "embed_in_marker_rows", "enumerate_hom", "flexible_fill", "graph_preset",
    "hat_extend", "hat_extend_rows", "hat_set", "hom_rows", "is_hom",
    "marker_set", "min_universal_path_length", "path_extend",
    "path_extend_rows", "tau", "tau_n", "verify_marker_spacing",
    "TileSet", "Tiling", "TilingFamily", "count_tilings", "dominoes",
    "flexible_tile_fill", "frobenius_decompose", "grid_tiling_variants",
    "is_coprime", "marker_tiling_set", "partition_complement", "tile_preset",
    "tile_rectangle",
    "EntropyReport", "TransferOperator", "count_dimer_tilings_dp",
    "count_dimer_tilings_kasteleyn", "count_hom_box", "count_hom_torus",
    "entropy_ratio_report", "strip_entropy",
    "HeightField", "checker_coloring", "height_cocycle", "lift_rows",
    "lipschitz_check", "lipschitz_rows", "quasiflat_gap", "sample_coloring",
    "sample_rows", "striped_coloring", "ufp_window_check",
    "BudgetError", "NegativeResult",
    "__version__",
]
