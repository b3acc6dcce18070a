"""Digraph tools around two-block cycles: detection, degeneracy, coloring.

A two-block cycle ``c(k, ell)`` is an orientation of a cycle consisting of
two internally disjoint directed paths, of lengths at least ``k`` and
``ell``, from one vertex to another.  This package detects them with
verifiable certificates, colors Hamiltonian digraphs that avoid them with at
most ``k + ell`` colors, colors strong digraphs that avoid them with at most
``2(2k-3)(k+2*ell-1)`` colors through a contraction / cycle-tree pipeline,
and ships an audit harness over exhaustively enumerated small tournaments.
"""

from .coloring import (
    Coloring,
    EliminationOrder,
    chromatic_number,
    degeneracy,
    elimination_back_degree,
    greedy_color_by_order,
    is_proper,
    k_colorable,
)
from .detection import (
    AbsenceReport,
    CrossingException,
    TwoBlockCertificate,
    crossing_chord_case,
    find_two_block_cycle,
    hamiltonian_cycle,
    longest_cycle,
    verify_certificate,
)
from .digraph import (
    Digraph,
    DiCycle,
    PreimageMap,
    UGraph,
    build_digraph,
    contract,
    cycle_segment,
    induced,
    is_strong,
    underlying_graph,
)
from .hamiltonian import (
    color_hamiltonian,
    ham_degeneracy_order,
    low_degree_or_certificate,
)
from .pipeline import (
    ArcSplit,
    ContractionTrace,
    CycleTree,
    PhiLabels,
    PipelineRun,
    build_contraction_trace,
    color_F,
    color_strong_digraph,
    cycle_path,
    extract_cycle_tree,
    order_F1,
    phi_labeling,
    pipeline_report,
    run_pipeline,
    split_arcs,
    tree_path,
    validate_cycle_tree,
    validate_structure,
    validate_trace,
)

__all__ = [name for name in dir() if not name.startswith("_")]
