"""Digraph tools around two-block cycles: detection, degeneracy, coloring.

A two-block cycle ``c(k, ell)`` is an orientation of a cycle consisting of
two internally disjoint directed paths, of lengths at least ``k`` and
``ell``, from one vertex to another.  This package detects them with
verifiable certificates, colors Hamiltonian digraphs that avoid them with at
most ``k + ell`` colors, colors strong digraphs that avoid them with at most
``2(2k-3)(k+2*ell-1)`` colors through a contraction / cycle-tree pipeline,
and ships an audit harness over exhaustively enumerated small tournaments.

``import twoblock`` loads no submodule.  Each exported name is looked up in
its submodule, which is imported on first use, every time it is read from
the package; nothing is cached here, so ``twoblock.find_two_block_cycle`` is
always the object ``twoblock.detection`` currently binds.
"""

import importlib as _importlib

# Each submodule with the names the package exports from it.
_EXPORTS = {
    "coloring": (
        "Coloring",
        "EliminationOrder",
        "chromatic_number",
        "degeneracy",
        "elimination_back_degree",
        "greedy_color_by_order",
        "is_proper",
        "k_colorable",
    ),
    "detection": (
        "AbsenceReport",
        "CrossingException",
        "TwoBlockCertificate",
        "crossing_chord_case",
        "find_two_block_cycle",
        "hamiltonian_cycle",
        "longest_cycle",
        "verify_certificate",
    ),
    "digraph": (
        "Digraph",
        "DiCycle",
        "PreimageMap",
        "UGraph",
        "build_digraph",
        "contract",
        "cycle_segment",
        "induced",
        "is_strong",
        "underlying_graph",
    ),
    "errors": (),
    "hamiltonian": (
        "color_hamiltonian",
        "ham_degeneracy_order",
        "low_degree_or_certificate",
    ),
    "pipeline": (
        "ArcSplit",
        "ContractionTrace",
        "CycleTree",
        "PhiLabels",
        "PipelineRun",
        "build_contraction_trace",
        "color_F",
        "color_strong_digraph",
        "cycle_path",
        "extract_cycle_tree",
        "order_F1",
        "phi_labeling",
        "pipeline_report",
        "run_pipeline",
        "split_arcs",
        "tree_path",
        "validate_cycle_tree",
        "validate_structure",
        "validate_trace",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        return _importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(_importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
