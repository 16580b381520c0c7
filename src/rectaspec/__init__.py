"""Toolkit for signed rectagraphs with few eigenvalues and symmetric spectra.

The central objects are signed graphs whose adjacency matrix satisfies
A^2 = r I (two symmetric eigenvalues), the weighing matrices they correspond
to in the bipartite case, exhaustive signature searches over a fixed
underlying rectagraph, and the one- and two-vertex extension algorithms
driven by the rank-1/rank-2 structure of r*I - A^2.
"""

from .core import (SignedGraph, StructureReport, UnderlyingGraph,
                   common_neighbour_profile, delete_vertices, structure_report,
                   underlying)
from .spectral import (FilterVerdict, Refusal, SpectralCertificate,
                       certify_four_sym, certify_three_sym, certify_two_sym,
                       char_poly, filter_sr2se, strongest_certificate,
                       sum_of_two_squares, trace_identities)
from .switching import (SwitchingClass, SwitchingWitness, class_invariants,
                        schem_normal_form, switch, switching_isomorphic)
from .constructions import (bibd_incidence, bipartite_double, cartesian_k2,
                            catalog, catalog_ids, clebsch_graph, folded_cube,
                            gewirtz_graph, hypercube, ltimes_charpoly_transform,
                            ltimes_k2, negation, signed_cube,
                            signed_tetrahedron)
from .weighing import (EquivalenceWitness, WeighingMatrix, equivalent,
                       from_bipartite_sr2se, intersection_numbers, is_proper,
                       parse_weighing_text, schem2_normal_form,
                       to_bipartite_sr2se, verify_weighing,
                       write_weighing_text)
from .search import (SearchOutcome, naive_signature_classes, proof_log,
                     search_signatures, search_signatures_dfs,
                     search_weighing, verify_nonexistence)
from .extension import (GramResidual, classify_constant_diag_gram,
                        classify_gram, classify_small_spectrum_02graph,
                        extend_four_to_three, extend_one_vertex,
                        extend_zero_pair, gram_residual)
from .formats import (parse_graph6, parse_signed, write_graph6, write_signed)

__version__ = "0.1.0"
