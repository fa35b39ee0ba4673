"""Exact-arithmetic toolkit for right-angled Coxeter groups, graph products
of cyclic groups, their commutator subgroups, and the cubical models of the
defining simplicial complexes."""

from .commutators import (CommutatorGenerator, NotFlagError,
                          commutator_subgroup_is_free, coxeter_spec,
                          enumerate_generators, generator_count,
                          generator_words, per_length_counts)
from .cubical import (CubeComplex, Pi1Presentation, basis_certificate, build,
                      certify, fundamental_group_presentation, homology,
                      homology_splitting_check, word_class, word_to_loop)
from .intlinalg import (ChainComplexError, HomologyGroup, IntMatrix,
                        chain_homology, direct_sum, smith_normal_form)
from .simplicial import (Chordality, Graph, SimplicialComplex, clique_complex,
                         is_chordal, is_flag, reduced_homology)
from .words import (GroupSpec, abelianization, commutator, evaluate,
                    generator, geometric_representation, is_identity,
                    is_identity_chamber, is_identity_matrix, multiply,
                    normal_form, random_word, verify_hall, verify_swap)

__version__ = "0.1.0"
