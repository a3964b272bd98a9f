"""Exact twisted-derivation toolkit for group rings of finite groups.

Computes (sigma, tau)-derivations of FG over prime fields and the
rationals, classifies them as inner or outer through twisted conjugacy,
carries closed-form checks for dihedral group algebras, and constructs
linear codes from derivation images with full parameter reports.
"""

from .linalg import GF, QQ, Field, Matrix, kernel_basis, rank, solve
from .groups import (DihedralEndoParams, Endomorphism, FiniteGroup, abelian_group,
                     brute_force_endomorphisms, compose, cyclic_group, dihedral_group,
                     element_order, endo_from_images, enumerate_endomorphisms,
                     identity_endomorphism, make_group, parse_word, table_group,
                     word_str)
from .groupring import (GroupRingElement, anticentralizer_basis, apply_endo,
                        centralizer_basis, format_element, parse_element)
from .derivations import (AlgebraEndo, GeneratorMap, TwistedDerivation, abelian_basis,
                          averaging_witness, cyclic_power_derivation, derivation_space,
                          derivation_space_full, extend_from_generators, free_eval,
                          inner_derivation, is_inner, verify_derivation)
from .conjugacy import (ConjugacyPartition, TwistedCenterBasis, class_sums, inner_basis,
                        twisted_center_dimension, twisted_center_group,
                        twisted_center_space, twisted_centralizer, twisted_classes)
from .dihedral import (DihedralPrediction, NoClosedForm, explicit_basis, params_for,
                       predict, predict_classes, predict_dim_derivations,
                       predict_dim_inner, predict_outer)
from .codes import (CodeReport, LinearCode, code_report, derivation_matrix, dual_code,
                    encode, idd_code, is_lcd, is_self_orthogonal, linear_code_report,
                    matrix_text, min_distance, subset_sweep, weight_distribution)
from .errors import (DependentSubset, DerivationRejected, HomomorphismRejected,
                     MathRejection)

__version__ = "0.1.0"
