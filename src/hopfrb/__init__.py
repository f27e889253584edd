"""Exact verification toolkit for Rota-Baxter operators on finite groups,
Hopf algebras, and Lie algebras, over Q, cyclotomic fields, and prime fields."""

from .constructions import (FamilyParams, family, family_aut_report, family_aut_search,
                            family_hypotheses, group_algebra, qbinom, sweedler_h4, taft)
from .hopf_core import (ActionData, AlgebraData, CoalgebraData, HopfData, LinearMap,
                        check_algebra, check_antipode, check_bialgebra_compat,
                        check_coalgebra, check_hopf, generating_set, group_like_basis_indices,
                        hopf_from_json, hopf_to_json, is_algebra_morphism,
                        is_coalgebra_morphism, is_group_like, is_hopf_morphism, opposite_hopf)
from .rb_group import (DEFAULT_CAP, CapExceeded, GroupAction, GroupTable, automorphisms,
                       check_group, check_rb, check_rb_lambda, check_star_compat, circ_from_rrb,
                       derived_group, enumerate_rb, group_from_json, lemma_checks,
                       linearize_rb, operator_from_json, operator_to_json, power_star,
                       relative_rb_check, skew_brace_check)
from .rb_hopf import (RelRBHopf, adjoint_action, check_action, check_hopf_brace,
                      check_rrbo, circle, derived_hopf, exact_factorization_rrb,
                      grbo_check, hrbo_action, hrbo_check, rrb_from_json, rrb_to_json)
from .rb_lie import (LieData, adjoint_lie_action, check_derivation_action, check_lie,
                     check_rb_lie_weight, check_relative_rb_lie, lie_from_json,
                     lie_to_json, sl2)
from .report import VerificationReport, merge_reports
from .scalars import FieldCtx, MixedContextError, Scalar, parse_field, parse_scalar

__version__ = "0.1.0"
