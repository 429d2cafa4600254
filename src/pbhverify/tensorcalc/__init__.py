"""Jet-based tensor calculus on chart domains."""

from .charts import ChartDomain, DomainError, ExcludedLocus, SamplePlan
from .jets import (Jet, JetSpace, jdet, jeinsum, jet_coords, jet_inv,
                   jet_solve, jet_space, jgrad, jmatmul, jmatvec, jtrace,
                   jtranspose)
from .fields import (Field, lift_to_jets, bivector_field, constant_endo, constant_form,
                     constant_metric, coordinate_oneform, coordinate_vector,
                     endo_field, form_field, metric_field, oneform_field,
                     scalar_field, vector_field, zero_form)
from .calculus import (combo_index, d_scalar, evaluate_form,
                       exterior_derivative, form_combos, form_from_matrix,
                       form_full, form_full_matrix, interior_product,
                       lie_bracket, nijenhuis_tensor, pullback_linear, sharp,
                       wedge)
