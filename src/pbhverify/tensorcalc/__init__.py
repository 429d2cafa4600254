"""Jet-based tensor calculus on chart domains."""

from .charts import ChartDomain, DomainError, ExcludedLocus, SamplePlan
from .jets import (Jet, JetSpace, jdet, jeinsum, jet_common, jet_coords, jet_inv,
                   jet_prefix, jet_solve, jet_space, jgrad, jmatmul, jmatvec,
                   jtrace, jtranspose)
from .fields import (Field, bivector_field, constant_endo, constant_metric,
                     coordinate_vector, endo_field, form_field, frame_field,
                     frame_lift, metric_field, oneform_field, same_frame,
                     scalar_field, vector_field, zero_form)
from .calculus import (bracket_jets, combo_index, d_scalar, evaluate_form,
                       exterior_derivative, form_combos, form_from_matrix, form_full,
                       form_full_matrix, interior_product, lie_bracket, nijenhuis_jets,
                       nijenhuis_tensor, pullback_linear, wedge)
