"""Test helpers for model certification, and ``example2_params`` for the
pair construction's parameters.

``kodaira_candidates`` are three signed split-quaternion frame assignments
on the Kodaira nilmanifold coframe, each a (J1, J2) pair of frame
components with the frame metric ``KODAIRA_FRAME_METRIC``.  The last is
the one ``models.kodaira_phk`` ships.  The first two are negative controls
that certification must reject: the first fails metric compatibility only
(residual 2.0), the second closedness (1.0) and the Nijenhuis condition
(4.0), with its algebra, compatibility and deck residuals at roundoff.
"""

import ast

import numpy as np

from pbhverify import models
from pbhverify.models import Example2Params, ModelDescriptor, ModelError
from pbhverify.suites import SuiteConfig


def example2_params(**fields) -> Example2Params:
    """The pair and flow parameters of ``SuiteConfig(**fields)``: the
    configuration defaults with ``fields`` set."""
    return SuiteConfig(**fields).example2_params()


# g pairs E1 with E4 and E2 with E3
KODAIRA_FRAME_METRIC = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0],
                                 [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])


def _signed(pairs):
    m = np.zeros((4, 4))
    for i, j, s in pairs:
        m[i, j] = s
    return m


def kodaira_candidates():
    """The (J1, J2) frame components of the three assignments, in order:
    compatibility fails, closedness and Nijenhuis fail, certified."""
    j1_good = _signed([(1, 0, 1), (0, 1, -1), (3, 2, -1), (2, 3, 1)])
    # passes the algebra but one fundamental form picks up the non-closed
    # coframe wedge
    j1_open = _signed([(2, 0, 1), (3, 1, -1), (0, 2, -1), (1, 3, 1)])
    return [(j1_good, np.diag([1.0, -1.0, -1.0, 1.0])),  # product-structure signs flipped
            (j1_open, np.diag([1.0, 1.0, -1.0, -1.0])),
            (j1_good, np.diag([1.0, -1.0, 1.0, -1.0]))]


def kodaira_triples(chart):
    """The triple of each candidate, in order."""
    return [models._kodaira_triple(chart, j1f, j2f, KODAIRA_FRAME_METRIC)
            for j1f, j2f in kodaira_candidates()]


def kodaira_candidate_models(kodaira_model):
    """Each candidate as an uncertified model with the shipped chart and
    deck maps."""
    return [ModelDescriptor("kodaira", kodaira_model.chart, triple, kodaira_model.lattice)
            for triple in kodaira_triples(kodaira_model.chart)]


def lattice_residual(model, pts):
    """The deck residual at ``pts``, with the triple evaluated there first."""
    t = model.triple
    return model.lattice_residual(pts, t.stack(pts, 1), t.g.eval_jet(pts))


def certified_residuals(model, plan):
    """``certify``'s residual dict, passed or failed."""
    try:
        return model.certify(plan)
    except ModelError as exc:
        return ast.literal_eval(str(exc).split("failed certification: ")[1])
