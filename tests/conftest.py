import pytest

from model_helpers import example2_params
from pbhverify import models
from pbhverify.models import example2_build, kodaira_phk, torus_phk
from pbhverify.tensorcalc import SamplePlan


@pytest.fixture(scope="session")
def torus_model():
    m = torus_phk()
    m.certify(SamplePlan(16, 1))
    return m


@pytest.fixture(scope="session")
def kodaira_model():
    m = kodaira_phk()
    m.certify(SamplePlan(16, 1))
    return m


@pytest.fixture(scope="session")
def plan():
    return SamplePlan(16, 42)


@pytest.fixture(scope="session")
def torus_points(torus_model, plan):
    return plan.sample(torus_model.chart)


@pytest.fixture(scope="session")
def torus_bundle(torus_model, plan):
    return example2_build(torus_model, example2_params(), plan)


@pytest.fixture(scope="session")
def conformal_metric(torus_model):
    """e^{sin x1} times the flat neutral metric."""
    return models.conformal_metric(torus_model)
