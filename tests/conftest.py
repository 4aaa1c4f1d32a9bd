import pytest
from hypothesis import settings

from freesplit.fixtures import fixture
from freesplit.pairs import one_edge_splitting
from freesplit.wproj import build_context, default_m_samples, estimate_M

# Property tests draw the same examples on every run and every machine, so a
# failure seen once is seen again; the example database is not consulted.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def filling_spec():
    return fixture("filling_reducible")


@pytest.fixture(scope="session")
def bdd_spec():
    return fixture("bdd_no_periodic")


@pytest.fixture(scope="session")
def filling_ctx(filling_spec):
    """Context with the empirical constant estimated, shared across tests."""
    mg, f = filling_spec.mg, filling_spec.f
    ctx = build_context(mg, f)
    s1 = one_edge_splitting(mg, ["X", "Y", "Z", "A"])
    s2 = one_edge_splitting(mg, ["X", "Y", "Z", "B"])
    estimate_M(ctx, default_m_samples(ctx, [s1, s2]))
    return ctx
