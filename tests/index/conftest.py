"""Fixtures shared by the index suite."""

from pathlib import Path

import pytest

import repro.batch.engine as engine

_HERE = Path(__file__).parent


def pytest_collection_modifyitems(config, items):
    """Run every test of this suite with ``RuntimeWarning`` as an error:
    numpy's ``invalid value`` warnings flag arithmetic (``inf - inf``)
    the elimination loops must handle explicitly, not by accident."""
    for item in items:
        if _HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))


@pytest.fixture(scope="module", params=["scalar", "batched"])
def lockstep_route(request):
    """Force every lockstep round down one route -- the scalar twins or
    one batched bounded sweep -- whatever the cost model would pick, so
    the bulk-vs-loop identity suites exercise both on every corpus
    (word rounds otherwise never reach the batched kernels)."""
    forced = request.param == "scalar"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "scalar_round_cheaper", lambda *args: forced)
        yield request.param
