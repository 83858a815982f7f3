"""Fixtures shared by the index suite."""

import pytest

import repro.batch.engine as engine


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
