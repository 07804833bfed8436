"""Shared fixtures of the resilience tests."""

import pytest

from repro.resilience import TieredCheckpointStore


@pytest.fixture
def make_store(tmp_path):
    """``make_store(n_nodes, **kw)``: stores under ``tmp_path``, closed
    (bleed flushed and stopped) at teardown."""
    stores = []

    def make(n_nodes, **kw):
        store = TieredCheckpointStore(tmp_path / f"store{len(stores)}",
                                      n_nodes=n_nodes, **kw)
        stores.append(store)
        return store

    yield make
    for store in stores:
        store.close()
