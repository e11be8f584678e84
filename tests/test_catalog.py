"""The catalog builds the entries it is asked for."""

import pytest

import knet.catalog
import knet.network
from knet.catalog import all_entries, entry_by_name


def test_entry_by_name_builds_one_network(monkeypatch):
    """Looking up one entry builds that entry's network only (looking it up
    among all_entries() built all eight)."""
    calls = []
    real = knet.network.build_network

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    # star_junction reaches build_network through knet.network, the
    # cycle graph through knet.catalog
    monkeypatch.setattr(knet.network, "build_network", counting)
    monkeypatch.setattr(knet.catalog, "build_network", counting)
    for name in ("star3_mixed", "graph5_constant"):
        calls.clear()
        assert entry_by_name(name).name == name
        assert len(calls) == 1, name


def test_entry_by_name_matches_all_entries():
    for entry in all_entries():
        assert entry_by_name(entry.name).name == entry.name
    for bad in ("no_such_entry", ["star3_mixed"]):
        with pytest.raises(KeyError):
            entry_by_name(bad)
