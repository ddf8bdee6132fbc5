"""Shared fixtures: small deterministic traces and common policies."""

import os
from dataclasses import asdict
from unittest import mock

import pytest

from repro import pktstream
from repro.net.trace import generate_trace


def reference_path():
    """``with reference_path():`` builds what is constructed inside as
    the ``SUPERFE_REFERENCE_PATH=1`` oracle (the flag is read at stage
    construction, so the window must span ``run()`` / ``stream()``),
    then restores the variable to what it found."""
    return mock.patch.dict(os.environ, {"SUPERFE_REFERENCE_PATH": "1"})


def engine_ledger(sink) -> list:
    """Per engine of ``sink`` (a ``FeatureEngine`` or a cluster of
    them): every counter, and every field of every section's
    ``GroupTableStats``."""
    return [(engine.counters(), {name: asdict(stats) for name, stats
                                 in engine.table_stats().items()})
            for engine in getattr(sink, "engines", [sink])]


@pytest.fixture(scope="session")
def enterprise_trace():
    """A small ENTERPRISE trace (deterministic)."""
    return generate_trace("ENTERPRISE", n_flows=200, seed=42)


@pytest.fixture(scope="session")
def campus_trace():
    return generate_trace("CAMPUS", n_flows=120, seed=42)


@pytest.fixture()
def basic_flow_policy():
    """The Fig 3 per-flow statistics policy."""
    return (
        pktstream()
        .filter("tcp.exist")
        .groupby("flow")
        .map("one", None, "f_one")
        .reduce("one", ["f_sum"])
        .map("ipt", "tstamp", "f_ipt")
        .reduce("size", ["f_mean", "f_var", "f_min", "f_max"])
        .reduce("ipt", ["f_mean", "f_var", "f_min", "f_max"])
        .collect("flow")
    )
