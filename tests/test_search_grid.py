"""Factored pruning: ``Pruner.prune_grid`` against the object-wise cascade.

The search engines prune the whole (schedule, geometry, tile) grid at once,
evaluating each rule once per distinct factor key.  The reference here is
the plain cascade: :meth:`Pruner.failed_rule` applied to every candidate of
:meth:`SearchSpace.candidates`.  Both must agree on the surviving
candidates, their enumeration order, and every Table III count.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.spec import h100_spec
from repro.ir.builders import build_gated_ffn, build_standard_ffn
from repro.ir.workloads import get_chain_spec
from repro.search.engine import SearchEngine
from repro.search.pruning import Pruner, PruningRule
from repro.search.space import SearchSpace

WORKLOADS = (
    [f"G{i}" for i in range(1, 11)]
    + [f"S{i}" for i in range(1, 9)]
    + [f"C{i}" for i in range(1, 9)]
)


@pytest.fixture(scope="module")
def device():
    return h100_spec()


def _reference_cascade(pruner, space, chain):
    """Survivors (index, candidate) and per-rule counts, one candidate at a time."""
    order = list(PruningRule)
    passed = dict.fromkeys(order, 0)
    survivors = []
    initial = 0
    for index, candidate in enumerate(space.candidates(chain)):
        initial += 1
        failed = pruner.failed_rule(candidate)
        depth = len(order) if failed is None else order.index(failed)
        for rule in order[:depth]:
            passed[rule] += 1
        if failed is None:
            survivors.append((index, candidate))
    return survivors, passed, initial


def _assert_grid_matches_reference(device, chain, space, include_dsm=True):
    expected, passed, initial = _reference_cascade(
        Pruner(device, include_dsm=include_dsm), space, chain
    )
    pruner = Pruner(device, include_dsm=include_dsm)
    components = space.components(chain)
    survivors = pruner.prune_grid(chain, components).tolist()
    assert survivors == [index for index, _ in expected]
    assert [components.candidate(chain, index) for index in survivors] == [
        candidate for _, candidate in expected
    ]
    assert pruner.stats.initial == initial
    assert pruner.stats.surviving == passed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_grid_matches_cascade(device, workload):
    _assert_grid_matches_reference(
        device, get_chain_spec(workload), SearchSpace(device, max_tile=128)
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_grid_matches_cascade_without_dsm(device, workload):
    space = SearchSpace(device, max_tile=128, include_clusters=False)
    _assert_grid_matches_reference(
        device, get_chain_spec(workload), space, include_dsm=False
    )


def test_grid_matches_cascade_gated_default_space(device):
    _assert_grid_matches_reference(device, get_chain_spec("S8"), SearchSpace(device))


@settings(deadline=None)
@given(
    m=st.sampled_from([16, 48, 64, 100, 196, 200, 256, 392]),
    n=st.sampled_from([64, 96, 128, 256]),
    k=st.sampled_from([64, 128, 160, 256]),
    l=st.sampled_from([64, 128, 256]),
    gated=st.booleans(),
    include_dsm=st.booleans(),
)
def test_grid_matches_cascade_property(m, n, k, l, gated, include_dsm):
    """Random extents, including irregular M that Rule 1 pads."""
    device = h100_spec()
    build = build_gated_ffn if gated else build_standard_ffn
    _, chain = build("grid-prop", m=m, n=n, k=k, l=l)
    space = SearchSpace(device, max_tile=64, include_clusters=include_dsm)
    _assert_grid_matches_reference(device, chain, space, include_dsm=include_dsm)


def test_budgeted_search_keeps_full_counts(device):
    chain = get_chain_spec("G1")
    space = SearchSpace(device, max_tile=128)
    full = SearchEngine(device, top_k=3, space=space).search(chain)
    budgeted = SearchEngine(device, top_k=3, space=space, max_candidates=50).search(
        chain
    )
    assert budgeted.candidates_analyzed == 50
    assert budgeted.candidates_enumerated == full.candidates_enumerated
    assert budgeted.pruning_stats.initial == full.pruning_stats.initial
    assert budgeted.pruning_stats.surviving == full.pruning_stats.surviving
    assert len(budgeted.pruning_stats.as_rows()) == len(PruningRule) + 1
