"""Input faults that share an exception type are told apart by their messages:
each fault below raises exactly the type given, with exactly this message."""

import pytest

import agecourier as ac
from agecourier.graph_core import GraphError

from _support import REF_ALPHAS, ref_config, ref_model

_UNSORTED = ac.DeliveryLog([1, 1], [0, 2], [1, 3], [5, 4])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ac.build_graph(3, [(0, 3)]), GraphError, "edge (0, 3) outside 0..2"),
        (lambda: ac.build_graph(3, [(0, 1), (1, 1)]), GraphError, "self-loop at node 1"),
        (lambda: ac.build_graph(3, [(0, 1), (1, 0)]), GraphError, "duplicate edge (0, 1)"),
        (
            lambda: ac.build_graph(4, [(0, 1), (2, 3)]),
            GraphError,
            "nodes unreachable from base: [2, 3]",
        ),
        (
            lambda: ac.make_model((4.0, 0.0), max_m=2),
            ValueError,
            "alpha at index 1 must be finite and > 0, got 0.0",
        ),
        (lambda: ac.mu(ref_model(), 9, 1), ValueError, "node index 9 outside 0..6"),
        (lambda: ac.water_fill(ref_model(), 3), ValueError, "need at least 7 robots, got 3"),
        (
            lambda: ac.water_fill(ac.make_model(REF_ALPHAS, max_m=1), 8),
            ValueError,
            "all nodes already at max_m=1",
        ),
        (lambda: ac.generation_mask(0, 1, 1.5, 10), ValueError, "q must be in (0, 1], got 1.5"),
        (
            lambda: ac.aoi_from_event_log(_UNSORTED, horizon=8),
            ValueError,
            "events for origin 1 are not time-ordered",
        ),
        (lambda: ac.uniform_phases(14, 0), ValueError, "conveyor count 0 outside 1..14"),
        (
            lambda: ac.split_sweep(ref_config(horizon=300, warmup=30), 7, seeds=[0]),
            ValueError,
            "total 7 cannot cover 7 sensors plus one conveyor",
        ),
    ],
    ids=[
        "edge_outside", "self_loop", "duplicate_edge", "disconnected", "alpha_zero",
        "node_index", "too_few_robots", "max_m_full", "q_above_one", "unsorted_log",
        "conveyor_count", "sweep_total",
    ],
)
def test_each_input_fault_has_its_message(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message
