"""Sensing model tables and the water-filling allocator against its oracle."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agecourier as ac
from agecourier.sensing_alloc import ConvexityViolation

from _oracle import InstanceTooLarge, brute_force_alloc, table_model
from _support import REF_ALPHAS, REF_WATERFILL_10, ref_model


def test_parametric_tables():
    model = ac.make_model((4.0,), max_m=5)
    assert [f.name for f in dataclasses.fields(ac.SensingModel)] == ["mu_table"]
    assert model.mu_table[0] == (4.0, 2.0, 4.0 / 3.0, 1.0, 1.0)
    assert [ac.success_probability(model, 0, m) for m in range(1, 6)] == [0.25, 0.5, 0.75, 1.0, 1.0]
    assert ac.mu(model, 0, 1) == 4.0
    assert ac.success_probability(model, 0, 4) == 1.0
    assert (model.node_count, model.max_m) == (1, 5)


def test_mu_times_q_is_one_before_the_clamp():
    model = ref_model(max_m=3)
    for i in range(model.node_count):
        for m in range(1, 4):
            if ac.success_probability(model, i, m) < 1.0:
                assert ac.mu(model, i, m) * ac.success_probability(model, i, m) == pytest.approx(1.0)
            else:
                assert ac.mu(model, i, m) == 1.0


def test_make_model_rejects_bad_inputs():
    with pytest.raises(ValueError, match="^alpha at index 1 must be finite and > 0, got 0.0$"):
        ac.make_model((4.0, 0.0), max_m=2)
    with pytest.raises(ValueError, match="^alpha at index 0 must be finite and > 0, got -1.0$"):
        ac.make_model((-1.0,), max_m=2)
    with pytest.raises(ValueError, match="^alpha at index 1 must be finite and > 0, got inf$"):
        ac.make_model((4.0, float("inf")), max_m=2)
    with pytest.raises(ValueError, match=r"^mu_table rows must all hold max_m >= 1 entries, got \[0\]$"):
        ac.make_model((4.0,), max_m=0)


def test_table_model_roundtrip_and_validation():
    model = table_model(((6.0, 3.0, 2.0), (2.0, 1.0, 1.0)))
    assert (model.node_count, model.max_m) == (2, 3)
    assert model.mu_table == ((6.0, 3.0, 2.0), (2.0, 1.0, 1.0))
    assert [ac.success_probability(model, 0, m) for m in (1, 2, 3)] == [1.0 / 6.0, 1.0 / 3.0, 0.5]
    with pytest.raises(ValueError, match="^a model needs at least one node$"):
        ac.SensingModel(mu_table=())
    with pytest.raises(ValueError, match=r"^mu_table rows must all hold max_m >= 1 entries, got \[1, 2\]$"):
        ac.SensingModel(mu_table=((2.0, 1.0), (2.0,)))
    with pytest.raises(ValueError, match="^mu values at index 0 must be finite and > 0$"):
        ac.SensingModel(mu_table=((2.0, 0.0),))
    # mean sensing time must never rise with more robots
    with pytest.raises(ConvexityViolation):
        table_model(((2.0, 3.0),))
    # and each extra robot must help no more than the one before it
    with pytest.raises(ConvexityViolation) as exc:
        table_model(((5.0, 4.0, 1.0),))
    assert exc.value.node == 0 and exc.value.m == 2
    # a model checks itself when made, so one built directly never reaches water_fill
    with pytest.raises(ConvexityViolation) as exc:
        ac.SensingModel(mu_table=((5.0, 4.0, 1.0),))
    assert exc.value.node == 0 and exc.value.m == 2


_GOOD = ((4.0, 2.0), (2.0, 1.0))


@pytest.mark.parametrize(
    "table, message",
    [
        (((4.0, 2.0), (2.0,)), r"mu_table rows must all hold max_m >= 1 entries, got \[1, 2\]"),
        # q = 1 / mu: a mean below one slot is a q above one, an infinite mean a q of zero
        (((4.0, 2.0), (2.0, 0.5)), "mu values at index 1 must be at least one slot"),
        (((float("inf"), 2.0), (2.0, 1.0)), "mu values at index 0 must be finite and > 0"),
        (((4.0, 2.0), (2.0, -1.0)), "mu values at index 1 must be finite and > 0"),
        (((4.0, 0.0), (2.0, 1.0)), "mu values at index 0 must be finite and > 0"),
        (((), ()), r"mu_table rows must all hold max_m >= 1 entries, got \[0\]"),
        # a node's alpha is its one-robot mean, the first entry of its row
        (((4.0, 2.0), (-1.0, -2.0)), "mu values at index 1 must be finite and > 0"),
        (((float("nan"), 2.0), (2.0, 1.0)), "mu values at index 0 must be finite and > 0"),
    ],
    ids=["ragged", "q_above_one", "q_zero", "mu_negative", "mu_zero", "max_m_zero",
         "alpha_negative", "alpha_nan"],
)
def test_a_directly_built_model_checks_every_rule(table, message):
    ac.SensingModel(mu_table=_GOOD)
    with pytest.raises(ValueError, match=f"^{message}$"):
        ac.SensingModel(mu_table=table)


def test_make_model_leaves_every_check_to_the_model():
    # make_model checks only the rule its alphas add, before it builds the
    # table; every other fault surfaces as the model's own error
    with pytest.raises(ValueError, match="^alpha at index 0 must be finite and > 0, got 0.0$"):
        ac.make_model((0.0,), max_m=0)
    with pytest.raises(ValueError, match="alpha at index 1 must be finite and > 0, got -1.0"):
        ac.make_model((4.0, -1.0), max_m=2)
    with pytest.raises(ValueError, match="alpha at index 0 must be finite and > 0, got nan"):
        ac.make_model((float("nan"), 2.0), max_m=2)
    with pytest.raises(ValueError, match=r"max_m >= 1 entries, got \[0\]"):
        ac.make_model((4.0,), max_m=-2)
    with pytest.raises(ValueError, match="a model needs at least one node"):
        ac.make_model((), max_m=2)
    # q is exactly the reciprocal of the clamped mean
    alphas = np.random.default_rng(24).uniform(0.2, 12.0, size=50)
    model = ac.make_model(alphas, max_m=13)
    for i, a in enumerate(alphas.tolist()):
        q_row = [ac.success_probability(model, i, m) for m in range(1, 14)]
        assert q_row == [1.0 / max(a / m, 1.0) for m in range(1, 14)]


def test_success_probability_is_exactly_one_over_mu():
    rng = np.random.default_rng(25)
    models = []
    for _ in range(50):
        alphas = rng.uniform(0.2, 12.0, size=int(rng.integers(1, 6)))
        models.append(ac.make_model(alphas, max_m=int(rng.integers(1, 14))))
    for _ in range(50):
        # convex float tables: a floor of at least one slot plus shrinking gains
        max_m = int(rng.integers(1, 7))
        rows = []
        for _ in range(int(rng.integers(1, 5))):
            gains = np.sort(rng.uniform(0.0, 5.0, size=max_m - 1))[::-1]
            floor = rng.uniform(1.0, 10.0)
            rows.append([floor + float(gains[j:].sum()) for j in range(max_m)])
        models.append(table_model(rows))
    for model in models:
        for i in range(model.node_count):
            for m in range(1, model.max_m + 1):
                assert ac.success_probability(model, i, m) == 1.0 / ac.mu(model, i, m)
    # a mean below one slot or an infinite one has no probability, and the
    # model names the node index
    with pytest.raises(ValueError, match="mu values at index 2 must be at least one slot"):
        table_model(((3.0, 2.0), (2.0, 1.0), (2.0, 0.5)))
    with pytest.raises(ValueError, match="mu values at index 1 must be finite"):
        ac.SensingModel(mu_table=((3.0, 2.0), (float("inf"), 1.0)))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.lists(st.floats(0.2, 50.0), min_size=1, max_size=8), st.integers(1, 12))
def test_a_model_rebuilt_from_its_table_is_the_same_model(alphas, max_m):
    model = ac.make_model(alphas, max_m)
    assert ac.SensingModel(mu_table=model.mu_table) == model
    assert (model.max_m, model.node_count) == (max_m, len(alphas))


def test_parametric_family_never_violates_convexity():
    rng = np.random.default_rng(23)
    for _ in range(200):
        k = int(rng.integers(1, 6))
        alphas = rng.uniform(0.2, 12.0, size=k)
        ac.make_model(tuple(alphas), max_m=int(rng.integers(1, 9)))


def test_index_guards():
    model = ref_model(max_m=3)
    with pytest.raises(ValueError, match="^node index 7 outside 0..6$"):
        ac.mu(model, 7, 1)
    with pytest.raises(ValueError, match="^node index -1 outside 0..6$"):
        ac.mu(model, -1, 1)
    with pytest.raises(ValueError, match="^robot count 0 outside 1..3$"):
        ac.mu(model, 0, 0)
    with pytest.raises(ValueError, match="^robot count 4 outside 1..3$"):
        ac.mu(model, 0, 4)
    with pytest.raises(ValueError, match="^allocation length does not match model$"):
        ac.allocation_objective(model, ac.SensingAllocation(m=(1, 1)))


def test_allocation_requires_one_robot_everywhere():
    with pytest.raises(ValueError):
        ac.SensingAllocation(m=(1, 0, 1))
    assert ac.SensingAllocation(m=(2, 1)).total == 3


def test_reference_waterfill():
    model = ref_model(max_m=3)
    alloc = ac.water_fill(model, 10)
    assert alloc.m == REF_WATERFILL_10
    assert ac.allocation_objective(model, alloc) == sum(
        max(a / m, 1.0) for a, m in zip(REF_ALPHAS, REF_WATERFILL_10)
    )
    brute = brute_force_alloc(model, 10)
    assert ac.allocation_objective(model, brute) == ac.allocation_objective(model, alloc)


def test_waterfill_floor_is_one_each():
    model = ref_model(max_m=3)
    assert ac.water_fill(model, 7).m == (1,) * 7


def test_greedy_tiebreak_lowest_index():
    model = ac.make_model((4.0, 4.0), max_m=3)
    assert ac.water_fill(model, 3).m == (2, 1)


def test_budget_and_capacity_errors():
    model = ref_model(max_m=3)
    with pytest.raises(ValueError, match="^need at least 7 robots, got 6$"):
        ac.water_fill(model, 6)
    with pytest.raises(ValueError, match="^need at least 7 robots, got 6$"):
        brute_force_alloc(model, 6)
    with pytest.raises(ValueError, match="^need at least 7 robots, got 6$"):
        ac.uniform_alloc(model, 6)
    capped = ac.make_model(REF_ALPHAS, max_m=1)
    with pytest.raises(ValueError, match="^all nodes already at max_m=1$"):
        ac.water_fill(capped, 8)
    with pytest.raises(ValueError, match="^no allocation of 8 fits under max_m=1$"):
        brute_force_alloc(capped, 8)
    with pytest.raises(ValueError, match="^uniform share 2 exceeds max_m=1$"):
        ac.uniform_alloc(capped, 14)
    with pytest.raises(InstanceTooLarge):
        brute_force_alloc(ac.make_model((2.0, 2.0, 2.0, 2.0), max_m=500), 500)


def test_uniform_alloc_spreads_leftovers_low():
    model = ref_model(max_m=3)
    assert ac.uniform_alloc(model, 10).m == (2, 2, 2, 1, 1, 1, 1)
    assert ac.uniform_alloc(model, 14).m == (2,) * 7
    assert ac.uniform_alloc(model, 7).m == (1,) * 7


@st.composite
def _allocation_instances(draw):
    """(model, n_s) with a cap that may bind: a parametric model, or a convex
    table whose per-node benefits are integers that never increase."""
    k = draw(st.integers(1, 4))
    n_s = draw(st.integers(k, k + 6))
    max_m = draw(st.integers(1, n_s + 1))
    if draw(st.booleans()):
        alphas = draw(st.lists(st.floats(1.0, 10.0), min_size=k, max_size=k))
        return ac.make_model(alphas, max_m=max_m), n_s
    rows = []
    for _ in range(k):
        benefits = draw(st.lists(st.integers(0, 5), min_size=max_m - 1, max_size=max_m - 1))
        benefits.sort(reverse=True)
        floor = draw(st.integers(1, 5))
        rows.append([floor + sum(benefits[j:]) for j in range(max_m)])
    return table_model(rows), n_s


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_allocation_instances())
def test_greedy_matches_brute_force_on_random_instances(instance):
    model, n_s = instance
    if n_s > model.node_count * model.max_m:
        with pytest.raises(ValueError, match=f"^all nodes already at max_m={model.max_m}$"):
            ac.water_fill(model, n_s)
        with pytest.raises(ValueError, match=f"^no allocation of {n_s} fits under max_m={model.max_m}$"):
            brute_force_alloc(model, n_s)
        return
    greedy = ac.water_fill(model, n_s)
    brute = brute_force_alloc(model, n_s)
    assert greedy.total == brute.total == n_s
    assert max(greedy.m) <= model.max_m
    assert abs(
        ac.allocation_objective(model, greedy) - ac.allocation_objective(model, brute)
    ) <= 1e-9
