"""Sensing model tables and the water-filling allocator against its oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agecourier as ac
from agecourier.sensing_alloc import (
    ConvexityViolation,
    InstanceTooLarge,
    InsufficientBudget,
    MaxMExceeded,
    NonPositiveAlpha,
    OutOfRange,
)

from _support import REF_ALPHAS, REF_WATERFILL_10, ref_model


def test_parametric_tables():
    model = ac.make_model((4.0,), max_m=5)
    assert model.mu_table[0] == (4.0, 2.0, 4.0 / 3.0, 1.0, 1.0)
    assert model.q_table[0] == (0.25, 0.5, 0.75, 1.0, 1.0)
    assert ac.mu(model, 0, 1) == 4.0
    assert ac.success_probability(model, 0, 4) == 1.0
    assert model.node_count == 1


def test_mu_times_q_is_one_before_the_clamp():
    model = ref_model(max_m=3)
    for i in range(model.node_count):
        for m in range(1, 4):
            if ac.success_probability(model, i, m) < 1.0:
                assert ac.mu(model, i, m) * ac.success_probability(model, i, m) == pytest.approx(1.0)
            else:
                assert ac.mu(model, i, m) == 1.0


def test_make_model_rejects_bad_inputs():
    with pytest.raises(NonPositiveAlpha):
        ac.make_model((4.0, 0.0), max_m=2)
    with pytest.raises(NonPositiveAlpha):
        ac.make_model((-1.0,), max_m=2)
    with pytest.raises(NonPositiveAlpha, match="finite"):
        ac.make_model((4.0, float("inf")), max_m=2)
    with pytest.raises(OutOfRange):
        ac.make_model((4.0,), max_m=0)


def test_model_from_mu_table_roundtrip_and_validation():
    model = ac.model_from_mu_table(((6.0, 3.0, 2.0), (2.0, 1.0, 1.0)))
    assert model.max_m == 3
    assert model.alphas == (6.0, 2.0)
    assert model.q_table[0] == (1.0 / 6.0, 1.0 / 3.0, 0.5)
    with pytest.raises(OutOfRange):
        ac.model_from_mu_table(())
    with pytest.raises(OutOfRange):
        ac.model_from_mu_table(((2.0, 1.0), (2.0,)))
    with pytest.raises(NonPositiveAlpha):
        ac.model_from_mu_table(((2.0, 0.0),))
    # mean sensing time must never rise with more robots
    with pytest.raises(ConvexityViolation):
        ac.model_from_mu_table(((2.0, 3.0),))
    # and each extra robot must help no more than the one before it
    with pytest.raises(ConvexityViolation) as exc:
        ac.model_from_mu_table(((5.0, 4.0, 1.0),))
    assert exc.value.node == 0 and exc.value.m == 2
    # a model checks itself when made, so one built directly never reaches water_fill
    with pytest.raises(ConvexityViolation) as exc:
        ac.SensingModel(
            alphas=(5.0,), max_m=3, mu_table=((5.0, 4.0, 1.0),), q_table=((0.2, 0.25, 1.0),)
        )
    assert exc.value.node == 0 and exc.value.m == 2


def test_parametric_family_never_violates_convexity():
    rng = np.random.default_rng(23)
    for _ in range(200):
        k = int(rng.integers(1, 6))
        alphas = rng.uniform(0.2, 12.0, size=k)
        ac.make_model(tuple(alphas), max_m=int(rng.integers(1, 9)))


def test_index_guards():
    model = ref_model(max_m=3)
    with pytest.raises(OutOfRange):
        ac.mu(model, 7, 1)
    with pytest.raises(OutOfRange):
        ac.mu(model, -1, 1)
    with pytest.raises(OutOfRange):
        ac.mu(model, 0, 0)
    with pytest.raises(OutOfRange):
        ac.mu(model, 0, 4)
    with pytest.raises(OutOfRange):
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
    brute = ac.brute_force_alloc(model, 10)
    assert ac.allocation_objective(model, brute) == ac.allocation_objective(model, alloc)


def test_waterfill_floor_is_one_each():
    model = ref_model(max_m=3)
    assert ac.water_fill(model, 7).m == (1,) * 7


def test_greedy_tiebreak_lowest_index():
    model = ac.make_model((4.0, 4.0), max_m=3)
    assert ac.water_fill(model, 3).m == (2, 1)


def test_budget_and_capacity_errors():
    model = ref_model(max_m=3)
    with pytest.raises(InsufficientBudget):
        ac.water_fill(model, 6)
    with pytest.raises(InsufficientBudget):
        ac.brute_force_alloc(model, 6)
    with pytest.raises(InsufficientBudget):
        ac.uniform_alloc(model, 6)
    capped = ac.make_model(REF_ALPHAS, max_m=1)
    with pytest.raises(MaxMExceeded):
        ac.water_fill(capped, 8)
    with pytest.raises(MaxMExceeded):
        ac.brute_force_alloc(capped, 8)
    with pytest.raises(MaxMExceeded):
        ac.uniform_alloc(capped, 14)
    with pytest.raises(InstanceTooLarge):
        ac.brute_force_alloc(ac.make_model((2.0, 2.0, 2.0, 2.0), max_m=500), 500)


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
    return ac.model_from_mu_table(rows), n_s


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_allocation_instances())
def test_greedy_matches_brute_force_on_random_instances(instance):
    model, n_s = instance
    if n_s > model.node_count * model.max_m:
        with pytest.raises(MaxMExceeded):
            ac.water_fill(model, n_s)
        with pytest.raises(MaxMExceeded):
            ac.brute_force_alloc(model, n_s)
        return
    greedy = ac.water_fill(model, n_s)
    brute = ac.brute_force_alloc(model, n_s)
    assert greedy.total == brute.total == n_s
    assert max(greedy.m) <= model.max_m
    assert abs(
        ac.allocation_objective(model, greedy) - ac.allocation_objective(model, brute)
    ) <= 1e-9
