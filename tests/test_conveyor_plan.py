"""Euler walks, phase schedules, the gap analytics of `_oracle`, and coverage
audits, the last against the static pickup model of `_oracle`."""

import dataclasses
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agecourier as ac

from _oracle import (
    NodeIsBase,
    baseward_departure_slots,
    cyclic_gaps,
    residual_life_mean,
    static_coverage_audit,
)
from _support import (
    REF_L,
    REF_WALK,
    every_slot_config,
    random_tree_graph,
    ref_config,
    ref_walk,
)


def test_reference_walk():
    walk = ref_walk()
    assert walk.sequence == REF_WALK
    assert walk.length == REF_L


def test_walk_traverses_each_tree_edge_twice():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        g = random_tree_graph(rng, n)
        tree = ac.shortest_path_tree(g)
        walk = ac.euler_walk(tree)
        assert walk.length == 2 * (n - 1)
        assert walk.sequence[0] == walk.sequence[-1] == 0
        steps = list(zip(walk.sequence, walk.sequence[1:]))
        directed = {(u, v) for u, v in steps}
        assert len(steps) == len(directed), "no step repeats"
        for child, parent in tree.parent.items():
            assert (parent, child) in directed and (child, parent) in directed
        one = ac.PhaseSet((0,), walk.length)
        for node, parent in tree.parent.items():
            (j,) = baseward_departure_slots(walk, node, one)
            assert walk.sequence[j + 1] == parent


def test_walk_over_a_long_path_needs_no_recursion():
    # one tree level per node: far deeper than the interpreter's recursion limit
    n = 3000
    g = ac.build_graph(n, [(i, i + 1) for i in range(n - 1)])
    walk = ac.euler_walk(ac.shortest_path_tree(g))
    assert walk.sequence == tuple(range(n)) + tuple(range(n - 2, -1, -1))
    assert walk.length == 2 * (n - 1)


def test_walk_validation():
    # a walk is only its sequence; its length is worked out from it
    assert [f.name for f in dataclasses.fields(ac.EulerWalk)] == ["sequence"]
    assert ac.EulerWalk(sequence=(0, 1, 0)).length == 2
    with pytest.raises(ValueError):
        ac.EulerWalk(sequence=(0, 1, 0, 1))
    with pytest.raises(ValueError):
        ac.EulerWalk(sequence=(1, 0, 1))


def test_phase_set_validation():
    ac.PhaseSet(phases=(0, 3), walk_length=4)
    with pytest.raises(ValueError):
        ac.PhaseSet(phases=(), walk_length=4)
    with pytest.raises(ValueError):
        ac.PhaseSet(phases=(0, 0), walk_length=4)
    with pytest.raises(ValueError):
        ac.PhaseSet(phases=(3, 0), walk_length=4)
    with pytest.raises(ValueError):
        ac.PhaseSet(phases=(0, 4), walk_length=4)
    with pytest.raises(ValueError):
        ac.PhaseSet(phases=(0, 1, 2, 3, 1), walk_length=4)


def test_uniform_phases_values():
    assert ac.uniform_phases(14, 7).phases == (0, 2, 4, 6, 8, 10, 12)
    assert ac.uniform_phases(14, 14).phases == tuple(range(14))
    assert ac.uniform_phases(14, 4).phases == (0, 3, 7, 10)
    assert ac.uniform_phases(14, 1).phases == (0,)


def test_clustered_phases_values():
    assert ac.clustered_phases(3, 14).phases == (0, 1, 2)
    assert ac.clustered_phases(14, 14).phases == tuple(range(14))


def test_random_phases_reproducible_and_valid():
    a = ac.random_phases(5, 14, seed=9)
    b = ac.random_phases(5, 14, seed=9)
    c = ac.random_phases(5, 14, seed=10)
    assert a == b
    assert a != c
    assert len(set(a.phases)) == 5
    assert a.phases == tuple(sorted(a.phases))


def test_budget_bounds():
    for builder in (
        lambda n: ac.uniform_phases(14, n),
        lambda n: ac.clustered_phases(n, 14),
        lambda n: ac.random_phases(n, 14, seed=0),
    ):
        with pytest.raises(ValueError, match="^conveyor count 0 outside 1..14$"):
            builder(0)
        with pytest.raises(ValueError, match="^conveyor count 15 outside 1..14$"):
            builder(15)


def test_cyclic_gaps_partition_the_cycle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        L = int(rng.integers(2, 30))
        n_c = int(rng.integers(1, L + 1))
        p = ac.random_phases(n_c, L, seed=int(rng.integers(1 << 30)))
        gaps = cyclic_gaps(p)
        assert len(gaps) == n_c
        assert all(g > 0 for g in gaps)
        assert sum(gaps) == L
    assert cyclic_gaps(ac.PhaseSet(phases=(5,), walk_length=14)) == [14]


def test_uniform_gap_formula():
    # evenly spread offsets give the ceiling gap, on every cycle length
    for L in range(2, 26):
        for n_c in range(1, L + 1):
            assert max(cyclic_gaps(ac.uniform_phases(L, n_c))) == -(-L // n_c)


def test_residual_life_exact_values():
    assert residual_life_mean(ac.uniform_phases(14, 7)) == Fraction(1)
    assert residual_life_mean(ac.uniform_phases(14, 2)) == Fraction(2 * 49, 28)
    assert residual_life_mean(ac.clustered_phases(2, 14)) == Fraction(1 + 169, 28)
    assert residual_life_mean(ac.uniform_phases(14, 4)) == Fraction(50, 28)


def test_baseward_departure_slots():
    walk = ref_walk()
    # node 1 departs toward the base on the walk step 3 -> 4 (nodes 1 -> 0)
    assert baseward_departure_slots(walk, 1, ac.PhaseSet((0,), 14)) == (3,)
    # node 3 departs on step 2 -> 3
    assert baseward_departure_slots(walk, 3, ac.PhaseSet((0,), 14)) == (2,)
    assert baseward_departure_slots(walk, 3, ac.PhaseSet((0, 5), 14)) == (2, 11)
    # a conveyor with offset phi sees every index phi slots earlier
    assert baseward_departure_slots(walk, 7, ac.PhaseSet((2,), 14)) == (9,)
    with pytest.raises(NodeIsBase):
        baseward_departure_slots(walk, 0, ac.PhaseSet((0,), 14))
    with pytest.raises(ValueError):
        baseward_departure_slots(walk, 9, ac.PhaseSet((0,), 14))


def test_departures_cover_all_residues_iff_full():
    walk = ref_walk()
    full = ac.uniform_phases(14, 14)
    for node in range(1, 8):
        assert baseward_departure_slots(walk, node, full) == tuple(range(14))


def test_coverage_audit_reference():
    assert ac.coverage_audit(ref_config(phases=ac.uniform_phases(14, 14))).full_coverage
    report = ac.coverage_audit(ref_config(phases=ac.uniform_phases(14, 7)))
    assert not report.full_coverage
    # every non-base node misses exactly half the residues at half staffing
    assert len(report.violations) == 7 * 7
    for node, slot in report.violations:
        assert 1 <= node <= 7 and 0 <= slot < 14


def test_coverage_audit_every_thirteen_subset_fails():
    for phases in combinations(range(14), 13):
        report = ac.coverage_audit(ref_config(phases=ac.PhaseSet(phases, 14)))
        assert not report.full_coverage
        assert report.violations


def test_coverage_audit_random_trees():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        g = random_tree_graph(rng, n)
        L = 2 * (n - 1)
        assert ac.coverage_audit(every_slot_config(g, ac.uniform_phases(L, L))).full_coverage
        if L > 1:
            partial = ac.uniform_phases(L, L - 1)
            assert not ac.coverage_audit(every_slot_config(g, partial)).full_coverage


def test_coverage_audit_needs_a_cycle_inside_the_horizon():
    # an unconstrained fleet first repeats at slot L: a horizon of L holds no
    # cycle, so nothing is audited and coverage is not full
    report = ac.coverage_audit(ref_config(horizon=REF_L, warmup=0))
    assert (report.full_coverage, report.violations, report.unserved) == (False, (), ())
    assert report.period == 0
    report = ac.coverage_audit(ref_config(horizon=REF_L + 1, warmup=0))
    assert (report.full_coverage, report.t0, report.period) == (True, 0, REF_L)


@st.composite
def _trees_and_uniform_phases(draw):
    n = draw(st.integers(2, 10))
    g = ac.build_graph(n, [(draw(st.integers(0, i - 1)), i) for i in range(1, n)])
    L = 2 * (n - 1)
    return g, ac.uniform_phases(L, draw(st.integers(1, L)))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_trees_and_uniform_phases())
def test_coverage_audit_refines_the_static_departure_model(case):
    # the engine's pickups are among the static model's departures, so it
    # finds every static gap and perhaps more, yet the same verdict; on a
    # spider (no node has two children) no departure is overtaken
    g, phases = case
    cfg = every_slot_config(g, phases)
    report = ac.coverage_audit(cfg)
    static = static_coverage_audit(cfg.walk, phases)
    assert report.full_coverage == (not static)
    assert set(static) <= set(report.violations)
    children = Counter(p for p in cfg.tree.parent.values() if p != 0)
    if max(children.values(), default=0) <= 1:
        assert static == report.violations
