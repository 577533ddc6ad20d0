"""Closed courier walks over shortest-path trees and phase-offset schedules.

A single closed Euler walk visits every tree edge once in each direction, so
its length is always twice the number of non-base nodes. Every conveyor robot
follows the same walk; a conveyor with phase offset phi occupies walk position
(t + phi) mod L at slot t. The phase set therefore fully determines coverage:
how often each node sees a conveyor that departs toward the base.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph_core import BASE, ShortestPathTree


class BudgetOutOfRange(ValueError):
    """Conveyor count outside 1..L."""


class NodeIsBase(ValueError):
    """Operation asked about the base node, which never ships samples."""


@dataclass(frozen=True)
class EulerWalk:
    """Closed walk w_0..w_L with w_0 = w_L = base, one edge per step."""

    sequence: tuple[int, ...]

    def __post_init__(self):
        if self.sequence[0] != BASE or self.sequence[-1] != BASE:
            raise ValueError("walk must start and end at the base")

    @property
    def length(self) -> int:
        return len(self.sequence) - 1


@dataclass(frozen=True)
class PhaseSet:
    """Distinct conveyor offsets into a shared walk of the given length."""

    phases: tuple[int, ...]
    walk_length: int

    def __post_init__(self):
        if not 1 <= len(self.phases) <= self.walk_length:
            raise ValueError("phase count must be in 1..walk_length")
        if len(set(self.phases)) != len(self.phases):
            raise ValueError("phases must be distinct")
        if any(not 0 <= p < self.walk_length for p in self.phases):
            raise ValueError("phases must lie in 0..walk_length-1")
        if tuple(sorted(self.phases)) != self.phases:
            raise ValueError("phases must be sorted ascending")


@dataclass(frozen=True)
class CoverageReport:
    """Audit outcome: full coverage flag plus every (node, slot) gap found."""

    full_coverage: bool
    violations: tuple[tuple[int, int], ...]


def euler_walk(tree: ShortestPathTree) -> EulerWalk:
    """Depth-first closed walk over the tree, children visited in ascending
    node order so the walk is unique for a given tree."""
    children: dict[int, list[int]] = {}
    for node, par in tree.parent.items():
        children.setdefault(par, []).append(node)
    for kids in children.values():
        kids.sort()
    seq = []
    # the walk stands at the top of a (node, unvisited children) stack: no recursion limit
    stack = [(BASE, iter(children.get(BASE, ())))]
    while stack:
        v, kids = stack[-1]
        seq.append(v)
        child = next(kids, None)
        if child is None:
            stack.pop()
        else:
            stack.append((child, iter(children.get(child, ()))))
    return EulerWalk(sequence=tuple(seq))


def uniform_phases(walk_length: int, n_c: int) -> PhaseSet:
    """Evenly spread offsets floor(l * L / n_c) for l = 0..n_c-1."""
    _check_budget(n_c, walk_length)
    phases = tuple(ell * walk_length // n_c for ell in range(n_c))
    return PhaseSet(phases=phases, walk_length=walk_length)


def clustered_phases(n_c: int, walk_length: int) -> PhaseSet:
    """Worst-case convoy schedule: offsets 0..n_c-1 back to back."""
    _check_budget(n_c, walk_length)
    return PhaseSet(phases=tuple(range(n_c)), walk_length=walk_length)


def random_phases(n_c: int, walk_length: int, seed: int) -> PhaseSet:
    """n_c distinct offsets drawn without replacement, reproducible by seed."""
    _check_budget(n_c, walk_length)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    picks = rng.choice(walk_length, size=n_c, replace=False)
    return PhaseSet(phases=tuple(sorted(int(p) for p in picks)), walk_length=walk_length)


def _check_budget(n_c: int, walk_length: int) -> None:
    if not 1 <= n_c <= walk_length:
        raise BudgetOutOfRange(f"conveyor count {n_c} outside 1..{walk_length}")


def cyclic_gaps(p: PhaseSet) -> list[int]:
    """Gaps between cyclically consecutive phases; positive, summing to L."""
    phases, L = p.phases, p.walk_length
    gaps = [phases[i + 1] - phases[i] for i in range(len(phases) - 1)]
    gaps.append(L - phases[-1] + phases[0])
    return gaps


def gamma_max(p: PhaseSet) -> int:
    """Largest cyclic gap; the worst-case wait for the next conveyor."""
    return max(cyclic_gaps(p))


def residual_life_mean(p: PhaseSet) -> Fraction:
    """Mean residual life of the conveyor arrival cycle, sum(h^2) / (2 L).

    Returned as an exact Fraction so schedule comparisons never hinge on
    float rounding.
    """
    gaps = cyclic_gaps(p)
    return Fraction(sum(h * h for h in gaps), 2 * p.walk_length)


def baseward_departure_slots(w: EulerWalk, node: int, p: PhaseSet) -> tuple[int, ...]:
    """Per-period slot residues at which some conveyor leaves `node` toward
    the base. A conveyor with offset phi stands at walk position j at every
    slot t with (t + phi) mod L == j."""
    if node == BASE:
        raise NodeIsBase("the base has no baseward departures")
    L = w.length
    # A closed tour leaves a node for the last time across its parent edge,
    # so the baseward step starts at the node's last visit before w_L.
    try:
        j = L - 1 - w.sequence[L - 1 :: -1].index(node)
    except ValueError:
        raise ValueError(f"node {node} does not appear in the walk") from None
    return tuple(sorted((j - phi) % L for phi in p.phases))


def coverage_audit(w: EulerWalk, p: PhaseSet) -> CoverageReport:
    """Static check that every non-base node, at every slot residue, hosts a
    conveyor that departs toward the base on the next step."""
    L = w.length
    violations: list[tuple[int, int]] = []
    for node in sorted(set(w.sequence) - {BASE}):
        covered = set(baseward_departure_slots(w, node, p))
        for r in range(L):
            if r not in covered:
                violations.append((node, r))
    return CoverageReport(full_coverage=not violations, violations=tuple(violations))
