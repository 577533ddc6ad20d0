"""Closed courier walks over shortest-path trees and phase-offset schedules.

A single closed Euler walk visits every tree edge once in each direction, so
its length is always twice the number of non-base nodes. Every conveyor robot
follows the same walk; a conveyor with phase offset phi occupies walk position
(t + phi) mod L at slot t. The phase set fixes how often an unconstrained
fleet passes each node; which samples reach the base in the node's depth is
audited on the fleet's actual motion, batteries included
(`sim_engine.coverage_audit`). The gap analytics of a phase set, its cyclic
gaps and mean residual life, are read only by the tests (`tests/_oracle.py`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import BASE, ShortestPathTree


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
        raise ValueError(f"conveyor count {n_c} outside 1..{walk_length}")
