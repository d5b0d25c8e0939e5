"""Unit tests for the generic worklist-dataflow engine.

The four classic direction × meet combinations are exercised on small
hand-wired graphs (a diamond, a loop) and on flow graphs built from real
parsed programs; the engine is checked against a naive set-based
round-robin fixpoint, including past the 64-fact word boundary.
"""

import pytest

from repro import perf
from repro.ir.dataflow import (
    ALLPATH,
    ANYPATH,
    BACKWARD,
    FORWARD,
    DataflowProblem,
    solve,
)
from repro.ir.regiongraph import FlowGraph, build_flow_graph, build_region_tree
from repro.lang.parser import parse_program


def _graph(edges, n):
    """A bare FlowGraph with *n* extra nodes (2..n+1) and given edges."""
    g = FlowGraph()
    for _ in range(n):
        g._add_node(object())
    for a, b in edges:
        g._add_edge(a, b)
    return g


def _diamond():
    #        2
    #       / \
    #      3   4
    #       \ /
    #        5
    return _graph(
        [(0, 2), (2, 3), (2, 4), (3, 5), (4, 5), (5, 1)], 4
    )


class _Problem(DataflowProblem):
    def __init__(self, direction, meet, nbits, gen=None, kill=None, bound=()):
        self.direction = direction
        self.meet = meet
        self._nbits = nbits
        self._gen = gen or {}
        self._kill = kill or {}
        self._bound = bound

    def num_bits(self):
        return self._nbits

    def gen(self, node):
        return self._gen.get(node, ())

    def kill(self, node):
        return self._kill.get(node, ())

    def boundary(self):
        return self._bound


def _naive_fixpoint(problem, graph):
    """Round-robin iteration on Python sets, from the meet identity."""
    n = len(graph)
    backward = problem.direction == BACKWARD
    anypath = problem.meet == ANYPATH
    preds = graph.succs if backward else graph.preds
    universe = set(range(problem.num_bits()))
    ins = [set() if anypath else set(universe) for _ in range(n)]
    ins[FlowGraph.EXIT if backward else FlowGraph.ENTRY] = set(
        problem.boundary()
    )
    meet = set.union if anypath else set.intersection
    while True:
        outs = [
            set(problem.gen(v)) | (ins[v] - set(problem.kill(v)))
            for v in range(n)
        ]
        new_ins = [
            meet(*(outs[p] for p in preds[v])) if preds[v] else ins[v]
            for v in range(n)
        ]
        if new_ins == ins:
            return ins, outs
        ins = new_ins


class TestForward:
    def test_anypath_union_at_join(self):
        # reaching definitions: each branch gens its own fact
        sol = solve(
            _Problem(FORWARD, ANYPATH, 2, gen={3: [0], 4: [1]}), _diamond()
        )
        assert sol.in_bits(5) == {0, 1}
        assert sol.in_bits(3) == set()

    def test_allpath_intersection_at_join(self):
        # availability: only a fact generated on *both* arms survives
        sol = solve(
            _Problem(FORWARD, ALLPATH, 2, gen={3: [0, 1], 4: [1]}),
            _diamond(),
        )
        assert sol.in_bits(5) == {1}

    def test_kill_removes_fact(self):
        g = _graph([(0, 2), (2, 3), (3, 1)], 2)
        sol = solve(
            _Problem(FORWARD, ANYPATH, 1, gen={2: [0]}, kill={3: [0]}), g
        )
        assert sol.in_bits(3) == {0}
        assert sol.out_bits(3) == set()

    def test_boundary_enters_at_entry(self):
        g = _graph([(0, 2), (2, 1)], 1)
        sol = solve(_Problem(FORWARD, ALLPATH, 2, bound=[0]), g)
        assert sol.out_bits(FlowGraph.ENTRY) == {0}
        assert sol.in_bits(2) == {0}

    def test_loop_fixpoint_kills_on_back_edge(self):
        # 2 -> 3 -> 2 (back edge); 3 kills what 2 gens upstream of itself
        g = _graph([(0, 2), (2, 3), (3, 2), (2, 1)], 2)
        sol = solve(
            _Problem(FORWARD, ALLPATH, 1, gen={2: [0]}, kill={3: [0]}), g
        )
        # around the loop the fact is re-generated by 2 every iteration
        assert sol.out_bits(2) == {0}
        assert sol.in_bits(3) == {0}
        assert sol.out_bits(3) == set()

    def test_unreachable_node_keeps_meet_identity(self):
        # node 3 has no predecessors at all
        g = _graph([(0, 2), (2, 1), (3, 1)], 2)
        any_sol = solve(_Problem(FORWARD, ANYPATH, 2), g)
        all_sol = solve(_Problem(FORWARD, ALLPATH, 2), g)
        assert any_sol.in_bits(3) == set()  # ANYPATH: empty
        assert all_sol.in_bits(3) == {0, 1}  # ALLPATH: the universe


class TestBackward:
    def test_anypath_is_liveness(self):
        # 4 uses the fact: it is live backwards across 3 up to 2.
        # In a BACKWARD problem the solution's "out" is the node-entry
        # value and "in" the node-exit value (the recurrence runs over
        # the reversed graph).
        g = _graph([(0, 2), (2, 3), (3, 4), (4, 1)], 3)
        sol = solve(_Problem(BACKWARD, ANYPATH, 1, gen={4: [0]}), g)
        assert sol.out_bits(4) == {0}  # live at 4's entry (the use)
        assert sol.in_bits(4) == set()  # dead after the use
        assert sol.in_bits(3) == {0}
        assert sol.out_bits(2) == {0}

    def test_allpath_is_very_busy(self):
        # both arms of the diamond use the fact: very busy at the fork
        sol = solve(
            _Problem(BACKWARD, ALLPATH, 2, gen={3: [0], 4: [0]}),
            _diamond(),
        )
        assert sol.in_bits(2) == {0}
        # only one arm uses bit 1: not very busy at the fork
        sol2 = solve(
            _Problem(BACKWARD, ALLPATH, 2, gen={3: [0, 1], 4: [0]}),
            _diamond(),
        )
        assert sol2.in_bits(2) == {0}

    def test_boundary_enters_at_exit(self):
        g = _graph([(0, 2), (2, 1)], 1)
        sol = solve(_Problem(BACKWARD, ANYPATH, 1, bound=[0]), g)
        assert sol.in_bits(2) == {0}


class TestImplementations:
    CASES = [
        (FORWARD, ANYPATH),
        (FORWARD, ALLPATH),
        (BACKWARD, ANYPATH),
        (BACKWARD, ALLPATH),
    ]

    def _problems(self, nbits):
        last = nbits - 1
        for direction, meet in self.CASES:
            gen = {2: [0, last], 3: [min(1, last)], 4: [nbits // 2]}
            kill = {5: [0], 3: [last]}
            yield _Problem(
                direction, meet, nbits, gen, kill, bound=[min(1, last)]
            )

    @pytest.mark.parametrize("nbits", [1, 3, 64, 65, 130])
    def test_matches_naive_set_fixpoint(self, nbits):
        for problem in self._problems(nbits):
            g = _diamond()
            sol = solve(problem, g)
            ins, outs = _naive_fixpoint(problem, g)
            for node in range(len(g)):
                assert sol.in_bits(node) == ins[node]
                assert sol.out_bits(node) == outs[node]

    def test_multiword_masks_round_trip(self):
        # a fact past two 64-bit words keeps its position
        g = _graph([(0, 2), (2, 1)], 1)
        sol = solve(_Problem(FORWARD, ANYPATH, 130, gen={2: [129]}), g)
        assert sol.out_bits(2) == {129}
        assert sol.out_mask(2) == 1 << 129

    def test_bit_out_of_range_raises(self):
        g = _graph([(0, 2), (2, 1)], 1)
        with pytest.raises(ValueError):
            solve(_Problem(FORWARD, ANYPATH, 2, gen={2: [2]}), g)


class TestOnRealFlowGraphs:
    SRC = (
        "program p\n"
        "  integer n\n"
        "  real a(10)\n"
        "  read n\n"
        "  do i = 1, n\n"
        "    if (i > 2) then\n"
        "      a(i) = 1.0\n"
        "    else\n"
        "      a(i) = 2.0\n"
        "    endif\n"
        "  enddo\n"
        "  print a(1)\n"
        "end\n"
    )

    def test_every_direction_meet_terminates(self):
        proc = build_region_tree(parse_program(self.SRC).main_unit)
        g = build_flow_graph(proc)
        n = len(g)
        for direction, meet in TestImplementations.CASES:
            problem = _Problem(
                direction, meet, n, gen={i: [i - 2] for i in range(2, n)}
            )
            sol = solve(problem, g)
            for i in range(2, n):
                assert i - 2 in sol.out_bits(i)  # gen always lands in out

    def test_counters_advance(self):
        proc = build_region_tree(parse_program(self.SRC).main_unit)
        g = build_flow_graph(proc)
        runs = perf.counter("dataflow.engine.runs")
        nodes = perf.counter("dataflow.engine.nodes")
        iters = perf.counter("dataflow.iterations")
        solve(_Problem(FORWARD, ANYPATH, 1, gen={2: [0]}), g)
        assert perf.counter("dataflow.engine.runs") == runs + 1
        assert perf.counter("dataflow.engine.nodes") == nodes + len(g)
        assert perf.counter("dataflow.iterations") >= iters + len(g)

    def test_zero_bits_is_well_defined(self):
        proc = build_region_tree(parse_program(self.SRC).main_unit)
        g = build_flow_graph(proc)
        sol = solve(_Problem(FORWARD, ALLPATH, 0), g)
        assert all(sol.in_mask(i) == 0 for i in range(len(g)))
