"""A small generic worklist-dataflow fixpoint engine.

The classic bitvector shape (Talos's ``dataflow.h``): a problem declares
a *direction* (:data:`FORWARD` or :data:`BACKWARD`), a *meet*
(:data:`ANYPATH` — union — or :data:`ALLPATH` — intersection), per-node
*gen*/*kill* sets and a *boundary* set, and the engine iterates a
deterministic worklist over a :class:`~repro.ir.regiongraph.FlowGraph`
until the in/out sets stabilize:

.. code-block:: text

    in(n)  = meet over predecessors p of out(p)      (forward)
    out(n) = gen(n) ∪ (in(n) − kill(n))

Backward problems run the same recurrence over the reversed graph.
Facts are bit positions; every in/out set is one arbitrary-width Python
int used as a bitvector, so any number of facts needs no word packing
and meet/transfer are single ``|``/``&`` operations.

Unreachable nodes (no predecessors along the direction of flow) keep
their initial value: the meet identity — empty for ANYPATH, the
universe for ALLPATH — exactly as a structured-control-flow analysis
expects for dead code.

Per-instance perf counters (registered with :mod:`repro.perf`):

``dataflow.engine.runs``
    completed :func:`solve` calls;
``dataflow.engine.nodes``
    flow-graph nodes swept across all runs;
``dataflow.iterations``
    worklist pops — the engine's ``total_ops``-style work measure.

The first client is scalar propagation (:mod:`repro.ir.scalarprop`),
which phrases definition availability as FORWARD/ALLPATH; the tier-0
dependence screen (:mod:`repro.arraydf.screen`) shares the flow graph.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List

from repro import perf
from repro.ir.regiongraph import FlowGraph

#: analysis direction
FORWARD = "forward"
BACKWARD = "backward"

#: meet operator
ANYPATH = "anypath"  # union: a fact holds if it holds on *some* path
ALLPATH = "allpath"  # intersection: a fact holds on *all* paths

for _name in (
    "dataflow.engine.runs",
    "dataflow.engine.nodes",
    "dataflow.iterations",
):
    perf.declare(_name)


class DataflowProblem:
    """One dataflow problem: direction, meet, and the transfer sets.

    Subclasses set :attr:`direction` / :attr:`meet` and override the
    set-valued hooks; every set is an iterable of bit positions in
    ``[0, num_bits)``.
    """

    direction: str = FORWARD
    meet: str = ANYPATH

    def num_bits(self) -> int:
        """How many facts the problem tracks."""
        raise NotImplementedError

    def gen(self, node: int) -> Iterable[int]:
        """Facts generated by *node*."""
        return ()

    def kill(self, node: int) -> Iterable[int]:
        """Facts killed by *node*."""
        return ()

    def boundary(self) -> Iterable[int]:
        """Facts holding at the flow entry (exit, for BACKWARD)."""
        return ()


class DataflowSolution:
    """The fixpoint in/out sets, exposed as plain int bitmasks."""

    def __init__(self, in_masks: List[int], out_masks: List[int]) -> None:
        self._in = in_masks
        self._out = out_masks

    def in_mask(self, node: int) -> int:
        return self._in[node]

    def out_mask(self, node: int) -> int:
        return self._out[node]

    def in_bits(self, node: int) -> frozenset:
        return _mask_bits(self._in[node])

    def out_bits(self, node: int) -> frozenset:
        return _mask_bits(self._out[node])


def _mask_bits(mask: int) -> frozenset:
    out = set()
    bit = 0
    while mask:
        if mask & 1:
            out.add(bit)
        mask >>= 1
        bit += 1
    return frozenset(out)


def _mask_of(bits: Iterable[int], nbits: int) -> int:
    mask = 0
    for b in bits:
        if not 0 <= b < nbits:
            raise ValueError(f"fact bit {b} outside [0, {nbits})")
        mask |= 1 << b
    return mask


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------


def solve(problem: DataflowProblem, graph: FlowGraph) -> DataflowSolution:
    """Iterate *problem* over *graph* to its (unique) fixpoint.

    The worklist is seeded with every node in source order (reversed
    for BACKWARD problems, so information still flows in roughly one
    sweep) and processed FIFO — fully deterministic.
    """
    n = len(graph)
    nbits = problem.num_bits()
    top = (1 << nbits) - 1 if nbits else 0

    backward = problem.direction == BACKWARD
    anypath = problem.meet == ANYPATH
    if backward:
        preds, succs = graph.succs, graph.preds
        entry = FlowGraph.EXIT
    else:
        preds, succs = graph.preds, graph.succs
        entry = FlowGraph.ENTRY

    gen_masks = [_mask_of(problem.gen(i), nbits) for i in range(n)]
    kill_masks = [_mask_of(problem.kill(i), nbits) for i in range(n)]
    init = 0 if anypath else top
    in_masks = [init] * n
    in_masks[entry] = _mask_of(problem.boundary(), nbits)
    keep = [(~k) & top for k in kill_masks]
    out_masks = [gen_masks[i] | (in_masks[i] & keep[i]) for i in range(n)]

    perf.bump("dataflow.engine.runs")
    perf.bump("dataflow.engine.nodes", n)
    worklist = deque(range(n - 1, -1, -1) if backward else range(n))
    queued = [True] * n
    pops = 0
    while worklist:
        node = worklist.popleft()
        queued[node] = False
        pops += 1
        p = preds[node]
        if p:
            acc = out_masks[p[0]]
            for q in p[1:]:
                acc = (acc | out_masks[q]) if anypath else (acc & out_masks[q])
            in_masks[node] = acc
        new_out = gen_masks[node] | (in_masks[node] & keep[node])
        if new_out != out_masks[node]:
            out_masks[node] = new_out
            for s in succs[node]:
                if not queued[s]:
                    queued[s] = True
                    worklist.append(s)
    perf.bump("dataflow.iterations", pops)
    return DataflowSolution(in_masks, out_masks)
