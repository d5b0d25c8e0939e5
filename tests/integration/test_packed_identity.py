"""Byte-identity of experiment outputs on the packed and the reference
Fourier–Motzkin kernels.

The packed integer-matrix kernel is a pure cost optimization: every
projection, feasibility verdict and entailment must equal the symbolic
reference kernel's (``tests/linalg/reference_fm.py``), so the formatted
experiment outputs — the paper's tables — must match byte for byte
between the two kernels, from cold caches *and* on a warm re-run (the
packed kernel's own memo layers, ``fm.packed.*``, then serve).  (Cost
figures like the fig_overhead op counts legitimately differ; identity
is asserted on the result tables.)
"""

from contextlib import nullcontext

from repro import perf
from repro.experiments import fig1_examples, table1_loops, table2_programs

from tests.linalg.reference_fm import symbolic_kernel


def _formatted(kernel):
    perf.reset_all_caches()
    with kernel:
        return [
            (
                table1_loops.run().format(),
                table2_programs.run().format(),
                fig1_examples.run().format(),
            )
            for _ in ("cold", "warm")
        ]


def test_experiment_outputs_identical_both_kernels():
    try:
        packed_cold, packed_warm = _formatted(nullcontext())
        reference_cold, reference_warm = _formatted(symbolic_kernel())
    finally:
        perf.reset_all_caches()
    assert packed_cold == reference_cold  # Table 1 / Table 2 / Figure 1
    assert packed_warm == reference_warm
    assert packed_cold == packed_warm  # warm replay is stable per kernel
