"""The chain-level oracle: microcode driven live vs its compiled plan.

In the program, microcode reaches a chain only as a compiled plan:
``run_microcode`` and the truth-table walk ``_apply_table`` drive a
:class:`~repro.plan.RecordingChain`, and the plan replays on the chain.
The tests keep the live walk as the oracle. From identical bits, tags
and active window, driving the microcode directly on a live
:class:`~repro.csb.chain.Chain` and replaying its plan must leave
identical bits and tags, return identical values, and charge identical
``stats.counts`` and microop traces — for every supported mnemonic and
masked form at SEW 8, 16 and 32, on both backends, on a
:class:`~repro.faults.FaultyBackend`-wrapped chain (stuck bit and tag
flip, whose injector counters must also agree) and with
``stats.keep_trace`` on; likewise every truth table, walked live against
``execute_table``. Every bit-plane run must also leave each plane and
tag int inside ``[0, 2**COLUMNS)``.
"""

import functools
import zlib

import numpy as np
import pytest

from repro.csb.bitplane import BitplaneBackend
from repro.csb.chain import Chain, MetaRow
from repro.engine.bitexec import MASKABLE, SUPPORTED_MICROCODE, run_microcode
from repro.engine.vcu import (
    TRUTH_TABLES,
    TTDecoder,
    _apply_table,
    _fold_reduce,
    execute_table,
)
from repro.faults import FaultInjector, FaultPlan, StuckBit, TagFlip
from repro.plan import PlanCache, compile_chain_program
from repro.plan.recorder import NUM_ROWS

from ..csb.storage import assert_planes_in_range

S = 32
COLUMNS = 13
VSTART, VL = 2, 11
VD, VS1, VS2, MASK_REG = 3, 1, 2, 6
WIDTHS = (8, 16, 32)

#: The chains both runs start from: the two plain backends, a
#: fault-wrapped bit-plane backend, and a bit-plane chain keeping its
#: microop trace (the last two take the step-by-step replay).
KINDS = ("bitplane", "reference", "faulty", "keep_trace")

#: Every supported form: each mnemonic unmasked, and masked where its
#: microcode honours the mask (vmerge always reads its mask register).
FORMS = tuple(
    (mnemonic, masked)
    for mnemonic in sorted(SUPPORTED_MICROCODE)
    for masked in (
        (True,) if mnemonic == "vmerge.vv"
        else (False, True) if mnemonic in MASKABLE
        else (False,)
    )
)


def operands(mnemonic, width):
    """``(vs1, vs2, scalar)`` of a mnemonic's operand form."""
    if mnemonic.endswith(".vi"):
        return VS1, None, 5 % width
    scalar = 0xA5C396E1 & ((1 << width) - 1)
    if mnemonic == "vmv.v.x":
        return None, None, scalar
    if mnemonic == "vmv.v.v":
        return VS1, None, None
    if mnemonic.endswith(".vx"):
        return VS1, None, scalar
    return VS1, VS2, None


def drive(chain, mnemonic, masked, width):
    """The microcode under test, then a read-back of its destination
    through per-bit redsum steps (the values both runs must return)."""
    vs1, vs2, scalar = operands(mnemonic, width)
    run_microcode(
        chain, mnemonic, VD, vs1, vs2, scalar,
        MASK_REG if masked else None, width, masked,
    )
    return [chain.redsum_step(bit, VD) for bit in range(width)]


@functools.lru_cache(maxsize=None)
def microcode_plan(mnemonic, masked, width):
    return compile_chain_program(
        S, lambda rec: drive(rec, mnemonic, masked, width)
    )


def seed_of(*form):
    return zlib.crc32(repr(form).encode())


def make_chain(kind, seed):
    """A chain of ``kind`` holding seeded random bits and tags in every
    row, under a partial window; returns it and its fault injector."""
    rng = np.random.default_rng(seed)
    injector = raw = None
    if kind == "faulty":
        injector = FaultInjector(FaultPlan([
            StuckBit(row=VD, element=4, bit=1, value=1),
            TagFlip(element=6, bit=0, at_search=3),
        ]))
        injector.bind_csb(1, S, NUM_ROWS, COLUMNS)
        raw = BitplaneBackend(S, NUM_ROWS, COLUMNS)
        backend = injector.wrap_fused(raw, 1)
    else:
        backend = "reference" if kind == "reference" else "bitplane"
    chain = Chain(S, COLUMNS, backend=backend)
    chain.stats.keep_trace = kind == "keep_trace"
    bits = rng.integers(0, 2, (S, NUM_ROWS, COLUMNS), dtype=np.uint8)
    tags = rng.integers(0, 2, (S, COLUMNS), dtype=np.uint8)
    # The seeded state goes in raw, under any fault wrapper.
    raw = chain.backend if raw is None else raw
    for row in range(NUM_ROWS):
        raw.set_register_planes(row, bits[:, row])
    for sub, view in enumerate(chain.subarrays):
        view.tags = tags[sub]
    chain.set_active_window(VSTART, VL - VSTART)
    return chain, injector


def observe(chain, injector, returned):
    """Everything a run leaves behind (on a bit-plane backend, after
    checking its storage invariant)."""
    if chain.backend.name == "bitplane":
        assert_planes_in_range(chain.backend)
    return {
        "returned": returned,
        "bits": np.stack([view.bits for view in chain.subarrays]).tolist(),
        "tags": np.stack([view.tags for view in chain.subarrays]).tolist(),
        "counts": dict(chain.stats.counts),
        "trace": list(chain.stats.trace),
        "injector": None if injector is None else (
            injector.searches, injector.csb_ops, dict(injector.injected)
        ),
    }


def assert_same_run(kind, live, replayed):
    for field in live:
        assert replayed[field] == live[field], field
    # The comparison is not vacuous where the kind says it bites.
    if kind == "faulty":
        assert live["injector"][2]
    if kind == "keep_trace":
        assert live["trace"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("mnemonic,masked", FORMS)
def test_plan_replay_matches_live_microcode(mnemonic, masked, width, kind):
    seed = seed_of(mnemonic, masked, width)
    chain, injector = make_chain(kind, seed)
    live = observe(chain, injector, drive(chain, mnemonic, masked, width))
    chain, injector = make_chain(kind, seed)
    returned = microcode_plan(mnemonic, masked, width).replay(chain)
    assert_same_run(kind, live, observe(chain, injector, returned))


#: Per table: the bulk initialisations of Table I and the walk order
#: (the forms tests/engine/test_fsm_execution.py executes).
TABLE_FORMS = {
    "vadd.vv": (((VD, 0), (int(MetaRow.CARRY), 0)), False),
    "vand.vv": (((VD, 0),), False),
    "vor.vv": (((VD, 1),), False),
    "vxor.vv": (((VD, 0),), False),
    "vmslt.vv": (((int(MetaRow.CARRY), 0),), False),
    "vredsum.vs": ((), True),
}


def test_every_truth_table_has_a_form():
    assert set(TABLE_FORMS) == set(TRUTH_TABLES)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("name", sorted(TABLE_FORMS))
def test_execute_table_matches_live_walk(name, width, kind):
    preamble, msb_first = TABLE_FORMS[name]
    decoder = TTDecoder(vd=VD, vs1=VS1, vs2=VS2)
    seed = seed_of(name, width)
    chain, injector = make_chain(kind, seed)
    used_reduce, values = _apply_table(
        chain, TRUTH_TABLES[name], decoder, width, msb_first, preamble
    )
    live = observe(
        chain, injector, _fold_reduce(values) if used_reduce else None
    )
    chain, injector = make_chain(kind, seed)
    returned = execute_table(
        chain, TRUTH_TABLES[name], decoder, width, msb_first=msb_first,
        preamble=preamble, plan_cache=PlanCache(),
    )
    assert_same_run(kind, live, observe(chain, injector, returned))
