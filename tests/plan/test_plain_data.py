"""A lowered program is plain data.

A recorded plan holds structure only: no recorded step carries a
callable or a column vector, so a plan has no column count and the
lowered kernels are packed-plane int operations that call nothing back.
A recorder therefore refuses a literal column vector wherever a token
belongs, and a superplan is exactly its members' kernels — one shared
token environment sized for the largest member, the members' charges
summed.
"""

import numpy as np
import pytest

from repro.circuits.microops import Microop
from repro.common.errors import ConfigError
from repro.engine.bitexec import op_key, op_plan
from repro.engine.vcu import TRUTH_TABLES, TTDecoder, _apply_table
from repro.plan import PlanCache, RecordingChain, compile_chain_program
from repro.plan.superplan import fuse_plans, superplan_key

from .test_chain_oracle import (
    FORMS,
    S,
    TABLE_FORMS,
    VD,
    VS1,
    VS2,
    WIDTHS,
    microcode_plan,
)


def assert_plain(value, where):
    """No callable and no ndarray anywhere inside ``value``."""
    assert not callable(value), where
    assert not isinstance(value, np.ndarray), where
    if isinstance(value, (tuple, list)):
        for item in value:
            assert_plain(item, where)
    elif isinstance(value, dict):
        for key, item in value.items():
            assert_plain(key, where)
            assert_plain(item, where)


def assert_plain_steps(plan):
    for method, args, _out in plan.steps:
        assert_plain(args, method)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("mnemonic,masked", FORMS)
def test_microcode_plans_hold_no_callable_or_vector(mnemonic, masked, width):
    assert_plain_steps(microcode_plan(mnemonic, masked, width))


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("name", sorted(TABLE_FORMS))
def test_truth_table_plans_hold_no_callable_or_vector(name, width):
    preamble, msb_first = TABLE_FORMS[name]
    decoder = TTDecoder(vd=VD, vs1=VS1, vs2=VS2)
    plan = compile_chain_program(
        S, lambda rec: _apply_table(
            rec, TRUTH_TABLES[name], decoder, width, msb_first, preamble
        ),
    )
    assert_plain_steps(plan)


def test_recorder_refuses_literal_column_vectors():
    rec = RecordingChain(4)
    vector = np.ones(16, dtype=np.uint8)
    with pytest.raises(ConfigError):
        rec.set_tags(0, vector)
    with pytest.raises(ConfigError):
        rec.update_bit_parallel_select(3, 1, vector)
    # A recorded value is what a plan may route.
    token = rec.combine_tags_serial()
    rec.set_tags(0, token)
    rec.update_bit_parallel_select(3, 1, token)


def test_superplan_is_its_members_kernels():
    cache = PlanCache()
    keys = [
        op_key("vadd.vv", 16, S, 3, 1, 2, None, 6),
        op_key("vmseq.vv", 16, S, 7, 3, 2, None, None),
        op_key("vsll.vi", 16, S, 4, 3, None, 5, None),
    ]
    members = [op_plan(key, cache) for key in keys]
    fused = fuse_plans(
        superplan_key(S, 16, keys), S,
        [(key.mnemonic, key.vd, key.mnemonic == "vmseq.vv", plan)
         for key, plan in zip(keys, members)],
    ).program
    programs = [plan.program for plan in members]
    assert fused.kernels == tuple(
        kernel for program in programs for kernel in program.kernels
    )
    assert fused.num_tokens == max(p.num_tokens for p in programs) > 0
    charges, lane_charges = {}, {}
    for program in programs:
        for key, n in program.charges.items():
            charges[key] = charges.get(key, 0) + n
        for key, n in program.lane_charges.items():
            lane_charges[key] = lane_charges.get(key, 0) + n
    assert fused.charges == charges
    assert fused.lane_charges == lane_charges == {
        (Microop.READ, True): 1, (Microop.WRITE, True): 1,
    }
