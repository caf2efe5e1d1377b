"""Cross-fidelity validation: bit-level CSB vs functional system model.

The system simulator executes instructions functionally and charges
modelled timing; the bit-level CSB actually performs every microop. Both
must agree on the architectural result.
"""

import numpy as np
import pytest

from repro.assoc import algorithms as alg
from repro.csb.csb import CSB
from repro.engine.system import CAPEConfig, CAPESystem


@pytest.mark.parametrize(
    "mnemonic,func",
    [
        ("vadd", lambda c, vd, a, b: alg.vadd_vv(c, vd, a, b, width=8)),
        ("vsub", lambda c, vd, a, b: alg.vsub_vv(c, vd, a, b, width=8)),
        ("vand", alg.vand_vv),
        ("vor", alg.vor_vv),
        ("vxor", alg.vxor_vv),
    ],
)
def test_bit_level_csb_agrees_with_system_model(mnemonic, func, rng):
    n = 32  # one chain x 2 CSB chains at 16 columns
    a = rng.integers(0, 256, size=n)
    b = rng.integers(0, 256, size=n)

    # Bit-level: run the microcode on the ganged chain of a small CSB,
    # which drives every chain's columns in lockstep.
    csb = CSB(num_chains=2, num_subarrays=8, num_cols=16)
    csb.poke_vector(1, a)
    csb.poke_vector(2, b)
    func(csb.ganged, 3, 1, 2)
    bit_level = csb.peek_vector(3)

    # System model: same operation on an 8-bit functional machine.
    cape = CAPESystem(
        CAPEConfig(name="t", num_chains=2, cols_per_chain=16, element_bits=8)
    )
    cape.vsetvl(n)
    cape.vregs[1, :n] = a
    cape.vregs[2, :n] = b
    getattr(cape, mnemonic)(3, 1, 2)
    system = cape.read_vreg(3)

    assert bit_level.tolist() == system.tolist()


def test_redsum_agrees_across_fidelities(rng):
    n = 32
    values = rng.integers(0, 200, size=n)
    csb = CSB(num_chains=2, num_subarrays=8, num_cols=16)
    csb.poke_vector(1, values)
    bit_level = csb.redsum(1, width=8)

    cape = CAPESystem(
        CAPEConfig(name="t", num_chains=2, cols_per_chain=16, element_bits=8)
    )
    cape.vsetvl(n)
    cape.vregs[1, :n] = values
    # The hardware echo/pop-count reduction sums the unsigned encodings.
    assert bit_level == cape.vredsum(1, signed=False) == int(values.sum())
