"""The bit-plane backend's storage invariant, shared by the replay tests."""


def assert_planes_in_range(backend):
    """Every plane and tag int of a bit-plane backend lies in
    ``[0, 2**num_cols)``.

    A stray bit at or above ``num_cols`` would pass every comparison
    that unpacks exactly ``num_cols`` columns, and a negative int (a bare
    ``~x`` store) would fail only at the next unpack, far from its cause.
    """
    bound = 1 << backend.num_cols
    for name in ("planes", "tags"):
        for index, value in enumerate(getattr(backend, name)):
            assert 0 <= value < bound, (name, index, value)
