"""The curve bands `aggregate_curve` reports are `iqr_bounds` of each round."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from popsched.reporting import aggregate_curve, iqm, iqr_bounds

FITNESS = st.floats(-1e6, 1e6, allow_subnormal=True)


@st.composite
def curves(draw) -> list[list[float]]:
    """Per-seed curves over one round grid: 1-12 seeds, 1-30 rounds."""
    rounds = draw(st.integers(1, 30))
    seed_curve = st.lists(FITNESS, min_size=rounds, max_size=rounds)
    return draw(st.lists(seed_curve, min_size=1, max_size=12))


@settings(max_examples=300, deadline=None)
@given(curves())
def test_aggregate_curve_bands_are_iqr_bounds_of_each_round_bit_for_bit(per_seed):
    curve = aggregate_curve("x", per_seed)
    columns = [list(col) for col in zip(*per_seed)]
    bounds = [iqr_bounds(col) for col in columns]
    assert [v.hex() for v in curve.iqr_low] == [lo.hex() for lo, _ in bounds]
    assert [v.hex() for v in curve.iqr_high] == [hi.hex() for _, hi in bounds]
    assert [v.hex() for v in curve.iqm] == [iqm(col).hex() for col in columns]
    assert all(type(v) is float for v in curve.iqr_low + curve.iqr_high)
