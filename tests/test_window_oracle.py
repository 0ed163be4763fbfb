"""The block scorer against an oracle that widens and shifts each block the
plain way: the block's rows copied to float64, their mean taken by
``B.mean`` and the shifted rows formed by ``B - mean``, a fresh array per
block. _window_eranks instead sums the mean in float64 from the stored rows
and widens and shifts them in one subtraction; its scores must be equal bit
for bit, for float32 and float64 input, one trajectory or a stack, and blocks
where every, no or some trajectory falls back to its own rows. With
OWN_ROWS_FLOATS made small, windows scored from their own rows are copied
out a few at a time, and the scores must not change. The widths drawn
here are at most 12, so the block cap of GRAM_FLOATS // w^2 windows never
binds; test_windows.py checks capped blocks."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rankshape.spectral import _erank_rows, _top_eigen, erank_stack  # noqa: E402
from rankshape import windows  # noqa: E402
from rankshape.windows import BLOCK_SHIFT_RATIO, _window_eranks, _window_plan  # noqa: E402


def oracle_window_eranks(H, starts, w):
    """_window_eranks' w < d path with a widened copy of each block and a
    fresh shifted copy; also returns which fallback cases its blocks met:
    "all", "none" or "some" trajectories scored from their own rows."""
    eranks = np.empty(H.shape[:-2] + (len(starts),))
    offsets = np.arange(w)
    cases = set()
    i = 0
    while i < len(starts):
        j = int(np.searchsorted(starts, starts[i] + w))
        b0, block = starts[i], starts[i:j] - starts[i]
        rows = block[:, None] + offsets
        B = H[..., b0:b0 + block[-1] + w, :].astype(np.float64, copy=False)
        Y = B - B.mean(axis=-2, keepdims=True)
        G = np.ascontiguousarray((Y @ np.swapaxes(Y, -1, -2))[..., rows[:, :, None],
                                                                 rows[:, None, :]])
        shifted = np.trace(G, axis1=-2, axis2=-1)
        G -= G.mean(axis=-1, keepdims=True)
        G -= G.mean(axis=-2, keepdims=True)
        own = np.any(shifted > BLOCK_SHIFT_RATIO * np.trace(G, axis1=-2, axis2=-1), axis=-1)
        if own.all():
            cases.add("all")
            eranks[..., i:j] = erank_stack(B[..., rows, :])
        elif not own.any():
            cases.add("none")
            eranks[..., i:j] = _erank_rows(_top_eigen(G / w, w)[0])
        else:
            cases.add("some")
            scored = eranks[..., i:j]
            scored[own] = erank_stack(B[own][..., rows, :])
            scored[~own] = _erank_rows(_top_eigen(G[~own] / w, w)[0])
        i = j
    return eranks, cases


def oracle_own_eranks(H, starts, w):
    """_window_eranks' w >= d path one window at a time, each its own stack."""
    eranks = np.empty(H.shape[:-2] + (len(starts),))
    for i, s in enumerate(starts):
        eranks[..., i] = erank_stack(H[..., None, s:s + w, :])[..., 0]
    return eranks


@st.composite
def scorer_inputs(draw, wide=False):
    """A (T, d) trajectory or a (G, T, d) stack with w < d, or w >= d when
    ``wide``. With stride < width, a constant window at a start that has
    another start after it shares its block with other rows, so its shifted
    energy is positive and its centred energy zero: that block falls back
    in each trajectory that has it, every one ("every"), the first only
    ("first") or none."""
    width = draw(st.integers(2, 12))
    stride = draw(st.integers(1, width))
    d = draw(st.integers(1, width) if wide else st.integers(width + 1, width + 12))
    T = draw(st.integers(width + stride, 5 * width))
    stack = draw(st.sampled_from([(), (2,), (3,), (2, 2)]))
    stretch = draw(st.sampled_from(["none", "every", "first"])) if stride < width else "none"
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = rng.normal(size=stack + (T, d)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if stretch != "none":
        a = stride * draw(st.integers(0, (T - width - stride) // stride))
        flat = H.reshape((-1, T, d))
        flat[:1 if stretch == "first" else None, a:a + width] = 5.0 + rng.normal(size=d)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return H.astype(dtype), width, stride, stretch


@settings(max_examples=300, deadline=None)
@given(scorer_inputs())
def test_block_scorer_equals_the_widen_and_shift_oracle_bit_for_bit(case):
    H, width, stride, stretch = case
    starts, w, _ = _window_plan(*H.shape[-2:], width, stride)
    starts = np.asarray(starts)
    expected, cases = oracle_window_eranks(H, starts, w)
    got = _window_eranks(H, starts, w)
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    # The constructed stretch reaches the fallback case it was built for.
    # The ratio test on iid rows is left to chance below a width of 4.
    if stretch == "every" or (stretch == "first" and H.ndim == 2):
        assert "all" in cases
    elif w >= 4:
        assert ("some" if stretch == "first" else "none") in cases


@settings(max_examples=200, deadline=None)
@given(st.one_of(scorer_inputs(), scorer_inputs(wide=True)), st.integers(1, 3000))
def test_own_rows_scored_in_small_chunks_equal_the_oracles_bit_for_bit(case, floats):
    """OWN_ROWS_FLOATS is cut to ``floats``, so a chunk holds one or a few
    windows and its edges fall inside the blocks that fall back and inside
    the w >= d runs. The module constant is patched here, in the test body:
    hypothesis refuses the function-scoped monkeypatch fixture."""
    H, width, stride, _ = case
    starts, w, _ = _window_plan(*H.shape[-2:], width, stride)
    starts = np.asarray(starts)
    if w >= H.shape[-1]:
        expected = oracle_own_eranks(H, starts, w)
    else:
        expected, _ = oracle_window_eranks(H, starts, w)
    saved = windows.OWN_ROWS_FLOATS
    windows.OWN_ROWS_FLOATS = floats
    try:
        got = _window_eranks(H, starts, w)
    finally:
        windows.OWN_ROWS_FLOATS = saved
    assert got.tobytes() == expected.tobytes()
