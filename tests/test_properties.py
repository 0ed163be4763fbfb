"""Property tests: the window scorer against its per-window oracle, and the
HSTB reader against arbitrary bytes."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rankshape import (  # noqa: E402
    FileFormatError,
    InputError,
    covariance_spectrum,
    erank_or_floor,
    read_trajectory_with_metadata,
    stacked_min_effrank,
    windowed_min_effrank,
    write_trajectory,
)


@st.composite
def window_stacks(draw):
    """(states, width, stride): a float32-rounded (G, T, d) stack with a
    random offset per coordinate and, optionally, one trajectory holding
    still (noise 1e-6) over a stretch of steps."""
    G = draw(st.integers(1, 3))
    T = draw(st.integers(2, 40))
    d = draw(st.integers(2, 24))
    width = draw(st.integers(2, 48))
    stride = draw(st.integers(1, 48))
    offset = draw(st.floats(0.0, 1e3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = offset * rng.normal(size=d) + rng.normal(size=(G, T, d))
    if draw(st.booleans()):
        g = draw(st.integers(0, G - 1))
        lo = draw(st.integers(0, T - 1))
        hi = draw(st.integers(lo + 1, T))
        states[g, lo:hi] = states[g, lo] + 1e-6 * rng.normal(size=(hi - lo, d))
    return states.astype(np.float32).astype(np.float64), width, stride


@settings(max_examples=100, deadline=None)
@given(window_stacks())
def test_stacked_windows_match_each_window_oracle(case):
    states, width, stride = case
    min_erank, _ = stacked_min_effrank(states, width, stride)
    for g, H in enumerate(states):
        profile = windowed_min_effrank(H, width, stride)
        assert abs(min_erank[g] - profile.min_erank) <= 1e-12
        for start, erank in zip(profile.starts, profile.per_window_erank):
            expected = erank_or_floor(covariance_spectrum(H[start:start + width]))
            assert abs(erank - expected) <= 1e-12


@pytest.fixture(scope="module")
def hstb_bytes(tmp_path_factory):
    """A valid HSTB file with metadata, as bytes."""
    path = tmp_path_factory.mktemp("hstb") / "valid.hstb"
    rows = np.random.default_rng(0).normal(size=(5, 3))
    write_trajectory(path, rows, metadata={"model": "m", "layers": [1, 2]})
    return path.read_bytes()


def _mangled(valid: bytes):
    """Random bytes (bare or after the magic), truncations of ``valid``, and
    in-place overwrites of a stretch of ``valid``."""
    overwrite = st.tuples(st.integers(0, len(valid) - 1), st.binary(min_size=1, max_size=8))
    return st.one_of(
        st.binary(max_size=128),
        st.binary(max_size=128).map(lambda tail: valid[:4] + tail),
        st.integers(0, len(valid)).map(lambda n: valid[:n]),
        overwrite.map(lambda edit: (valid[:edit[0]] + edit[1] + valid[edit[0] + len(edit[1]):])
                      [:len(valid)]),
    )


def test_hstb_reader_raises_only_documented_errors(hstb_bytes, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.hstb"

    @settings(max_examples=500, deadline=None)
    @given(_mangled(hstb_bytes))
    def read(data):
        path.write_bytes(data)
        try:
            read_trajectory_with_metadata(path)
        except (FileFormatError, InputError):
            pass

    read()
