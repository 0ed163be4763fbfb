"""Property tests: the window scorer against its per-window oracle and
against each trajectory scored alone, each trajectory of a chunked stack
against itself alone, the stride-1 window minimum, the
effective rank's invariances and its two eigen paths, group advantages,
and the HSTB readers (public and as stored) against arbitrary bytes, and
the CSV reader against the per-cell reader it replaced. Also: a failing property is reported as a failure."""

import csv
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rankshape import (  # noqa: E402
    FileFormatError,
    InputError,
    covariance_spectrum,
    effective_rank,
    erank_or_floor,
    erank_stack,
    group_advantages,
    read_trajectory,
    read_trajectory_with_metadata,
    stacked_min_effrank,
    windowed_min_effrank,
    write_trajectory,
)
from rankshape import spectral  # noqa: E402
from rankshape.io import _read_stored  # noqa: E402
from rankshape.rewards import STD_FLOOR  # noqa: E402


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


@settings(max_examples=100, deadline=None)
@given(window_stacks())
def test_stacked_scores_equal_each_trajectory_alone(case):
    # Bit for bit: a trajectory's score does not depend on its neighbours.
    states, width, stride = case
    min_erank, ranks = stacked_min_effrank(states, width, stride)
    for g, H in enumerate(states):
        alone = stacked_min_effrank(H, width, stride)
        assert (min_erank[g], ranks[g]) == alone
        assert windowed_min_effrank(H, width, stride).min_erank == min_erank[g]


@st.composite
def chunked_stacks(draw):
    """A (G, T, d) stack of 2 to 4 trajectories on an LLM-like offset, T and
    d in 2..59, so that with GRAM_FLOATS at 2**10 most of them are built in
    several chunks."""
    G = draw(st.integers(2, 4))
    T = draw(st.integers(2, 59))
    d = draw(st.integers(2, 59))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return 300.0 + rng.normal(size=(G, T, d))


@settings(max_examples=100, deadline=None)
@given(chunked_stacks())
def test_each_trajectory_of_a_chunked_stack_scores_as_it_does_alone(states):
    # Bit for bit: the eigen core's chunks are sized by one trajectory, so a
    # trajectory's chunks, and its score, do not depend on its stack.
    T = states.shape[-2]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "GRAM_FLOATS", 2**10)
        eranks = erank_stack(states)
        lone, _ = stacked_min_effrank(states, T, 1)  # one window: the whole trajectory
        for g, H in enumerate(states):
            assert erank_stack(H) == eranks[g]
            assert stacked_min_effrank(H, T, 1)[0] == lone[g]


@settings(max_examples=100, deadline=None)
@given(window_stacks())
def test_stride_one_window_minimum_is_lowest(case):
    # The stride-1 starts include every start of any stride; strides past
    # T - width all give the same two starts.
    states, width, _ = case
    for H in states:
        finest = windowed_min_effrank(H, width, 1).min_erank
        for stride in range(2, len(H) - width + 2):
            assert finest <= windowed_min_effrank(H, width, stride).min_erank + 1e-12


@st.composite
def trajectories(draw):
    """A (T, d) Gaussian trajectory, T >= 2, with a random offset, and the
    generator that made it."""
    T = draw(st.integers(2, 30))
    d = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.floats(0.0, 1e3))
    return offset * rng.normal(size=d) + rng.normal(size=(T, d)), rng


@settings(max_examples=100, deadline=None)
@given(trajectories(), st.floats(1e-3, 1e3))
def test_erank_invariant_under_rotation_and_scale(case, scale):
    H, rng = case
    Q, _ = np.linalg.qr(rng.normal(size=(H.shape[1], H.shape[1])))
    before = effective_rank(covariance_spectrum(H))
    after = effective_rank(covariance_spectrum(scale * H @ Q))
    assert abs(after - before) <= 1e-9 * before


@settings(max_examples=100, deadline=None)
@given(trajectories())
def test_gram_and_covariance_paths_agree(case):
    H, _ = case
    gram = covariance_spectrum(H, method="gram")
    cov = covariance_spectrum(H, method="covariance")
    top = cov.eigenvalues[0]
    assert np.all(np.abs(gram.eigenvalues - cov.eigenvalues) <= 1e-10 * top)
    assert abs(effective_rank(gram) - effective_rank(cov)) <= 1e-9 * effective_rank(cov)


@st.composite
def reward_groups(draw):
    """Rewards of one group: spread anywhere from 0 to well above STD_FLOOR."""
    size = draw(st.integers(2, 64))
    base = draw(st.floats(-10.0, 10.0))
    spread = draw(st.sampled_from([0.0, 1e-9, 1e-7, 1e-6, 1e-5, 1.0, 10.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return base + spread * rng.normal(size=size)


@settings(max_examples=200, deadline=None)
@given(reward_groups())
def test_group_advantages_standardized_or_zero(rewards):
    advantages = group_advantages(rewards)
    std = rewards.std()
    if std < STD_FLOOR:
        assert np.all(advantages == 0.0)
    else:
        tol = 1e-12 * (1.0 + np.abs(rewards).max() / std)
        assert abs(advantages.mean()) <= tol
        assert abs(advantages.std() - 1.0) <= tol


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


def _outcome(read, path):
    """(error code and message, None) if ``read(path)`` raises a documented
    error, else (None, its result)."""
    try:
        return None, read(path)
    except (FileFormatError, InputError) as exc:
        return (exc.code, str(exc)), None


def test_hstb_reader_raises_only_documented_errors(hstb_bytes, tmp_path_factory):
    """The public reader and the CLI's as-stored reader raise the same
    documented error on every input, or agree: the public matrix is the
    stored float32 one widened to float64."""
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.hstb"

    @settings(max_examples=500, deadline=None)
    @given(_mangled(hstb_bytes))
    def read(data):
        path.write_bytes(data)
        error, widened = _outcome(read_trajectory_with_metadata, path)
        stored_error, stored = _outcome(_read_stored, path)
        assert error == stored_error
        if error is None:
            assert stored[0].dtype == np.float32
            assert widened[0].dtype == np.float64
            assert np.array_equal(widened[0], stored[0].astype(np.float64))

    read()


def _csv_oracle(path):
    """The per-cell CSV reader numpy's C reader replaced: csv.reader cells
    through float(), named by CSV row index (blank lines count)."""
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        for r, line in enumerate(csv.reader(fh)):
            if not line:
                continue
            if rows and len(line) != len(rows[0]):
                raise FileFormatError(
                    "dimension_mismatch",
                    f"row {r} has {len(line)} columns, expected {len(rows[0])}")
            parsed = []
            for c, cell in enumerate(line):
                try:
                    value = float(cell)
                except ValueError:
                    raise FileFormatError(
                        "bad_value", f"unparseable value at row {r}, column {c}") from None
                if not math.isfinite(value):
                    raise FileFormatError(
                        "non_finite_value", f"non-finite value at row {r}, column {c}")
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise FileFormatError("dimension_mismatch", f"empty trajectory file: {path}")
    return np.array(rows, dtype=np.float64)


# Finite float64 values, with ±0, subnormals and values near 1e308 always in reach.
_FLOAT64 = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                     1.7976931348623157e308, -1.7976931348623157e308, 9.999999999999999e307]))


def _rarely(draw, odds):
    return draw(st.integers(0, odds - 1)) == 0


@st.composite
def _csv_cells(draw):
    """One CSV cell: a float64 in some spelling float() accepts, now and
    then one it refuses or a non-finite one, padded and maybe quoted."""
    x = draw(_FLOAT64)
    text = draw(st.sampled_from([repr(x), f"{x:.9g}", f"{x:e}", f"+{abs(x)!r}"]))
    if _rarely(draw, 60):
        text = draw(st.sampled_from(["nan", "-inf", "1e400", "abc", "", "+-1", "1_0", "١"]))

    def pad():
        if _rarely(draw, 60):  # numpy strips \x1c and \x1f, float() refuses them
            return draw(st.sampled_from(["\x1c", "\x1f", "\xa0"]))
        return draw(st.sampled_from(["", "", " ", "\t", " \t "]))

    text = pad() + text + pad()
    if draw(st.booleans()):
        text = '"' + text + '"'
    return pad() + text if _rarely(draw, 30) else text


@st.composite
def _csv_tables(draw):
    """CSV text: rows of cells (now and then one ragged), ended by \\n, \\r\\n
    or \\r, with blank lines between them."""
    cols = draw(st.integers(1, 4))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        width = draw(st.integers(1, 5)) if _rarely(draw, 30) else cols
        lines.append(",".join(draw(st.lists(_csv_cells(), min_size=width, max_size=width))))
        lines.extend([""] * draw(st.integers(0, 2)))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def test_csv_reader_matches_per_cell_oracle(tmp_path_factory):
    """read_trajectory on a .csv gives the per-cell reader's matrix bit for
    bit, or its error code and message."""
    path = tmp_path_factory.mktemp("csv") / "fuzz.csv"

    @settings(max_examples=500, deadline=None)
    @given(_csv_tables())
    def read(text):
        path.write_text(text, encoding="utf-8", newline="")
        error, H = _outcome(read_trajectory, path)
        want_error, want = _outcome(_csv_oracle, path)
        assert error == want_error
        if error is None:
            assert H.dtype == np.float64 and H.shape == want.shape
            assert np.array_equal(H.view(np.int64), want.view(np.int64))

    read()


def test_csv_round_trip_bit_exact(tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "round.csv"

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda d: st.lists(st.lists(_FLOAT64, min_size=d, max_size=d), min_size=1, max_size=6)))
    def round_trip(rows):
        H = np.array(rows, dtype=np.float64)
        write_trajectory(path, H)
        back = read_trajectory(path)
        assert back.shape == H.shape
        assert np.array_equal(back.view(np.int64), H.view(np.int64))

    round_trip()


def test_failing_property_is_reported_as_a_failure(tmp_path):
    """The suite's warning filters (pyproject.toml) must let a failing
    property end as a FAILED line with exit 1, not as INTERNALERROR (exit 3)
    from the patch writer hypothesis runs after a failure."""
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x != x\n", encoding="utf-8")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "FAILED test_fails.py::test_fails" in output
