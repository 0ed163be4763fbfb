"""The finiteness check behind the HSTB and CSV readers, write_trajectory and
the public array check: a non-finite value anywhere, the cells either side
of a check-chunk boundary included, gives each caller's error naming the
first bad cell, and the largest finite values pass."""

import struct

import numpy as np
import numpy.testing as npt
import pytest

from rankshape import FileFormatError, InputError, read_trajectory, write_trajectory
from rankshape.io import MAGIC, VERSION
from rankshape.spectral import FINITE_CHUNK, validate_trajectory

# 66,560 values: the check's first chunk is rows 0-255, its second rows 256-259.
T, D = 260, 256
CELLS = {"first": (0, 0), "chunk_end": (255, 255), "chunk_start": (256, 0), "last": (T - 1, D - 1)}
# A bad value, and for a pair the value put in the next cell (the previous
# one for the last cell).
KINDS = {"nan": (np.nan, None), "inf": (np.inf, None), "-inf": (-np.inf, None),
         "pair": (np.inf, -np.inf)}
F32_MAX, F64_MAX = float(np.finfo(np.float32).max), float(np.finfo(np.float64).max)


def test_chunk_boundary_is_where_the_cases_put_it():
    assert FINITE_CHUNK // D == 256 < T


def bad_matrix(cell, kind, scale=1.0):
    """A finite (T, D) float32-exact matrix with KINDS[kind] (times scale)
    written at cell, and the first bad cell in row-major order."""
    H = np.random.default_rng(0).normal(size=(T, D)).astype(np.float32).astype(np.float64)
    value, partner = KINDS[kind]
    i = cell[0] * D + cell[1]
    H.flat[i] = value * scale
    if partner is None:
        return H, cell
    j = i + 1 if i + 1 < H.size else i - 1
    H.flat[j] = partner * scale
    return H, divmod(min(i, j), D)


def signed_full(value):
    """A (T, D) matrix of +value and -value in a checkerboard."""
    return np.where(np.indices((T, D)).sum(axis=0) % 2 == 0, value, -value)


def csv_text(H):
    return "".join(",".join(map(repr, row)) + "\n" for row in H.tolist())


cases = pytest.mark.parametrize("cell", CELLS.values(), ids=CELLS.keys())
kinds = pytest.mark.parametrize("kind", KINDS)


@cases
@kinds
def test_hstb_names_the_first_non_finite_cell(tmp_path, cell, kind):
    H, (r, c) = bad_matrix(cell, kind)
    path = tmp_path / "bad.hstb"
    path.write_bytes(struct.pack("<4sIII", MAGIC, VERSION, T, D) + H.astype("<f4").tobytes())
    with pytest.raises(FileFormatError, match=f"^non-finite value at row {r}, column {c}$") as info:
        read_trajectory(path)
    assert info.value.code == "non_finite_value"


@cases
@kinds
def test_csv_names_the_first_non_finite_cell(tmp_path, cell, kind):
    H, (r, c) = bad_matrix(cell, kind)
    path = tmp_path / "bad.csv"
    path.write_text(csv_text(H))
    with pytest.raises(FileFormatError, match=f"^non-finite value at row {r}, column {c}$") as info:
        read_trajectory(path)
    assert info.value.code == "non_finite_value"


@cases
@kinds
def test_array_check_refuses_a_non_finite_cell(cell, kind):
    H, _ = bad_matrix(cell, kind)
    with pytest.raises(InputError, match="^trajectory must be finite$") as info:
        validate_trajectory(H)
    assert info.value.code == "input"


@cases
@kinds
@pytest.mark.parametrize("suffix", [".hstb", ".csv"])
def test_write_refuses_a_non_finite_cell(tmp_path, cell, kind, suffix):
    H, _ = bad_matrix(cell, kind)
    path = tmp_path / f"out{suffix}"
    with pytest.raises(InputError, match="^trajectory must be finite$"):
        write_trajectory(path, H)
    assert not path.exists()


@cases
@pytest.mark.parametrize("kind", ["inf", "-inf", "pair"])
def test_write_refuses_a_cell_beyond_float32_in_hstb(tmp_path, cell, kind):
    H, _ = bad_matrix(cell, kind)
    H[~np.isfinite(H)] = np.sign(H[~np.isfinite(H)]) * 1e39  # finite, but not as float32
    path = tmp_path / "out.hstb"
    with pytest.raises(InputError, match="^trajectory values exceed the float32 range$"):
        write_trajectory(path, H)
    assert not path.exists()


def test_largest_float32_values_pass_hstb(tmp_path):
    H = signed_full(F32_MAX)
    path = tmp_path / "max.hstb"
    write_trajectory(path, H)
    npt.assert_array_equal(read_trajectory(path), H)


@pytest.mark.parametrize("value", [F32_MAX, F64_MAX], ids=["float32_max", "float64_max"])
def test_largest_values_pass_csv_and_the_array_check(tmp_path, value):
    H = signed_full(value)
    npt.assert_array_equal(validate_trajectory(H), H)
    path = tmp_path / "max.csv"
    write_trajectory(path, H)
    npt.assert_array_equal(read_trajectory(path), H)
    path.write_text(csv_text(H))
    npt.assert_array_equal(read_trajectory(path), H)
