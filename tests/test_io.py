import io
import json
import struct
import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from rankshape import (
    ConfigError,
    FileFormatError,
    InputError,
    RunConfig,
    apply_overrides,
    parse_run_config,
    read_trajectory,
    read_trajectory_with_metadata,
    write_trajectory,
)
from rankshape import spectral
from rankshape.cli import main
from rankshape.io import MAGIC, VERSION, _read_stored, load_run_config
from rankshape.spectral import FINITE_CHUNK


def f32(values):
    return np.asarray(values, dtype=np.float32).astype(np.float64)


class TestHstbRoundTrip:
    def test_bit_exact_for_float32_data(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "traj.hstb"
        for _ in range(10):
            H = f32(rng.normal(size=(rng.integers(1, 20), rng.integers(1, 12))))
            write_trajectory(path, H)
            npt.assert_array_equal(read_trajectory(path), H)

    def test_metadata_round_trip(self, tmp_path):
        path = tmp_path / "traj.hstb"
        meta = {"run": "x", "alpha": 0.5, "tags": [1, 2]}
        write_trajectory(path, f32([[1.0, 2.0]]), metadata=meta)
        H, loaded = read_trajectory_with_metadata(path)
        npt.assert_array_equal(H, [[1.0, 2.0]])
        assert loaded == meta

    def test_no_metadata_is_none(self, tmp_path):
        path = tmp_path / "traj.hstb"
        write_trajectory(path, f32([[1.0], [2.0]]))
        _, meta = read_trajectory_with_metadata(path)
        assert meta is None

    def test_header_layout(self, tmp_path):
        path = tmp_path / "traj.hstb"
        write_trajectory(path, f32([[1.5, -2.0], [0.0, 3.25]]))
        blob = path.read_bytes()
        assert blob[:4] == MAGIC
        version, rows, cols = struct.unpack_from("<III", blob, 4)
        assert (version, rows, cols) == (VERSION, 2, 2)
        payload = np.frombuffer(blob[16:], dtype="<f4").reshape(2, 2)
        npt.assert_array_equal(payload, [[1.5, -2.0], [0.0, 3.25]])

    def test_float32_overflow_rejected(self, tmp_path):
        with pytest.raises(InputError):
            write_trajectory(tmp_path / "traj.hstb", [[1e300]])

    def test_rows_past_u32_refused_before_converting_or_opening(self, tmp_path):
        """T is a u32 header field. A (2**32, 1) broadcast view allocates
        nothing; the writer must refuse it before it converts the view to a
        16 GiB payload and before it truncates the target. (A (1, 2**32)
        view would make the finite check build a 4 GiB mask.)"""
        path = tmp_path / "traj.hstb"
        write_trajectory(path, [[1.0, 2.0]])
        before = path.read_bytes()
        with pytest.raises(InputError, match="HSTB cannot hold 4294967296 rows") as info:
            write_trajectory(path, np.broadcast_to(np.zeros((1, 1)), (2**32, 1)))
        assert info.value.code == "input"
        assert path.read_bytes() == before

    def test_metadata_past_u32_refused_before_opening(self, tmp_path, monkeypatch):
        """The metadata block's length is a u32 field; json.dumps is stubbed
        so that the encoded block reports 2**32 bytes."""
        class HugeBytes(bytes):
            def __len__(self):
                return 2**32

        class HugeText(str):
            def encode(self, *args, **kwargs):
                return HugeBytes()

        path = tmp_path / "traj.hstb"
        write_trajectory(path, [[1.0, 2.0]], metadata={"a": 1})
        before = path.read_bytes()
        monkeypatch.setattr(json, "dumps", lambda obj: HugeText())
        with pytest.raises(InputError, match="HSTB cannot hold 4294967296 metadata bytes") as info:
            write_trajectory(path, [[3.0, 4.0]], metadata={"b": 2})
        assert info.value.code == "input"
        assert path.read_bytes() == before


class TestHstbErrors:
    def write_raw(self, tmp_path, blob):
        path = tmp_path / "bad.hstb"
        path.write_bytes(blob)
        return path

    def good_blob(self):
        H = np.array([[1.0, 2.0], [3.0, 4.0]], dtype="<f4")
        return struct.pack("<4sIII", MAGIC, VERSION, 2, 2) + H.tobytes()

    def expect_code(self, tmp_path, blob, code):
        path = self.write_raw(tmp_path, blob)
        with pytest.raises(FileFormatError) as info:
            read_trajectory(path)
        assert info.value.code == code

    def test_bad_magic(self, tmp_path):
        self.expect_code(tmp_path, b"NOPE" + self.good_blob()[4:], "bad_magic")

    def test_empty_file(self, tmp_path):
        self.expect_code(tmp_path, b"", "bad_magic")

    def test_truncated_header(self, tmp_path):
        self.expect_code(tmp_path, self.good_blob()[:10], "truncated_payload")

    def test_bad_version(self, tmp_path):
        blob = struct.pack("<4sIII", MAGIC, 9, 2, 2) + self.good_blob()[16:]
        self.expect_code(tmp_path, blob, "bad_version")

    def test_payload_one_byte_short(self, tmp_path):
        self.expect_code(tmp_path, self.good_blob()[:-1], "truncated_payload")

    def test_zero_dimension(self, tmp_path):
        blob = struct.pack("<4sIII", MAGIC, VERSION, 0, 2)
        self.expect_code(tmp_path, blob, "dimension_mismatch")

    def test_truncated_metadata(self, tmp_path):
        blob = self.good_blob() + struct.pack("<I", 10) + b"abc"
        self.expect_code(tmp_path, blob, "truncated_payload")

    def test_trailing_garbage(self, tmp_path):
        blob = self.good_blob() + struct.pack("<I", 2) + b'{}x'
        self.expect_code(tmp_path, blob, "trailing_data")

    @pytest.mark.parametrize("meta", [b"{oops", b"\xff\xfe", b"[" * 200_000,
                                      b'{"n": 1' + b"0" * 5000 + b"}"],
                             ids=["invalid_json", "not_utf8", "deeply_nested",
                                  "int_past_the_digit_limit"])
    def test_bad_metadata(self, tmp_path, meta):
        blob = self.good_blob() + struct.pack("<I", len(meta)) + meta
        self.expect_code(tmp_path, blob, "bad_metadata")

    def test_huge_dimensions_checked_before_allocating(self, tmp_path):
        blob = struct.pack("<4sIII", MAGIC, VERSION, 2**32 - 1, 2**32 - 1) + b"\x00" * 16
        path = self.write_raw(tmp_path, blob)
        with pytest.raises(FileFormatError) as info:
            read_trajectory(path)
        assert info.value.code == "truncated_payload"
        need = (2**32 - 1) ** 2 * 4
        assert str(info.value) == (
            f"truncated payload: need {need} bytes for 4294967295x4294967295, have 16")

    def test_non_finite_payload(self, tmp_path):
        payload = np.array([[1.0, np.inf]], dtype="<f4")
        blob = struct.pack("<4sIII", MAGIC, VERSION, 1, 2) + payload.tobytes()
        self.expect_code(tmp_path, blob, "non_finite_value")

    def test_missing_file(self):
        with pytest.raises(InputError):
            read_trajectory("/nonexistent/traj.hstb")

    @pytest.mark.parametrize("tail, code", [
        (struct.pack("<I", 10) + b"abc", "truncated_payload"),
        (b"\x01\x00", "truncated_payload"),
        (struct.pack("<I", 5) + b"{oops", "bad_metadata"),
        (struct.pack("<I", 2) + b"{}x", "trailing_data"),
    ], ids=["truncated_block", "truncated_length", "bad_json", "trailing_data"])
    def test_metadata_error_beats_non_finite_value(self, tmp_path, capsys, tail, code):
        payload = np.array([[1.0, np.nan], [3.0, 4.0]], dtype="<f4")
        blob = struct.pack("<4sIII", MAGIC, VERSION, 2, 2) + payload.tobytes() + tail
        self.expect_code(tmp_path, blob, code)
        path = tmp_path / "bad.hstb"
        for command in ("effrank", "window-rank"):
            assert main([command, str(path)]) == 1
            assert capsys.readouterr().err.startswith(f"error [{code}]:")


def test_hstb_read_allocates_little_beyond_its_result(tmp_path):
    """One float32 payload array and the float64 result; no whole-file
    byte copies on the way."""
    path = tmp_path / "big.hstb"
    write_trajectory(path, f32(np.random.default_rng(0).normal(size=(1024, 1024))))
    tracemalloc.start()
    try:
        H = read_trajectory(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * H.nbytes + 2**20


@pytest.mark.budget
def test_hstb_read_adds_at_most_one_check_chunk_over_its_payload(tmp_path):
    """The finiteness check reads FINITE_CHUNK values at a time, so reading
    holds the float32 payload, one chunk's bool mask and the file object's
    read buffer; a whole-payload mask would be a quarter of the payload."""
    path = tmp_path / "big.hstb"
    write_trajectory(path, f32(np.random.default_rng(0).normal(size=(1024, 512))))
    tracemalloc.start()
    try:
        H, _ = _read_stored(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert H.dtype == np.float32
    bound = H.nbytes + FINITE_CHUNK + io.DEFAULT_BUFFER_SIZE
    print(f"BUDGET test_hstb_read_adds_at_most_one_check_chunk_over_its_payload {peak} {bound}")
    assert peak <= bound


@pytest.mark.budget
def test_hstb_write_holds_one_copy_of_its_payload(tmp_path):
    """The writer converts the trajectory to its float32 payload once, checks
    it FINITE_CHUNK values at a time, and writes the header, the payload's
    buffer and the metadata block to the open file through its write buffer;
    a bytes copy of the payload, or of the whole file, would add its size
    again."""
    H = np.random.default_rng(0).normal(size=(1024, 1024))
    metadata = {"model": "m" * 100, "layer": 7}
    header = struct.calcsize("<4sIII")
    meta_block = 4 + len(json.dumps(metadata).encode("utf-8"))
    tracemalloc.start()
    try:
        write_trajectory(tmp_path / "big.hstb", H, metadata)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    payload = H.size * 4
    assert (tmp_path / "big.hstb").stat().st_size == header + payload + meta_block
    bound = payload + FINITE_CHUNK + header + meta_block + io.DEFAULT_BUFFER_SIZE
    print(f"BUDGET test_hstb_write_holds_one_copy_of_its_payload {peak} {bound}")
    assert peak <= bound


@pytest.mark.budget
@pytest.mark.parametrize("command, bound", [("window-rank", 2.0), ("effrank", 4.5)])
def test_cli_scores_hstb_without_a_whole_float64_copy(tmp_path, capsys, command, bound):
    """window-rank keeps the float32 payload and widens one block at a time
    (peak 1.8x the payload here, 3.1x when the whole file was widened).
    effrank's 1024 x 1024 payload is GRAM_FLOATS values, so it is one chunk:
    its centred float64 copy replaces the payload, which goes to the eigen
    core as a temporary, before the 1024 x 1024 covariance is formed (peak
    4.0x, 6.0x with the payload, a widened and a centred copy all alive)."""
    path = tmp_path / "big.hstb"
    write_trajectory(path, f32(np.random.default_rng(0).normal(size=(1024, 1024))))
    payload_bytes = 1024 * 1024 * 4
    tracemalloc.start()
    try:
        code = main([command, str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().err == ""
    print(f"BUDGET test_cli_scores_hstb_without_a_whole_float64_copy[{command}] {peak} "
          f"{bound * payload_bytes:.0f}")
    assert peak <= bound * payload_bytes


@pytest.mark.budget
@pytest.mark.parametrize("T, d", [(256, 1024), (1024, 256)], ids=["gram", "covariance"])
def test_cli_effrank_holds_the_payload_the_matrix_and_two_chunk_buffers(tmp_path, capsys,
                                                                        monkeypatch, T, d):
    """With GRAM_FLOATS cut to 2**14, effrank widens a T x d payload 64
    features at a time: it holds the float32 payload (4 T d bytes), the
    min(T, d)^2 float64 matrix and two buffers of GRAM_FLOATS floats, the
    centred chunk and the temporary of a block's product, and frees the
    payload before the eigensolve. A float64 copy of the whole payload
    would add 8 T d bytes. The constant, 256 KiB, covers the buffers of
    8192 values that numpy's ufuncs take for strided operands, the mean
    and the eigenvalues."""
    monkeypatch.setattr(spectral, "GRAM_FLOATS", 2**14)
    path = tmp_path / "big.hstb"
    write_trajectory(path, f32(np.random.default_rng(0).normal(size=(T, d))))
    n = min(T, d)
    tracemalloc.start()
    try:
        code = main(["effrank", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().err == ""
    bound = 4 * T * d + 8 * n * n + 2 * 8 * spectral.GRAM_FLOATS + 2**18
    print(f"BUDGET test_cli_effrank_holds_the_payload_the_matrix_and_two_chunk_buffers[{T}x{d}] "
          f"{peak} {bound}")
    assert peak <= bound


@pytest.mark.budget
def test_cli_window_rank_of_one_whole_window_holds_what_effrank_holds(tmp_path, capsys,
                                                                       monkeypatch):
    """window-rank --w T on a T < d file scores its one window through the
    eigen core that effrank uses, on a view of the payload: with
    GRAM_FLOATS cut to 2**14 it holds effrank's budget, the float32
    payload, the T x T matrix and two chunk buffers, and no T x d float64
    copy of the trajectory (8 T d bytes)."""
    monkeypatch.setattr(spectral, "GRAM_FLOATS", 2**14)
    T, d = 256, 1024
    path = tmp_path / "big.hstb"
    write_trajectory(path, f32(np.random.default_rng(0).normal(size=(T, d))))
    tracemalloc.start()
    try:
        code = main(["window-rank", str(path), "--w", str(T)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().err == ""
    bound = 4 * T * d + 8 * T * T + 2 * 8 * spectral.GRAM_FLOATS + 2**18
    print(f"BUDGET test_cli_window_rank_of_one_whole_window_holds_what_effrank_holds "
          f"{peak} {bound}")
    assert peak <= bound


@pytest.mark.parametrize("name", ["traj.hstb", "traj.csv"])
def test_write_into_a_missing_directory_is_an_input_error(tmp_path, name):
    path = tmp_path / "no" / "such" / name
    with pytest.raises(InputError) as info:
        write_trajectory(path, [[1.0, 2.0], [3.0, 4.0]])
    assert str(info.value) == f"cannot write {path}: No such file or directory"
    assert info.value.code == "input"


class TestCsvTrajectories:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "traj.csv"
        H = np.array([[1.5, -2.25], [0.125, 3.0]])
        write_trajectory(path, H)
        npt.assert_array_equal(read_trajectory(path), H)

    def test_nan_cell_named(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("1.0,2.0\n3.0,nan\n")
        with pytest.raises(FileFormatError) as info:
            read_trajectory(path)
        assert info.value.code == "non_finite_value"
        assert "row 1" in str(info.value) and "column 1" in str(info.value)

    @pytest.mark.parametrize("cell", ["9" * 200_000, "x" * 200_000], ids=["number", "junk"])
    def test_field_past_the_csv_limit_is_a_bad_value(self, tmp_path, cell):
        path = tmp_path / "traj.csv"
        path.write_text(f"1.0,2.0\n3.0,{cell}\n")
        with pytest.raises(FileFormatError) as info:
            read_trajectory(path)
        assert info.value.code == "bad_value"
        assert str(info.value) == ("unparseable value at row 1: "
                                   "field larger than field limit (131072)")

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(FileFormatError) as info:
            read_trajectory(path)
        assert info.value.code == "dimension_mismatch"

    def test_ragged_row_after_blank_line_named_by_csv_index(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("1,2\n\n3,4\n5\n")
        with pytest.raises(FileFormatError) as info:
            read_trajectory(path)
        assert info.value.code == "dimension_mismatch"
        assert str(info.value) == "row 3 has 1 columns, expected 2"

    def test_unparseable_cell_rejected(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("1.0,abc\n")
        with pytest.raises(FileFormatError) as info:
            read_trajectory(path)
        assert info.value.code == "bad_value"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("")
        with pytest.raises(FileFormatError) as info:
            read_trajectory(path)
        assert info.value.code == "dimension_mismatch"

    def test_csv_cannot_carry_metadata(self, tmp_path):
        with pytest.raises(InputError):
            write_trajectory(tmp_path / "traj.csv", [[1.0]], metadata={"a": 1})

    # Awkward files and what the per-cell reader made of each before numpy
    # parsed CSV: the matrix, or the error code and message.
    AWKWARD = {
        "underscore": (b"1_0,2\n", [[10.0, 2.0]]),
        "arabic_indic_digit": ("\u0661,2\n".encode(), [[1.0, 2.0]]),
        "blank_line_1_column": (b"1\n \t\n2\n",
                                ("bad_value", "unparseable value at row 1, column 0")),
        "blank_line_2_columns": (b"1,2\n  \n3,4\n",
                                 ("dimension_mismatch", "row 1 has 1 columns, expected 2")),
        "trailing_comma": (b"1,2,\n3,4,\n", ("bad_value", "unparseable value at row 0, column 2")),
        "empty_quotes": (b'1,""\n', ("bad_value", "unparseable value at row 0, column 1")),
        "lone_quote": (b'1\n"\n', ("bad_value", "unparseable value at row 1, column 0")),
        "utf8_bom": (b"\xef\xbb\xbf1,2\n", ("bad_value", "unparseable value at row 0, column 0")),
        "hash_comment": (b"1\n2 # c\n", ("bad_value", "unparseable value at row 1, column 0")),
        "overflow": (b"1,2\n3,1e400\n",
                     ("non_finite_value", "non-finite value at row 1, column 1")),
        "negative_underflow": (b"-1e-400,1\n", [[-0.0, 1.0]]),
        "ragged_after_blank": (b"1,2\n\n3,4\n5\n",
                               ("dimension_mismatch", "row 3 has 1 columns, expected 2")),
        "blank_lines_only": (b"\n\r\n\n", ("dimension_mismatch", "empty trajectory file: {path}")),
        "not_utf8": (b"1,2\n\xff\n", ("input", "not UTF-8 text: {path}: invalid start byte")),
        # numpy reads past the non-finite cell before it meets the bad byte.
        "non_finite_before_not_utf8": (b"1\n" * 100 + b"nan\n" + b"1\n" * 10000 + b"\xff\n",
                                       ("non_finite_value", "non-finite value at row 100, column 0")),
        "information_separator": (b"1,2\x1e\n", ("bad_value", "unparseable value at row 0, column 1")),
    }
    if sys.version_info >= (3, 11):  # the csv module refuses NUL before 3.11
        AWKWARD["nul_byte"] = (b"1,2\x00\n", ("bad_value", "unparseable value at row 0, column 1"))

    @pytest.mark.parametrize("name", sorted(AWKWARD))
    def test_awkward_file_reads_as_before(self, tmp_path, name):
        data, expected = self.AWKWARD[name]
        path = tmp_path / "traj.csv"
        path.write_bytes(data)
        if isinstance(expected, list):
            H = read_trajectory(path)
            want = np.array(expected)
            assert H.dtype == np.float64 and H.shape == want.shape
            assert np.array_equal(H.view(np.int64), want.view(np.int64))
        else:
            with pytest.raises(InputError) as info:
                read_trajectory(path)
            assert (info.value.code, str(info.value)) == (expected[0],
                                                          expected[1].format(path=path))


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.alpha == 0.5
        assert cfg.window == 64
        assert cfg.stride == 16
        assert cfg.group_size == 8

    def test_parse_with_comments_and_blanks(self):
        text = """
        # run settings
        alpha = 0.25
        iterations = 40   # short run
        label = demo
        """
        cfg = parse_run_config(text)
        assert cfg.alpha == 0.25
        assert cfg.iterations == 40
        assert cfg.label == "demo"

    def test_unknown_key_lists_accepted(self):
        with pytest.raises(ConfigError) as info:
            parse_run_config("alhpa = 0.5\n")
        message = str(info.value)
        assert "alhpa" in message
        assert "alpha" in message and "train_seed" in message

    def test_type_errors(self):
        with pytest.raises(ConfigError):
            parse_run_config("iterations = 3.5\n")
        with pytest.raises(ConfigError):
            parse_run_config("alpha = fast\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_run_config("alpha 0.5\n")

    def test_overrides(self):
        cfg = parse_run_config("alpha = 0.5\n")
        apply_overrides(cfg, ["alpha=0.0", "train_seed=9"])
        assert cfg.alpha == 0.0
        assert cfg.train_seed == 9

    def test_override_unknown_key(self):
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), ["bogus=1"])

    def test_override_missing_equals(self):
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), ["alpha"])

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("alpha = 0.75\nhorizon = 16\n")
        cfg = load_run_config(path)
        assert cfg.alpha == 0.75
        assert cfg.horizon == 16

    def test_load_missing_file(self):
        with pytest.raises(InputError):
            load_run_config("/nonexistent/run.cfg")
