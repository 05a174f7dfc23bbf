"""Fuzzing of every file loader: arbitrary bytes give a valid object or
FormatError, never another exception.

Each loader gets raw bytes plus inputs built to get past its first check
(a valid header or magic followed by arbitrary data, or lines of
number-like tokens), so the fuzzing reaches the later parsing stages.
"""

import os
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from seqplace.core import DescriptorSequence, FormatError, ModelConfig, PoseSequence
from oracles import read_table_rows
from seqplace.ingest import (load_descriptors, load_ground_truth, load_poses, load_scores,
                             read_table)
from seqplace.spl import (CKPT_MAGIC, CKPT_VERSION, SplModel, build_model, load_checkpoint,
                          save_checkpoint)

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

U32 = st.integers(0, 2**32 - 1)
DIM = st.one_of(st.integers(0, 4), U32)
TOKENS = st.sampled_from([
    "", " 2 ", "-0.0", "1e39", "-1e400", "nan", "inf", "99999999999999999999", "0x10",
    "1_0", "a", "\u0663", "\x00", "query", "frame", "1\u01fe", "1\x1c",
])
FIELD = st.one_of(st.integers(-2**66, 2**66).map(str), st.floats().map(repr), TOKENS)
NEWLINE = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_text(draw, header, n_cols):
    """The header (or a wrong one) and rows of number-like fields; the
    first field often counts rows up from 0, as the index columns must."""
    lines = [] if header is None else [draw(st.sampled_from([header] * 3 + ["", header[1:]]))]
    for row in range(draw(st.integers(0, 4))):
        width = draw(st.sampled_from([n_cols] * 3 + list(range(n_cols + 2))))
        fields = [draw(FIELD) for _ in range(width)]
        if fields and draw(st.integers(0, 3)):
            fields[0] = str(row)
        lines.append(",".join(fields))
    return draw(NEWLINE).join(lines).encode("utf-8")


def text_inputs(header, n_cols):
    return st.one_of(st.binary(max_size=200), st.text(max_size=200).map(str.encode),
                     csv_text(header, n_cols))


def load_bytes(tmp_path, name, blob, loader):
    path = tmp_path / name
    path.write_bytes(blob)
    try:
        return loader(path)
    except FormatError:
        return None


@FUZZ
@given(blob=st.one_of(
    st.binary(max_size=120),
    st.builds(lambda version, n, dim, body: struct.pack("<4sIII", b"SPLD", version, n, dim) + body,
              st.sampled_from([1, 1, 2]), DIM, DIM, st.binary(max_size=120)),
))
def test_spld_descriptors(tmp_path, blob):
    desc = load_bytes(tmp_path, "d.spld", blob, load_descriptors)
    if desc is not None:
        assert isinstance(desc, DescriptorSequence)
        assert len(blob) == 16 + 4 * desc.data.size
        assert np.isfinite(desc.data).all()


@FUZZ
@given(blob=st.integers(1, 3).flatmap(lambda width: text_inputs(None, width)))
@example(blob=b"\x80")
def test_csv_descriptors(tmp_path, blob):
    desc = load_bytes(tmp_path, "d.csv", blob, load_descriptors)
    if desc is not None:
        assert isinstance(desc, DescriptorSequence)
        assert np.isfinite(desc.data).all()


@FUZZ
@given(blob=text_inputs("frame,x,y", 3))
def test_poses(tmp_path, blob):
    poses = load_bytes(tmp_path, "p.csv", blob, load_poses)
    if poses is not None:
        assert isinstance(poses, PoseSequence)
        assert poses.data.shape[1] == 2 and np.isfinite(poses.data).all()


@FUZZ
@given(blob=text_inputs("query,ref", 2))
@example(blob=b"query,ref\n0,-1")
@example(blob=b"query,ref\n0,99999999999999999999")
def test_ground_truth(tmp_path, blob):
    gt = load_bytes(tmp_path, "gt.csv", blob, load_ground_truth)
    if gt is not None:
        assert gt.dtype == np.int64 and gt.ndim == 1 and gt.size >= 1
        assert (gt >= 0).all()


@FUZZ
@given(blob=text_inputs("query,predicted,confidence", 3))
@example(blob=b"query,predicted,confidence\n0,-1,0.5")
@example(blob=b"query,predicted,confidence\n0,99999999999999999999,0.5")
@example(blob=b"query,predicted,confidence\n0,3,nan")
# query columns that do not count 0,1,2,...
@example(blob=b"query,predicted,confidence\n7,3,0.5\n7,1,0.25")
@example(blob=b"query,predicted,confidence\n0,3,0.5\nbanana,2,0.1")
@example(blob=b"query,predicted,confidence\n0,3,0.5\n99999999999999999999,2,0.1")
def test_scores_csv(tmp_path, blob):
    loaded = load_bytes(tmp_path, "s.csv", blob, load_scores)
    if loaded is not None:
        predicted, confidence = loaded
        assert predicted.dtype == np.int64 and predicted.shape == confidence.shape
        assert (predicted >= 0).all() and np.isfinite(confidence).all()


HEADED_TABLES = [("query,predicted,confidence", (int, int, float)), ("query,ref", (int, int)),
                 ("frame,x,y", (int, float, float))]
TABLES = st.one_of(
    st.sampled_from(HEADED_TABLES).flatmap(
        lambda table: text_inputs(table[0], len(table[1])).map(lambda blob: (*table, blob))),
    st.tuples(st.integers(1, 3), st.sampled_from([int, float])).flatmap(
        lambda width_kind: text_inputs(None, width_kind[0]).map(
            lambda blob: (None, width_kind[1], blob))),
)


def read_with(reader, path, header, kinds):
    """(dtype and bytes per column, line numbers), or the FormatError text."""
    try:
        columns, lines = reader(path, header, kinds)
    except FormatError as exc:
        return str(exc)
    return [(column.dtype, column.tobytes()) for column in columns], tuple(lines)


@FUZZ
@given(table=TABLES)
# text numpy's C reader would read unlike int() and float(): non-ASCII, the
# separators \x1c-\x1f, a "#" taken as a comment, an int read through float
@example(table=("query,ref", (int, int), b"query,ref\n0,1\xc7\xbe"))
@example(table=("query,ref", (int, int), b"query,ref\n0,1\x1c"))
@example(table=(None, float, b"0.5\x1f,1"))
@example(table=(None, float, b"0.5#x"))
@example(table=("query,ref", (int, int), b"query,ref\n0,2.5\n1,1e3"))
# Python-only syntax numpy rejects
@example(table=("frame,x,y", (int, float, float), "frame,x,y\n1_0,\u0663,2\n".encode()))
def test_read_table_matches_row_reader(tmp_path, table):
    header, kinds, blob = table
    path = tmp_path / "t.csv"
    path.write_bytes(blob)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = read_with(read_table, path, header, kinds)
    assert got == read_with(read_table_rows, path, header, kinds)
    if not isinstance(got, str):
        for column in read_table(path, header, kinds)[0]:
            assert column.flags.c_contiguous and column.flags.owndata


def checkpoint_bytes(variant: str) -> bytes:
    cfg = ModelConfig(variant=variant, descriptor_dim=3, num_places=4, tw=2, hidden_size=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.splm")
        save_checkpoint(build_model(cfg, seed=1), path)
        with open(path, "rb") as fh:
            return fh.read()


VALID_CKPTS = [checkpoint_bytes("spl"), checkpoint_bytes("baseline")]


def mutated(blob: bytes):
    """Overwrite, truncate or extend a valid checkpoint."""
    edit = st.tuples(st.integers(0, len(blob) - 1), st.binary(min_size=1, max_size=8))

    def apply(edits, cut, tail):
        out = bytearray(blob)
        for at, data in edits:
            out[at:at + len(data)] = data
        return bytes(out[:cut]) + tail

    return st.builds(apply, st.lists(edit, max_size=3), st.integers(0, len(blob)),
                     st.binary(max_size=8))


def checkpoint_head(version, tag, n, h, places, tw, numbers=(0.0,) * 5) -> bytes:
    """Magic, fields, then pose weight, mu and sigma."""
    return struct.pack("<4sIIIIII5d", CKPT_MAGIC, version, tag, n, h, places, tw, *numbers)


@st.composite
def checkpoint_blobs(draw):
    """A header of arbitrary fields and, for small shapes, often a payload
    of exactly the size those fields ask for."""
    version = draw(st.sampled_from([CKPT_VERSION, CKPT_VERSION, 2]))
    tag = draw(st.integers(0, 2))
    n, h, places, tw = (draw(DIM) for _ in range(4))
    head = checkpoint_head(version, tag, n, h, places, tw, [draw(st.floats()) for _ in range(5)])
    size = 4 * h * (n + 2 + h + 1) + places * (h + 1)
    if tag == 1:
        size += 4 * h * (n + 2 * h + 1)
    if size <= 4096 and draw(st.booleans()):
        body = draw(st.one_of(st.just(bytes(4 * size)),
                              st.binary(min_size=4 * size, max_size=4 * size)))
        return head + body + draw(st.binary(max_size=4))
    return head + draw(st.binary(max_size=200))


@FUZZ
@given(blob=st.one_of(st.binary(max_size=120), checkpoint_blobs(),
                      *(mutated(blob) for blob in VALID_CKPTS)))
@example(blob=checkpoint_head(CKPT_VERSION, 1, 3, 0, 4, 2))  # zero hidden size
# the first tensor's size, 4h(n + 2), overflows int64
@example(blob=checkpoint_head(CKPT_VERSION, 1, 2**32 - 1, 2**32 - 1, 1, 1) + bytes(64))
def test_checkpoint(tmp_path, blob):
    model = load_bytes(tmp_path, "m.splm", blob, load_checkpoint)
    if model is not None:
        assert isinstance(model, SplModel)
        assert all(np.isfinite(p).all() for p in model.params)
        assert np.isfinite(model.pose_sigma).all()
        assert (model.pose_sigma >= 0).all()


@pytest.mark.parametrize("blob", VALID_CKPTS, ids=["spl", "baseline"])
def test_valid_checkpoint_loads(tmp_path, blob):
    assert load_bytes(tmp_path, "m.splm", blob, load_checkpoint) is not None


def test_non_utf8_text_is_format_error(tmp_path):
    for name, loader in (("d.csv", load_descriptors), ("p.csv", load_poses),
                         ("gt.csv", load_ground_truth), ("s.csv", load_scores)):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe1,2\n")
        with pytest.raises(FormatError, match="not UTF-8"):
            loader(path)
