"""Hostile inputs: mutated GEBF/GEBW bytes and random JSON either load or
raise ValueError, and never allocate much more than the file holds.

The binary readers hand out float32 views into the file bytes, so every
length in a header must be checked against the bytes actually present
before anything is sized from it.
"""

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gebd.data import VideoFeatures, load_annotations, load_features, save_features
from gebd.model import GebdModel, ModelConfig, load_checkpoint, save_checkpoint
from gebd.postprocess import load_detections, load_scores

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])
GEBF_HEADER_FIELDS = 5  # version, T, stage count, two stage dims
GEBW_HEADER_FIELDS = 10  # version, stage count, two stage dims, six config fields


def memory_bound(size: int) -> int:
    # A loaded file's Python objects may take several times the bytes they
    # describe, plus a fixed interpreter overhead (the mutated files below
    # peak at about a third of this); a header that sized an allocation
    # from its own claims would blow far past it.
    return 16 * size + 64_000


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def gebf(work) -> bytes:
    rng = np.random.default_rng(0)
    path = work / "base.gebf"
    save_features(path, VideoFeatures("v", 5.0, [rng.standard_normal((6, d)) for d in (3, 2)]))
    return path.read_bytes()


@pytest.fixture(scope="module")
def gebw(work) -> bytes:
    cfg = ModelConfig(stage_dims=(2, 3), branch_count=2, decoder_blocks=1, d_out=2, d_head=2,
                      neighbor_radius=1)
    path = work / "base.gebw"
    save_checkpoint(path, GebdModel.build(cfg, seed=0))
    return path.read_bytes()


U32 = st.one_of(st.sampled_from([0, 1, 2, 2 ** 31, 2 ** 32 - 1]), st.integers(0, 2 ** 32 - 1))
MUTATIONS = st.fixed_dictionaries({
    "fields": st.lists(st.tuples(st.integers(0, 2 ** 16), U32), max_size=3),
    "flips": st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(0, 7)), max_size=3),
    "keep": st.none() | st.integers(0, 2 ** 16),
})


def mutate(base: bytes, header_fields: int, m: dict) -> bytes:
    """Overwrite header u32 fields other than the version, flip payload bits
    and/or truncate; positions are taken modulo what the file has."""
    raw = bytearray(base)
    for k, value in m["fields"]:
        offset = 8 + 4 * (k % (header_fields - 1))
        raw[offset:offset + 4] = struct.pack("<I", value)
    payload = 4 + 4 * header_fields
    for i, bit in m["flips"]:
        raw[payload + i % (len(raw) - payload)] ^= 1 << bit
    if m["keep"] is not None:
        raw = raw[:m["keep"] % (len(raw) + 1)]
    return bytes(raw)


def load_or_value_error(load, path) -> int:
    """Run load(path); return the tracemalloc peak. Only ValueError may escape."""
    tracemalloc.start()
    try:
        try:
            load(path)
        except ValueError:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@FUZZ
@given(m=MUTATIONS)
def test_mutated_feature_file_loads_or_value_error(work, gebf, m):
    raw = mutate(gebf, GEBF_HEADER_FIELDS, m)
    path = work / "fuzz.gebf"
    path.write_bytes(raw)
    peak = load_or_value_error(load_features, path)
    assert peak < memory_bound(len(raw)), (len(raw), peak)


@FUZZ
@given(m=MUTATIONS)
def test_mutated_checkpoint_loads_or_value_error(work, gebw, m):
    raw = mutate(gebw, GEBW_HEADER_FIELDS, m)
    path = work / "fuzz.gebw"
    path.write_bytes(raw)
    peak = load_or_value_error(load_checkpoint, path)
    assert peak < memory_bound(len(raw)), (len(raw), peak)


def test_fuzz_bases_load_and_a_non_finite_value_does_not(work, gebf, gebw):
    for base, load, name in ((gebf, load_features, "f.gebf"), (gebw, load_checkpoint, "w.gebw")):
        path = work / name
        path.write_bytes(base)
        load(path)
        raw = bytearray(base)
        raw[-4:] = struct.pack("<f", float("inf"))
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="non-finite"):
            load(path)


@pytest.mark.parametrize("flags", [8, 0xFFFFFFFF, 7 | 2 ** 31])
def test_unknown_checkpoint_flag_bits_rejected(work, gebw, flags):
    offset = 4 + 4 * (GEBW_HEADER_FIELDS - 1)  # the last header field
    raw = bytearray(gebw)
    assert struct.unpack_from("<I", raw, offset)[0] == 7
    raw[offset:offset + 4] = struct.pack("<I", flags)
    path = work / "flags.gebw"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"unknown bits {flags:#x} in flags at offset {offset}"):
        load_checkpoint(path)


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 30, 10 ** 30), st.sampled_from([10 ** 400, -10 ** 400]),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=5),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12,
)
NUMBERS = st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=4)
VALUES = st.one_of(JSON, NUMBERS, st.text(max_size=5))


def record(*keys):
    """Objects with a loader's own keys, so parsing gets past the lookup,
    each bound to a random and sometimes plausible value."""
    return st.fixed_dictionaries({k: VALUES for k in keys})


LOADERS = {
    "annotations": load_annotations,
    "detections": load_detections,
    "scores": load_scores,
}


def check_document(work, kind: str, doc) -> None:
    path = work / f"{kind}.json"
    text = json.dumps(doc)
    path.write_text(text, encoding="utf-8")
    peak = load_or_value_error(LOADERS[kind], path)
    assert peak < memory_bound(len(text)), (len(text), peak)


@FUZZ
@given(doc=st.one_of(JSON, st.lists(record("video_id", "duration", "fps", "boundaries"), max_size=3)))
def test_random_annotation_json_loads_or_value_error(work, doc):
    check_document(work, "annotations", doc)


@FUZZ
@given(doc=st.one_of(JSON, record("video_id", "timestamps")))
def test_random_detection_json_loads_or_value_error(work, doc):
    check_document(work, "detections", doc)


@FUZZ
@given(doc=st.one_of(JSON, record("video_id", "fps", "scores", "smoothed")))
def test_random_score_json_loads_or_value_error(work, doc):
    check_document(work, "scores", doc)


@pytest.mark.parametrize("raw", [b"[" * 100_000, b"1" * 5000, b"{", b"\xff\xfe[]"],
                         ids=["deep-nesting", "long-integer", "syntax", "bad-utf8"])
def test_unparseable_json_is_value_error(work, raw):
    path = work / "bad.json"
    path.write_bytes(raw)
    for load in LOADERS.values():
        with pytest.raises(ValueError, match="invalid JSON"):
            load(path)
