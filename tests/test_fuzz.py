"""Hostile inputs: mutated GEBF/GEBW bytes and random JSON either load or
raise ValueError, a random `key = value` config file resolves or raises a
ValueError naming one of its keys, and the binary
and JSON loaders never allocate much more than the file holds. Command
lines with hostile flag values exit 0 or exit 1 with `gebd: error:`.

The binary readers hand out float32 views into the file bytes, so every
length in a header must be checked against the bytes actually present
before anything is sized from it.
"""

import argparse
import contextlib
import io
import itertools
import json
import re
import struct
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gebd import cli
from gebd.boundaries import load_annotations, load_detections
from gebd.data import VideoFeatures, load_features, save_features
from gebd.model import GebdModel, ModelConfig, load_checkpoint, save_checkpoint
from gebd.postprocess import load_scores

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


def load_gebf(path):
    return load_features(path, fps=5.0)


@FUZZ
@given(m=MUTATIONS)
def test_mutated_feature_file_loads_or_value_error(work, gebf, m):
    raw = mutate(gebf, GEBF_HEADER_FIELDS, m)
    path = work / "fuzz.gebf"
    path.write_bytes(raw)
    peak = load_or_value_error(load_gebf, path)
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
    for base, load, name in ((gebf, load_gebf, "f.gebf"), (gebw, load_checkpoint, "w.gebw")):
        path = work / name
        path.write_bytes(base)
        load(path)
        raw = bytearray(base)
        raw[-4:] = struct.pack("<f", float("inf"))
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="non-finite"):
            load(path)


@pytest.mark.parametrize("value", [1e39, -1e39, np.inf, np.nan])
def test_writers_reject_values_not_finite_as_float32(work, value):
    # 1e39 is finite as float64 but overflows the float32 cast; a writer that
    # let it through would write a file its own reader rejects
    stages = [np.zeros((4, 3)), np.zeros((4, 2))]
    stages[1][2, 1] = value
    path = work / "bad.gebf"
    with pytest.raises(ValueError, match="block 1 holds values that are not finite as float32"):
        save_features(path, VideoFeatures("v", 5.0, stages))
    assert not path.exists()
    model = GebdModel.build(ModelConfig(stage_dims=(2, 3), branch_count=2, decoder_blocks=1,
                                        d_out=2, d_head=2, neighbor_radius=1), seed=0)
    weights = model.head.conv2.weights
    bad = np.array(weights.data)
    bad.flat[0] = value
    weights.update_data(bad)
    path = work / "bad.gebw"
    with pytest.raises(ValueError, match="not finite as float32"):
        save_checkpoint(path, model)
    assert not path.exists()


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


@pytest.mark.parametrize("flags", [6, 0])
def test_checkpoint_flags_without_bit_0_rejected(work, gebw, flags):
    # bit 0 marks the distance fusion, which every model has
    offset = 4 + 4 * (GEBW_HEADER_FIELDS - 1)
    raw = bytearray(gebw)
    raw[offset:offset + 4] = struct.pack("<I", flags)
    path = work / "flags.gebw"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=rf"bit 0 \(distance fusion\) clear in flags {flags:#x} at offset {offset}"):
        load_checkpoint(path)


@pytest.mark.parametrize("flags", [3, 1])
def test_checkpoint_flags_without_bit_2_rejected(work, gebw, flags):
    # bit 2 marks the depthwise fronts, which every model has
    offset = 4 + 4 * (GEBW_HEADER_FIELDS - 1)
    raw = bytearray(gebw)
    raw[offset:offset + 4] = struct.pack("<I", flags)
    path = work / "flags.gebw"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=rf"bit 2 \(depthwise fronts\) clear in flags {flags:#x} at offset {offset}"):
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


CONFIG_KEYS = st.one_of(st.sampled_from([f.name for f in fields(cli.RunConfig)]),
                        st.sampled_from(["", "frame", "FPS", "seed seed", "#seed"]), st.text(max_size=6))
CONFIG_VALUES = st.one_of(
    st.sampled_from(["", "nan", "-nan", "inf", "-inf", "0", "-0", "-1", "-2.5", "1e400", "0x10", "1_0",
                     str(2 ** 63), str(-2 ** 63 - 1), str(2 ** 64 + 1), "9" * 5000,
                     ",", ",,", "1,", ",2", "1,,2", "4,nan", "1, -1", "true", "off", "maybe"]),
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.floats().map(repr),
    st.text(max_size=8),
)
CONFIG_LINES = st.lists(
    st.one_of(st.tuples(CONFIG_KEYS, CONFIG_VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
              st.sampled_from(["", "# comment", "=", "no equals sign", "= 3"])),
    max_size=6,
)


@FUZZ
@given(lines=CONFIG_LINES, junk=st.one_of(st.none(), st.tuples(st.integers(0, 2 ** 16), st.binary(min_size=1, max_size=3))))
def test_random_config_file_resolves_or_value_error(work, lines, junk):
    # known and unknown keys, duplicates, hostile values, and sometimes raw
    # bytes (often not UTF-8) spliced in
    raw = "\n".join(lines).encode("utf-8", "surrogatepass")
    if junk is not None:
        at = junk[0] % (len(raw) + 1)
        raw = raw[:at] + junk[1] + raw[at:]
    path = work / "fuzz.cfg"
    path.write_bytes(raw)
    try:
        overrides = cli.load_config_file(path)
    except ValueError:
        return
    try:
        cfg = cli.resolve_config(argparse.Namespace(config=str(path)))
    except ValueError as e:
        # the defaults pass every check, so a value of the file broke a rule
        assert any(re.search(rf"\b{key}\b", str(e)) for key in overrides), (overrides, str(e))
        return
    assert isinstance(cfg, cli.RunConfig)
    for key, value in overrides.items():
        assert getattr(cfg, key) == value or value != value  # NaN is not equal to itself


# Flag values by RunConfig field type. Sizes stay small: the argv fuzz looks
# for values the CLI mishandles, not for requests that are merely big. The
# exceptions are the sizes the memory budget bounds, which also draw sizes
# far past physical memory, and the block counts: decoder_blocks and
# branch_count also draw 24 and 40, whose dilations (up to 2^40) reach past
# every 12-frame video of the corpus, so no buffer may be sized from a
# dilation. A large num_videos, epochs or batch_size would run for real.
# Every value parses: a list with an empty item is argparse's usage error
# (exit 2), which test_cli pins.
SMALL_INTS = ["-1", "0", "1", "2", "3", "12"]
HUGE_SIZES = ["1000000000000", str(2 ** 32)]
ARGV_VALUES = {
    "int": st.sampled_from(SMALL_INTS),
    "float": st.sampled_from(["nan", "1e308", "1e-320", "inf", "-inf", "0", "-0.0", "-1", "1e-5", "0.5",
                              "2", "5"]),
    "bool": st.sampled_from([None, True, False]),
    "tuple[int, ...]": st.sampled_from(["", "0", "-1", "3", "3,2", "2,3", "3,0", "12,12,12",
                                        *HUGE_SIZES, "3," + HUGE_SIZES[1]]),  # stage_dims
    "tuple[float, ...]": st.sampled_from(["", "nan", "inf", "-1", "0", "0.1,0.5", "0.5,1e308"]),
}
ARGV_VALUES["seed"] = st.sampled_from(["-1", "0", "7", str(2 ** 64)])
for name in ("frames", "d_out", "d_head"):
    ARGV_VALUES[name] = st.sampled_from(SMALL_INTS + HUGE_SIZES)
for name in ("branch_count", "decoder_blocks"):
    ARGV_VALUES[name] = st.sampled_from(SMALL_INTS + ["24", "40"])
FIELD_TYPES = {f.name: f.type for f in fields(cli.RunConfig)}


def config_actions(command: str) -> list[argparse.Action]:
    """The subcommand's options that set a RunConfig field."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[command]._actions if a.dest in FIELD_TYPES]


@st.composite
def hostile_flags(draw, command: str) -> list[str]:
    argv = []
    for action in draw(st.lists(st.sampled_from(config_actions(command)), max_size=4, unique=True)):
        value = draw(ARGV_VALUES.get(action.dest, ARGV_VALUES[FIELD_TYPES[action.dest]]))
        if isinstance(action, argparse.BooleanOptionalAction):
            if value is not None:
                argv.append(action.option_strings[0 if value else 1])
        else:
            argv.append(f"{action.option_strings[0]}={value}")  # "=": a value may start with "-"
    return argv


@pytest.fixture(scope="module")
def corpus(work):
    """A tiny synth -> train -> infer run whose outputs the fuzzed commands read."""
    data, run, scored = work / "argv-data", work / "argv-run", work / "argv-infer"
    ann = str(data / "annotations.json")
    assert cli.main(["synth", "--out", str(data), "--num-videos", "3", "--frames", "12", "--fps", "2",
                     "--stage-dims", "3,2", "--min-boundaries", "1", "--max-boundaries", "2"]) == 0
    assert cli.main(["train", "--features", str(data), "--annotations", ann, "--out", str(run),
                     "--epochs", "1", "--batch-size", "2", "--warmup-epochs", "0", "--d-out", "2",
                     "--d-head", "2", "--branch-count", "1", "--decoder-blocks", "1"]) == 0
    assert cli.main(["infer", "--checkpoint", str(run / "model.gebw"), "--features", str(data),
                     "--out", str(scored), "--fps", "2"]) == 0
    bases = {
        # the corpus's own settings come first: a drawn flag overrides them
        "synth": lambda out: ["--out", out, "--num-videos", "2", "--frames", "12", "--fps", "2",
                              "--stage-dims", "3,2"],
        "train": lambda out: ["--features", str(data), "--annotations", ann, "--out", out,
                              "--epochs", "1", "--batch-size", "2", "--warmup-epochs", "0", "--d-out", "2",
                              "--d-head", "2", "--branch-count", "1", "--decoder-blocks", "1"],
        "infer": lambda out: ["--checkpoint", str(run / "model.gebw"), "--features", str(data),
                              "--out", out, "--fps", "2"],
        "eval": lambda out: ["--detections", str(scored / "detections"), "--annotations", ann,
                             "--out", out + ".csv"],
    }
    return bases, itertools.count()


@pytest.mark.parametrize("command", ["synth", "train", "infer", "eval"])
@settings(max_examples=75, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_random_argv_exits_zero_or_clean_error(work, corpus, command, data):
    flags = data.draw(hostile_flags(command), label="flags")
    bases, runs = corpus
    out = str(work / f"argv-out{next(runs)}")
    stderr = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main([command, *bases[command](out), *flags])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 or (code == 1 and stderr.getvalue().startswith(cli.ERROR_PREFIX)), stderr.getvalue()
    assert peak < 64 * 2 ** 20, peak
