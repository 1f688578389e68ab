import re

import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given, settings, strategies as st

from conftest import tiny_config, traced_peak
from stepgate import container
from stepgate.errors import ContractError, FormatError
from stepgate.harness.checkpoint import (FORMAT_VERSION, MAGIC, Checkpoint,
                                         checkpoint_layout, load_checkpoint,
                                         save_checkpoint)
from stepgate.harness.models import build_bundle


@pytest.fixture()
def bundle_and_ckpt():
    cfg = tiny_config("e2e")
    bundle = build_bundle(cfg)
    return cfg, bundle, Checkpoint.from_bundle(cfg, bundle, step=5)


def test_from_bundle_copies_parameters(bundle_and_ckpt):
    cfg, bundle, ckpt = bundle_and_ckpt
    named = bundle.named_parameters()
    assert set(ckpt.params) == set(named)
    some = next(iter(named))
    ckpt.params[some][...] = 123.0      # a copy, not a view
    assert not np.any(named[some].data == 123.0)
    assert ckpt.step == 5
    assert ckpt.experiment_config() == cfg


def test_bundle_restores_values(bundle_and_ckpt):
    cfg, bundle, ckpt = bundle_and_ckpt
    # another seed draws other initial values; the stored ones must win
    fresh = ckpt.bundle(tiny_config("e2e", seed=9))
    assert list(fresh.named_parameters()) == list(ckpt.params)
    for name, tensor in fresh.named_parameters().items():
        nptest.assert_array_equal(tensor.data, ckpt.params[name])
        assert tensor.data is not ckpt.params[name]


def test_bundle_rejects_mismatched_configs(bundle_and_ckpt):
    _, _, ckpt = bundle_and_ckpt
    with pytest.raises(ContractError, match="do not line up"):
        ckpt.bundle(tiny_config("uniform"))


def test_bundle_rejects_mismatched_shapes(bundle_and_ckpt):
    _, _, ckpt = bundle_and_ckpt
    with pytest.raises(ContractError, match="shape"):
        ckpt.bundle(tiny_config("e2e", **{"model.gate_hidden": 8}))


# ---------------------------------------------------------------------------
# file format


def test_save_load_round_trip(tmp_path, bundle_and_ckpt):
    _, _, ckpt = bundle_and_ckpt
    path = tmp_path / "run.sgck"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.config == ckpt.config
    assert loaded.step == ckpt.step
    assert list(loaded.params) == list(ckpt.params)  # block order preserved
    for name in ckpt.params:
        nptest.assert_array_equal(loaded.params[name], ckpt.params[name])


def test_save_load_save_is_byte_identical(tmp_path, bundle_and_ckpt):
    _, _, ckpt = bundle_and_ckpt
    p1, p2 = tmp_path / "a.sgck", tmp_path / "b.sgck"
    save_checkpoint(p1, ckpt)
    save_checkpoint(p2, load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_format_errors(tmp_path, bundle_and_ckpt):
    _, _, ckpt = bundle_and_ckpt
    path = tmp_path / "x.sgck"
    save_checkpoint(path, ckpt)
    raw = path.read_bytes()

    cases = {
        "bad_magic": b"NOPE" + raw[4:],
        "bad_version": raw[:4] + b"\x63\x00\x00\x00" + raw[8:],
        "short": raw[:8],
        "truncated_header": raw[:20],
        "truncated_block": raw[:-4],
        "trailing": raw + b"\x00" * 8,
        "garbage_header": raw[:12] + b"\xff" * (len(raw) - 12),
    }
    for name, blob in cases.items():
        bad = tmp_path / f"{name}.sgck"
        bad.write_bytes(blob)
        with pytest.raises(FormatError):
            load_checkpoint(bad)


def test_version_1_files_are_rejected(tmp_path, bundle_and_ckpt):
    _, _, ckpt = bundle_and_ckpt
    path = tmp_path / "x.sgck"
    save_checkpoint(path, ckpt)
    raw = path.read_bytes()
    assert FORMAT_VERSION == 5
    # v1 stored Adam moments; v2 had flat enc_*/gate_* names; v3 stored the
    # model's spatial grid; v4 weights fed each row to the head before the pool
    for version in (1, 2, 3, 4):
        old = tmp_path / f"v{version}.sgck"
        old.write_bytes(raw[:4] + version.to_bytes(4, "little") + raw[8:])
        with pytest.raises(FormatError, match=f"unsupported checkpoint format version {version}"):
            load_checkpoint(old)


def _header_and_body(path):
    """A checkpoint's header as ``load_checkpoint`` reads it, and its body bytes."""
    header, blocks = container.read(path, MAGIC, FORMAT_VERSION, "checkpoint",
                                    checkpoint_layout)
    return header, path.read_bytes()[-sum(a.nbytes for a in blocks):]


@pytest.fixture()
def large_ckpt(tmp_path):
    """A checkpoint of about 6 MB of blocks, so a whole-file buffer shows."""
    rng = np.random.default_rng(0)
    params = {"a": rng.standard_normal((512, 1024)), "b": rng.standard_normal(256 * 1024)}
    path = tmp_path / "large.sgck"
    save_checkpoint(path, Checkpoint(config=tiny_config().to_dict(), step=1, params=params))
    return path, params


def test_a_load_peaks_at_the_blocks_it_returns(large_ckpt):
    path, params = large_ckpt
    blocks = sum(a.nbytes for a in params.values())
    assert traced_peak(load_checkpoint, path) <= 1.1 * blocks


def test_a_huge_shape_fails_before_the_body_is_allocated(tmp_path, large_ckpt):
    header, body = _header_and_body(large_ckpt[0])
    bad = tmp_path / "huge.sgck"
    container.write(bad, MAGIC, FORMAT_VERSION,
                    {**header, "entries": [["a", [1 << 40, 1 << 20]], header["entries"][1]]},
                    [body])

    def rejected():
        with pytest.raises(FormatError, match="implies"):
            load_checkpoint(bad)
    assert traced_peak(rejected) < 1 << 20


def test_corrupt_content_behind_a_valid_checksum_is_a_format_error(tmp_path, bundle_and_ckpt):
    _, _, ckpt = bundle_and_ckpt
    path = tmp_path / "x.sgck"
    save_checkpoint(path, ckpt)
    header, body = _header_and_body(path)
    first = header["entries"][0]
    cases = {
        "missing_step": ({k: v for k, v in header.items() if k != "step"}, body),
        "version_disagrees": ({**header, "format_version": 1}, body),
        "negative_shape": ({**header, "entries": [[first[0], [-1]]] + header["entries"][1:]}, body),
        "short_body": (header, body[:-8]),
        "long_body": (header, body + b"\x00" * 8),
        "not_an_object": ("SGCK", body),
    }
    # a -1 dimension made np.frombuffer hand "a" the whole body; "b" then
    # re-read the header's last 8 bytes as its first float, and the offsets
    # came out even
    n = len(body) // 8
    for name, dims in {"swallowing_dim": [-1], "float_dim": [float(n)],
                       "string_dim": [str(n)], "bool_dim": [True], "scalar_dims": n}.items():
        cases[name] = ({**header, "entries": [["a", dims], ["b", [n + 1]]]}, body)
    for name, (h, b) in cases.items():
        bad = tmp_path / f"{name}.sgck"
        container.write(bad, MAGIC, FORMAT_VERSION, h, [b])
        with pytest.raises(FormatError):
            load_checkpoint(bad)
    # a NaN or infinite weight is refused by file and parameter
    for name, value in {"nan": np.nan, "inf": np.inf, "minus_inf": -np.inf}.items():
        bad = tmp_path / f"{name}_weight.sgck"
        container.write(bad, MAGIC, FORMAT_VERSION, header,
                        [np.array([value], "<f8").tobytes() + body[8:]])
        with pytest.raises(FormatError, match=re.escape(f"{bad}: parameter {first[0]} ")):
            load_checkpoint(bad)


@pytest.fixture(scope="module")
def saved_ckpt(tmp_path_factory):
    cfg = tiny_config("uniform", **{"model.heavy_channels": 2})
    path = tmp_path_factory.mktemp("ckpt") / "run.sgck"
    save_checkpoint(path, Checkpoint.from_bundle(cfg, build_bundle(cfg), step=3))
    return path, load_checkpoint(path)


@settings(max_examples=150, deadline=None)
@given(cut=st.integers(min_value=0), pos=st.integers(min_value=0),
       xor=st.integers(min_value=1, max_value=255), truncate=st.booleans())
def test_any_truncation_or_byte_flip_loads_equal_or_raises_format_error(
        saved_ckpt, cut, pos, xor, truncate):
    path, original = saved_ckpt
    raw = path.read_bytes()
    if truncate:
        blob = raw[:cut % len(raw)]
    else:
        at = pos % len(raw)
        blob = raw[:at] + bytes([raw[at] ^ xor]) + raw[at + 1:]
    bad = path.with_name("fuzzed.sgck")
    bad.write_bytes(blob)
    try:
        loaded = load_checkpoint(bad)
    except FormatError:
        return
    assert loaded.config == original.config and loaded.step == original.step
    assert list(loaded.params) == list(original.params)
    for name in original.params:
        nptest.assert_array_equal(loaded.params[name], original.params[name])
