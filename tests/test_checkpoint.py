import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given, settings, strategies as st

from conftest import tiny_config
from stepgate import container
from stepgate.errors import ContractError, FormatError
from stepgate.harness.checkpoint import (FORMAT_VERSION, MAGIC, Checkpoint,
                                         load_checkpoint, save_checkpoint)
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


def test_apply_to_bundle_restores_values(bundle_and_ckpt):
    cfg, bundle, ckpt = bundle_and_ckpt
    fresh = build_bundle(tiny_config("e2e", seed=9))
    ckpt.apply_to_bundle(fresh)
    for name, tensor in fresh.named_parameters().items():
        nptest.assert_array_equal(tensor.data, ckpt.params[name])


def test_apply_rejects_mismatched_bundles(bundle_and_ckpt):
    _, _, ckpt = bundle_and_ckpt
    other = build_bundle(tiny_config("uniform"))
    with pytest.raises(ContractError, match="do not line up"):
        ckpt.apply_to_bundle(other)


def test_apply_rejects_mismatched_shapes(bundle_and_ckpt):
    _, _, ckpt = bundle_and_ckpt
    wider = build_bundle(tiny_config("e2e", **{"model.gate_hidden": 8}))
    with pytest.raises(ContractError, match="shape"):
        ckpt.apply_to_bundle(wider)


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
    assert FORMAT_VERSION == 4
    # v1 stored Adam moments; v2 had flat enc_*/gate_* names; v3 stored the
    # model's spatial grid
    for version in (1, 2, 3):
        old = tmp_path / f"v{version}.sgck"
        old.write_bytes(raw[:4] + version.to_bytes(4, "little") + raw[8:])
        with pytest.raises(FormatError, match=f"unsupported checkpoint format version {version}"):
            load_checkpoint(old)


def test_corrupt_content_behind_a_valid_checksum_is_a_format_error(tmp_path, bundle_and_ckpt):
    _, _, ckpt = bundle_and_ckpt
    path = tmp_path / "x.sgck"
    save_checkpoint(path, ckpt)
    raw, header, offset = container.read(path, MAGIC, FORMAT_VERSION, "checkpoint")
    body = raw[offset:].tobytes()
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
