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
from stepgate.harness.config import MODES
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


@pytest.mark.parametrize("mode", MODES)
def test_a_restore_creates_no_seeded_generator(mode, monkeypatch):
    """Restoring fills a bundle built without a draw: no generator is made,
    and the weights, gradients and dtypes are those of the stored bundle."""
    cfg = tiny_config(mode)
    bundle = build_bundle(cfg)
    ckpt = Checkpoint.from_bundle(cfg, bundle, step=1)

    def refused(*args, **kwargs):
        raise AssertionError("a restore made a seeded generator")

    monkeypatch.setattr(np.random, "default_rng", refused)
    restored = ckpt.bundle(cfg).named_parameters()
    assert list(restored) == list(bundle.named_parameters())
    for name, tensor in bundle.named_parameters().items():
        got = restored[name]
        assert got.data.dtype == tensor.data.dtype and got.data.tobytes() == tensor.data.tobytes()
        assert got.grad.dtype == tensor.grad.dtype and not got.grad.any()


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
    assert FORMAT_VERSION == 6
    # v1 stored Adam moments; v2 had flat enc_*/gate_* names; v3 stored the
    # model's spatial grid; v4 weights fed each row to the head before the
    # pool; v5 stored the float32 weights as <f8 blocks
    for version in (1, 2, 3, 4, 5):
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
    """A checkpoint of about 6 MB of float32 blocks, so a whole-file buffer
    shows."""
    rng = np.random.default_rng(0)
    params = {"a": rng.standard_normal((1024, 1024), np.float32),
              "b": rng.standard_normal(512 * 1024, np.float32)}
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
        "string_version": ({**header, "format_version": str(FORMAT_VERSION)}, body),
        "float_version": ({**header, "format_version": float(FORMAT_VERSION)}, body),
        "negative_step": ({**header, "step": -5}, body),
        # one block more than the names: a repeated name dropped a block
        "repeated_name": ({**header, "entries": header["entries"] + [first]},
                          body + body[:4 * np.prod(first[1], dtype=int)]),
        "negative_shape": ({**header, "entries": [[first[0], [-1]]] + header["entries"][1:]}, body),
        "short_body": (header, body[:-8]),
        "long_body": (header, body + b"\x00" * 8),
        "not_an_object": ("SGCK", body),
    }
    # a -1 dimension made np.frombuffer hand "a" the whole body; "b" then
    # re-read the header's last bytes as its first value, and the offsets
    # came out even
    n = len(body) // 4
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
                        [np.array([value], "<f4").tobytes() + body[4:]])
        with pytest.raises(FormatError, match=re.escape(f"{bad}: parameter {first[0]} ")):
            load_checkpoint(bad)


@pytest.mark.parametrize("value", [3.5e38, -1e39, 1e308])
def test_a_weight_past_float32_is_refused(tmp_path, bundle_and_ckpt, value):
    """A finite weight that its float32 block would store as an infinity,
    as a checkpoint of float64 weights may hold, is refused by name before
    a file is written; the largest value that rounds to a finite float32
    saves and loads as float32's largest."""
    ckpt = bundle_and_ckpt[2]
    first = next(iter(ckpt.params))
    wide = ckpt.params[first].astype(np.float64)
    wide.flat[0] = value
    params = {**ckpt.params, first: wide}
    bad = tmp_path / "big.sgck"
    with pytest.raises(ValueError, match=re.escape(f"parameter {first} ")):
        save_checkpoint(bad, Checkpoint(config=ckpt.config, step=ckpt.step, params=params))
    assert not bad.exists()
    wide.flat[0] = np.nextafter(2.0 ** 128 - 2.0 ** 103, 0.0) * np.sign(value)
    save_checkpoint(bad, Checkpoint(config=ckpt.config, step=ckpt.step, params=params))
    loaded = load_checkpoint(bad).params[first]
    assert loaded.flat[0] == np.finfo(np.float32).max * np.sign(value)
    nptest.assert_array_equal(loaded.flat[1:], ckpt.params[first].flat[1:])


@pytest.fixture(scope="module")
def saved_ckpt(tmp_path_factory):
    cfg = tiny_config("uniform", **{"model.heavy_channels": 2})
    path = tmp_path_factory.mktemp("ckpt") / "run.sgck"
    save_checkpoint(path, Checkpoint.from_bundle(cfg, build_bundle(cfg), step=3))
    return path, load_checkpoint(path)


@pytest.mark.parametrize("step", [3.7, 3.0, True, "3"])
def test_a_step_that_is_not_an_int_is_refused(saved_ckpt, tmp_path, step):
    """A step no writer produces is refused behind a valid checksum, not
    rounded: 3.7 would load as step 3 through ``int()``."""
    header, body = _header_and_body(saved_ckpt[0])
    bad = tmp_path / "step.sgck"
    container.write(bad, MAGIC, FORMAT_VERSION, {**header, "step": step}, [body])
    with pytest.raises(FormatError, match=f"step {step!r} is not an int"):
        load_checkpoint(bad)


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
