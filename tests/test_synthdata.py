import warnings

import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given, settings, strategies as st

import stepgate.synthdata as sd
from conftest import traced_peak
from stepgate import container
from stepgate.errors import DomainError, FormatError, GenerationError


def slot_means(video, spec):
    """Per-timestep mean of the slot's frames, shape (T, d_raw)."""
    return video.frames.mean(axis=1)


def label_of(video):
    """The class of a single-label video, read off its one-hot row."""
    (c,) = np.flatnonzero(video.labels)
    return int(c)


def decode_prototypes(video, prototypes, spec):
    """Nearest-prototype id per timestep from slot means."""
    means = slot_means(video, spec)
    d2 = ((means[:, None, :] - prototypes[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1).astype(np.int64)


# builder arguments: DatasetConfig's default dataset, and a smaller paired one
ANCHORED = dict(n_classes=10, n_shared=6, n_background=8, d_raw=32, timesteps=32,
                frames_per_slot=16, noise_sigma=0.3, relevant_fraction=0.3,
                confuser_share=0.35, task="single_label")
PAIRED = dict(n_classes=6, n_shared=4, n_background=4, d_raw=16, timesteps=16,
              frames_per_slot=8, noise_sigma=0.3, relevant_fraction=0.3,
              confuser_share=0.35, task="single_label")


@pytest.fixture(scope="module")
def spec():
    return sd.ActivitySpec.default(**ANCHORED)


@pytest.fixture(scope="module")
def dataset(spec):
    return sd.generate_dataset(spec, n_train=60, n_test=40, seed=7)


@pytest.fixture(scope="module")
def large(spec):
    """A split whose float32 frames body (80 videos, 5.2 MB) exceeds 4 MiB."""
    return sd.generate_dataset(spec, n_train=1, n_test=80, seed=7)


# ---------------------------------------------------------------------------
# spec construction


def test_default_spec_structure(spec):
    assert spec.n_classes == 10
    assert spec.n_prototypes == 24
    assert len(spec.shared_prototypes) == 6
    assert len(spec.background_prototypes) == 8
    assert len(set(spec.class_recipes)) == 10
    for c, recipe in enumerate(spec.class_recipes):
        assert c in recipe                      # the class-unique prototype
        assert len(recipe & spec.shared_prototypes) == 2
    for s in spec.shared_prototypes:
        assert sum(1 for r in spec.class_recipes if s in r) >= 2
    for b in spec.background_prototypes:
        assert not any(b in r for r in spec.class_recipes)


def test_relevant_counts_spread_but_bounded(spec):
    base = round(spec.relevant_fraction * spec.timesteps)
    counts = [spec.relevant_count(c) for c in range(spec.n_classes)]
    assert all(abs(n - base) <= 2 for n in counts)
    assert counts[-1] > counts[0]  # the tilt creates per-class ratio variance
    with pytest.raises(DomainError):
        spec.relevant_count(10)


def test_spec_validation_errors():
    good = sd.ActivitySpec.default(**ANCHORED)
    with pytest.raises(DomainError):
        sd.ActivitySpec.default(**{**ANCHORED, "n_classes": 1})
    with pytest.raises(DomainError):
        sd.ActivitySpec.default(**{**ANCHORED, "relevant_fraction": 0.0})
    with pytest.raises(DomainError):  # duplicate recipes
        sd.ActivitySpec(**{**_spec_kwargs(good),
                           "class_recipes": (good.class_recipes[0],) * good.n_classes})
    with pytest.raises(DomainError):  # a shared prototype used only once
        sd.ActivitySpec(**{**_spec_kwargs(good),
                           "shared_prototypes": good.shared_prototypes | {23}})
    with pytest.raises(DomainError):  # background prototype inside a recipe
        sd.ActivitySpec(**{**_spec_kwargs(good),
                           "background_prototypes": good.background_prototypes | {0}})
    with pytest.raises(DomainError):  # no background prototype to fill with
        sd.ActivitySpec(**{**_spec_kwargs(good), "background_prototypes": frozenset()})


def _spec_kwargs(s):
    return dict(
        n_classes=s.n_classes, n_prototypes=s.n_prototypes, d_raw=s.d_raw,
        timesteps=s.timesteps, frames_per_slot=s.frames_per_slot,
        noise_sigma=s.noise_sigma, relevant_fraction=s.relevant_fraction,
        confuser_share=s.confuser_share, task=s.task,
        class_recipes=s.class_recipes, shared_prototypes=s.shared_prototypes,
        background_prototypes=s.background_prototypes, placement=s.placement,
    )


# ---------------------------------------------------------------------------
# generation


def test_generation_is_deterministic(spec):
    a = sd.generate_dataset(spec, 12, 6, seed=3)
    b = sd.generate_dataset(spec, 12, 6, seed=3)
    nptest.assert_array_equal(a.prototypes, b.prototypes)
    for va, vb in zip(a.train + a.test, b.train + b.test):
        nptest.assert_array_equal(va.frames, vb.frames)
        nptest.assert_array_equal(va.relevance, vb.relevance)
        nptest.assert_array_equal(va.planted, vb.planted)
        nptest.assert_array_equal(va.labels, vb.labels)
    c = sd.generate_dataset(spec, 12, 6, seed=4)
    assert not np.array_equal(a.prototypes, c.prototypes)


class _NoiseTap:
    """A stand-in for a ``np.random.Generator`` that keeps the bit generator's
    state before each ``standard_normal`` call, so a test can draw the same
    values again on its own."""

    def __init__(self, rng, states):
        self._rng, self._states = rng, states

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_normal(self, *args, **kwargs):
        self._states.append(self._rng.bit_generator.state)
        return self._rng.standard_normal(*args, **kwargs)


def test_frames_are_the_float64_formula_rounded_to_float32(spec, monkeypatch):
    """Each video's noise is the float64 draw of its own stream, scaled and
    shifted by its prototypes in float64; only the sum is stored, rounded to
    float32."""
    states = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _NoiseTap(real(seed), states))
    data = sd.generate_dataset(spec, 5, 3, seed=3)
    monkeypatch.undo()
    _, *video_states = states  # the prototypes are drawn first
    assert len(video_states) == 8
    for v, state in zip(data.train + data.test, video_states):
        rng = np.random.default_rng()
        rng.bit_generator.state = state
        noise = rng.standard_normal(v.frames.shape)
        want = noise * spec.noise_sigma + data.prototypes[v.planted][:, None, :]
        assert v.frames.dtype == np.float32
        nptest.assert_array_equal(v.frames, want.astype(np.float32))


@pytest.mark.parametrize("sigma", [1e39, 1e308])
def test_a_frame_past_float32_is_a_generation_error(spec, sigma):
    """At 1e39 only the float32 store overflows, at 1e308 the float64
    arithmetic too; either is refused without a numpy warning."""
    loud = sd.ActivitySpec(**{**_spec_kwargs(spec), "noise_sigma": sigma})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GenerationError, match="does not fit float32"):
            sd.generate_dataset(loud, 2, 1, seed=0)


def test_labels_are_balanced(dataset, spec):
    for videos, n in ((dataset.train, 60), (dataset.test, 40)):
        counts = np.bincount([label_of(v) for v in videos], minlength=spec.n_classes)
        assert counts.min() >= n // spec.n_classes  # round-robin: within one
        assert counts.max() <= n // spec.n_classes + 1


def test_relevance_cardinality_within_two_of_target(dataset, spec):
    base = round(spec.relevant_fraction * spec.timesteps)
    for v in dataset.train + dataset.test:
        assert abs(int(v.relevance.sum()) - base) <= 2


def test_planted_ids_match_stored_relevance(dataset, spec):
    for v in dataset.train:
        recipe = spec.class_recipes[label_of(v)]
        nptest.assert_array_equal(v.relevance,
                                  np.asarray([p in recipe for p in v.planted]))


def test_filler_is_background_or_foreign_shared(dataset, spec):
    for v in dataset.train:
        recipe = spec.class_recipes[label_of(v)]
        for p in v.planted[~v.relevance]:
            assert int(p) in spec.background_prototypes or (
                int(p) in spec.shared_prototypes and int(p) not in recipe)


def test_middle_placement_stays_in_center_window(dataset, spec):
    t = spec.timesteps
    lo, hi = t // 4, t - t // 4
    saw_outside_for_spread = False
    for v in dataset.train + dataset.test:
        pos = np.flatnonzero(v.relevance)
        if spec.placement[label_of(v)] == "middle":
            assert pos.min() >= lo and pos.max() < hi
        else:
            saw_outside_for_spread |= bool((pos < lo).any() or (pos >= hi).any())
    assert saw_outside_for_spread


def test_noiseless_decoding_recovers_planted_prototypes(spec):
    quiet = sd.ActivitySpec(**{**_spec_kwargs(spec), "noise_sigma": 0.0})
    data = sd.generate_dataset(quiet, 6, 3, seed=11)
    for v in data.train + data.test:
        nptest.assert_array_equal(decode_prototypes(v, data.prototypes, quiet), v.planted)


def test_noisy_decoding_still_recovers(dataset, spec):
    # sigma 0.3 over 16-frame slots leaves prototypes cleanly separable
    for v in dataset.test[:10]:
        nptest.assert_array_equal(decode_prototypes(v, dataset.prototypes, spec), v.planted)


def test_infeasible_placement_is_generation_error(spec):
    crowded = sd.ActivitySpec(**{**_spec_kwargs(spec), "relevant_fraction": 1.0})
    with pytest.raises(GenerationError):
        sd.generate_dataset(crowded, 12, 2, seed=0)


# ---------------------------------------------------------------------------
# relevance oracle and context dependence


def test_oracle_matches_stored_mask_for_own_label(dataset, spec):
    for v in dataset.train[:20]:
        nptest.assert_array_equal(sd.relevance_oracle(v.planted, [label_of(v)], spec),
                                  v.relevance)
    for bad in (spec.n_classes, -1):
        with pytest.raises(DomainError):
            sd.relevance_oracle(dataset.train[0].planted, [0, bad], spec)


@pytest.mark.parametrize("task", ["single_label", "multi_label"])
def test_oracle_of_the_positive_classes_is_the_stored_mask(spec, task):
    """Generation stores the oracle's mask of a video's positive classes; a
    multi-label video's is the union over its classes."""
    data = sd.generate_dataset(sd.ActivitySpec(**{**_spec_kwargs(spec), "task": task}),
                               30, 10, seed=5)
    for v in data.train + data.test:
        nptest.assert_array_equal(
            sd.relevance_oracle(v.planted, np.flatnonzero(v.labels), data.spec), v.relevance)
    assert task == "single_label" or max(v.labels.sum() for v in data.train) > 1


def test_background_timesteps_relevant_to_no_class(dataset, spec):
    v = dataset.train[0]
    bg = np.asarray([int(p) in spec.background_prototypes for p in v.planted])
    assert bg.any()
    for c in range(spec.n_classes):
        assert not (sd.relevance_oracle(v.planted, [c], spec) & bg).any()


def test_shared_prototype_relevant_to_one_class_not_another(dataset, spec):
    hits = 0
    for v in dataset.train:
        for pos in np.flatnonzero(~v.relevance):
            p = int(v.planted[pos])
            if p not in spec.shared_prototypes:
                continue
            owners = [c for c in range(spec.n_classes) if p in spec.class_recipes[c]]
            assert label_of(v) not in owners
            assert sd.relevance_oracle(v.planted, [owners[0]], spec)[pos]
            assert not sd.relevance_oracle(v.planted, [label_of(v)], spec)[pos]
            hits += 1
    assert hits > 0, "expected shared-prototype confusers in a default dataset"


def test_identical_timestep_vector_with_opposite_relevance(dataset, spec):
    """The witness pair: after injecting one video's slot into another, the
    two videos share a byte-identical timestep whose relevance differs."""
    donor = receiver = None
    for v in dataset.train:
        rel_shared = [p for p in np.flatnonzero(v.relevance)
                      if int(v.planted[p]) in spec.shared_prototypes]
        if rel_shared:
            donor, d_pos, proto = v, int(rel_shared[0]), int(v.planted[rel_shared[0]])
            break
    for v in dataset.train:
        bad = [p for p in np.flatnonzero(~v.relevance) if int(v.planted[p]) == proto]
        if bad:
            receiver, r_pos = v, int(bad[0])
            break
    assert donor is not None and receiver is not None
    receiver = sd.VideoSample(frames=receiver.frames.copy(), labels=receiver.labels,
                              relevance=receiver.relevance, planted=receiver.planted)
    receiver.frames[r_pos] = donor.frames[d_pos]
    nptest.assert_array_equal(receiver.frames[r_pos], donor.frames[d_pos])
    assert donor.relevance[d_pos] and not receiver.relevance[r_pos]


# ---------------------------------------------------------------------------
# paired recipes


def test_paired_spec_structure():
    spec = sd.ActivitySpec.paired(**PAIRED)
    assert spec.n_classes == 6
    assert len(spec.shared_prototypes) == 4
    recipes = set()
    for recipe in spec.class_recipes:
        assert len(recipe) == 2
        assert recipe <= spec.shared_prototypes  # no class-unique prototype
        recipes.add(recipe)
    assert len(recipes) == spec.n_classes
    for s in spec.shared_prototypes:
        assert sum(1 for r in spec.class_recipes if s in r) >= 2


def test_paired_spec_rejects_too_many_classes():
    with pytest.raises(DomainError):  # only C(4, 2) = 6 distinct pairs exist
        sd.ActivitySpec.paired(**{**PAIRED, "n_classes": 7, "n_shared": 4})


def test_paired_videos_plant_both_members():
    spec = sd.ActivitySpec.paired(**PAIRED)
    data = sd.generate_dataset(spec, 12, 6, seed=21)
    for v in data.train + data.test:
        planted_rel = set(int(p) for p in v.planted[v.relevance])
        assert planted_rel == set(spec.class_recipes[label_of(v)])


# ---------------------------------------------------------------------------
# multi-label mode


def test_multi_label_videos(spec):
    ml = sd.ActivitySpec(**{**_spec_kwargs(spec), "task": "multi_label"})
    data = sd.generate_dataset(ml, 30, 10, seed=5)
    saw_multi = False
    for v in data.train:
        vec = np.asarray(v.labels)
        assert vec.shape == (ml.n_classes,)
        k = int(vec.sum())
        assert 1 <= k <= 3
        saw_multi |= k > 1
        union = frozenset().union(*(ml.class_recipes[c] for c in np.flatnonzero(v.labels)))
        nptest.assert_array_equal(v.relevance,
                                  np.asarray([int(p) in union for p in v.planted]))
    assert saw_multi


# ---------------------------------------------------------------------------
# the selection-helps oracle experiment


def _one_hot_lstsq_accuracy(train_x, train_y, test_x, test_y, n_classes):
    onehot = np.eye(n_classes)[train_y]
    x = np.hstack([train_x, np.ones((len(train_x), 1))])
    w, *_ = np.linalg.lstsq(x, onehot, rcond=None)
    pred = (np.hstack([test_x, np.ones((len(test_x), 1))]) @ w).argmax(axis=1)
    return float((pred == test_y).mean())


def test_relevant_only_pooling_beats_all_pooling(spec):
    # at the default noise both pools are linearly separable; the contrast
    # needs a noise level where filler actually hurts (gap ~20 points there)
    noisy = sd.ActivitySpec(**{**_spec_kwargs(spec), "noise_sigma": 3.0})
    data = sd.generate_dataset(noisy, 80, 120, seed=13)

    def pools(videos):
        all_pool, rel_pool, ys = [], [], []
        for v in videos:
            means = slot_means(v, noisy)
            all_pool.append(means.mean(axis=0))
            rel_pool.append(means[v.relevance].mean(axis=0))
            ys.append(label_of(v))
        return np.asarray(all_pool), np.asarray(rel_pool), np.asarray(ys)

    tr_all, tr_rel, tr_y = pools(data.train)
    te_all, te_rel, te_y = pools(data.test)
    acc_all = _one_hot_lstsq_accuracy(tr_all, tr_y, te_all, te_y, spec.n_classes)
    acc_rel = _one_hot_lstsq_accuracy(tr_rel, tr_y, te_rel, te_y, spec.n_classes)
    assert acc_rel > acc_all


# ---------------------------------------------------------------------------
# serialization


def test_round_trip_preserves_everything(tmp_path, dataset, spec):
    path = tmp_path / "train.sgds"
    sd.save_split(path, dataset, "train")
    spec2, prototypes, videos, meta = sd.load_split(path)
    assert spec2 == spec
    assert meta["n_videos"] == len(dataset.train)
    assert meta["seed"] == dataset.seed
    nptest.assert_array_equal(prototypes, dataset.prototypes)
    for v, w in zip(dataset.train, videos):
        nptest.assert_array_equal(v.frames, w.frames)
        nptest.assert_array_equal(v.relevance, w.relevance)
        nptest.assert_array_equal(v.planted, w.planted)
        nptest.assert_array_equal(v.labels, w.labels)


def _one_frame_array(videos, spec):
    """Every video's frames are a writable row of one aligned, C-contiguous
    (n_videos, T, frames_per_slot, d_raw) float32 array of slots."""
    base = videos[0].frames.base
    assert base.shape == (len(videos), spec.timesteps, spec.frames_per_slot, spec.d_raw)
    assert base.dtype == np.float32 and base.flags.c_contiguous and base.flags.aligned
    for k, v in enumerate(videos):
        assert v.frames.base is base
        assert np.shares_memory(v.frames, base[k]) and v.frames.shape == base[k].shape
        assert v.frames.flags.writeable and v.frames.flags.aligned


def test_each_split_keeps_its_frames_in_one_array(tmp_path, dataset, spec):
    _one_frame_array(dataset.train, spec)
    _one_frame_array(dataset.test, spec)
    path = tmp_path / "test.sgds"
    sd.save_split(path, dataset, "test")
    _one_frame_array(sd.load_split(path)[2], spec)


def test_round_trip_is_byte_identical(tmp_path, dataset):
    p1, p2 = tmp_path / "a.sgds", tmp_path / "b.sgds"
    sd.save_split(p1, dataset, "test")
    spec2, prototypes, videos, meta = sd.load_split(p1)
    again = sd.Dataset(spec=spec2, prototypes=prototypes, train=[], test=videos,
                       seed=meta["seed"])
    sd.save_split(p2, again, "test")
    assert p1.read_bytes() == p2.read_bytes()


def test_multi_label_round_trip(tmp_path, spec):
    ml = sd.ActivitySpec(**{**_spec_kwargs(spec), "task": "multi_label"})
    data = sd.generate_dataset(ml, 8, 4, seed=9)
    path = tmp_path / "ml.sgds"
    sd.save_split(path, data, "train")
    _, _, videos, _ = sd.load_split(path)
    for v, w in zip(data.train, videos):
        nptest.assert_array_equal(np.asarray(v.labels), np.asarray(w.labels))


def test_format_errors(tmp_path, dataset):
    path = tmp_path / "x.sgds"
    sd.save_split(path, dataset, "test")
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.sgds"
    bad_magic.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(FormatError):
        sd.load_split(bad_magic)

    bad_version = tmp_path / "bad_version.sgds"
    bad_version.write_bytes(raw[:4] + b"\x63\x00\x00\x00" + raw[8:])
    with pytest.raises(FormatError):
        sd.load_split(bad_version)

    trailing = tmp_path / "trailing.sgds"
    trailing.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(FormatError):
        sd.load_split(trailing)

    with pytest.raises(DomainError):
        sd.save_split(tmp_path / "y.sgds", dataset, "validation")


def test_version_1_files_are_rejected(tmp_path, dataset):
    path = tmp_path / "x.sgds"
    sd.save_split(path, dataset, "test")
    raw = path.read_bytes()
    assert sd.FORMAT_VERSION == 4
    # v1 had no slot layout; v2 interleaved each video's label, mask, ids
    # and frames; v3 stored the frames as f8
    for version in (1, 2, 3):
        old = tmp_path / f"v{version}.sgds"
        old.write_bytes(raw[:4] + version.to_bytes(4, "little") + raw[8:])
        with pytest.raises(FormatError, match=f"unsupported dataset format version {version}"):
            sd.load_split(old)


def _header_and_body(path):
    """A split file's header as ``load_split`` reads it, and its body bytes."""
    header, arrays = container.read(path, sd.MAGIC, sd.FORMAT_VERSION, "dataset",
                                    sd.split_layout)
    return header, path.read_bytes()[-sum(a.nbytes for a in arrays):]


def _fields(prototypes, videos):
    """A split's body fields, built with numpy alone: prototypes, labels,
    relevance, planted ids and frames, in file order."""
    return [np.asarray(prototypes, dtype="<f8"),
            np.stack([v.labels for v in videos]).astype("<f8"),
            np.stack([v.relevance for v in videos]).astype("u1"),
            np.stack([v.planted for v in videos]).astype("<i8"),
            np.stack([v.frames for v in videos]).astype("<f4")]


def test_the_body_is_one_block_per_field(tmp_path, dataset):
    """Version 4's body is prototypes | labels | relevance | planted |
    frames, each field whole, every video's row in turn, the frames as f4."""
    path = tmp_path / "test.sgds"
    sd.save_split(path, dataset, "test")
    want = b"".join(a.tobytes() for a in _fields(dataset.prototypes, dataset.test))
    assert _header_and_body(path)[1] == want


def test_a_load_peaks_at_the_frames_it_returns(tmp_path, large):
    """The body lands in its final arrays: no whole-file buffer, no second
    copy of the frames."""
    path = tmp_path / "test.sgds"
    sd.save_split(path, large, "test")
    frames = sum(v.frames.nbytes for v in large.test)
    assert frames > 4 << 20
    assert traced_peak(sd.load_split, path) <= 1.1 * frames


def test_corrupt_content_behind_a_valid_checksum_is_a_format_error(tmp_path, large):
    """Files whose checksum holds but whose header or body do not fit the
    layout still fail as FormatError, never as a parser's own exception,
    and before anything the size of the body is allocated; a body that fits
    but holds content no generated split holds (a label row that is not
    one-hot, a relevance byte or planted id out of range, a frame value that
    is NaN or infinite) fails once read, naming the file."""
    path = tmp_path / "x.sgds"
    sd.save_split(path, large, "test")
    header, body = _header_and_body(path)
    assert len(body) > 4 << 20

    def rejected(bad):
        with pytest.raises(FormatError):
            sd.load_split(bad)
    cases = {
        "missing_key": ({k: v for k, v in header.items() if k != "d_raw"}, body),
        "missing_seed": ({k: v for k, v in header.items() if k != "seed"}, body),
        "bad_spec": ({**header, "confuser_share": 5.0}, body),
        "nan_noise": ({**header, "noise_sigma": float("nan")}, body),
        "infinite_seed": ({**header, "seed": float("inf")}, body),
        "wrong_type": ({**header, "n_videos": "many"}, body),
        "short_body": (header, body[:397]),
        "cut_label": ({**header, "n_videos": header["n_videos"] + 1}, body + b"\x00" * 4),
        "huge_count": ({**header, "n_videos": 10 ** 12}, body),
        "long_body": (header, body + b"\x00"),
        "not_an_object": ([1, 2], body),
    }
    for name, (h, b) in cases.items():
        bad = tmp_path / f"{name}.sgds"
        container.write(bad, sd.MAGIC, sd.FORMAT_VERSION, h, [b])
        assert traced_peak(rejected, bad) < 1 << 20, name

    # a well-formed body whose labels, masks or ids no generated split holds:
    # (field, index, value, message)
    one_hot = np.eye(10)[0]
    content = {
        "label_half": (1, 1, 0.5, "not 0/1"),
        "label_99": (1, 0, 99 * one_hot, "not 0/1"),
        "nan_label": (1, 0, np.nan, "not 0/1"),
        "no_positive": (1, 3, 0.0, "no positive"),
        "two_positives": (1, 3, one_hot + np.eye(10)[4], "more than one"),
        "relevance_2": (2, (2, 5), 2, "relevance byte"),
        "negative_id": (3, (2, 5), -1, "planted prototype id"),
        "id_past_the_prototypes": (3, (2, 5), len(large.prototypes), "planted prototype id"),
        "nan_frame": (4, (0, 0, 0, 0), np.nan, "frame value is not finite"),
        "inf_frame": (4, (3, 7, 1, 5), np.inf, "frame value is not finite"),
        "minus_inf_frame": (4, (5, 31, 1, 31), -np.inf, "frame value is not finite"),
    }
    for name, (field, at, value, message) in content.items():
        fields = _fields(large.prototypes, large.test)
        fields[field][at] = value
        bad = tmp_path / f"{name}.sgds"
        container.write(bad, sd.MAGIC, sd.FORMAT_VERSION, header, fields)
        with pytest.raises(FormatError, match=message) as exc:
            sd.load_split(bad)
        assert str(exc.value).startswith(f"{bad}: "), name


@pytest.fixture(scope="module")
def small_split(tmp_path_factory):
    spec = sd.ActivitySpec.default(**{**ANCHORED, "n_classes": 3, "n_shared": 2,
                                      "n_background": 2, "d_raw": 4, "timesteps": 6,
                                      "frames_per_slot": 2})
    data = sd.generate_dataset(spec, n_train=2, n_test=3, seed=5)
    path = tmp_path_factory.mktemp("split") / "test.sgds"
    sd.save_split(path, data, "test")
    return path, sd.load_split(path)


def test_the_header_is_pinned(small_split, tmp_path):
    """The header bytes are the format: a field renamed or a set left
    unsorted must fail here, not only in a round trip through this code."""
    path, _ = small_split
    assert _header_and_body(path)[0] == {
        "format_version": 4, "n_videos": 3, "seed": 5, "split": "test",
        "task": "single_label", "n_classes": 3, "n_prototypes": 7, "d_raw": 4,
        "timesteps": 6, "frames_per_slot": 2, "noise_sigma": 0.3,
        "relevant_fraction": 0.3, "confuser_share": 0.35,
        "class_recipes": [[0, 3, 4], [1, 3, 4], [2, 3, 4]],
        "shared_prototypes": [3, 4], "background_prototypes": [5, 6],
        "placement": ["middle", "spread", "middle"],
    }
    spec = sd.ActivitySpec.paired(
        n_classes=3, n_shared=3, n_background=1, d_raw=3, timesteps=5, frames_per_slot=2,
        noise_sigma=0.25, relevant_fraction=0.4, confuser_share=0.5, task="multi_label")
    paired = tmp_path / "train.sgds"
    sd.save_split(paired, sd.generate_dataset(spec, 2, 3, seed=11), "train")
    assert _header_and_body(paired)[0] == {
        "format_version": 4, "n_videos": 2, "seed": 11, "split": "train",
        "task": "multi_label", "n_classes": 3, "n_prototypes": 4, "d_raw": 3,
        "timesteps": 5, "frames_per_slot": 2, "noise_sigma": 0.25,
        "relevant_fraction": 0.4, "confuser_share": 0.5,
        "class_recipes": [[0, 1], [0, 2], [1, 2]],
        "shared_prototypes": [0, 1, 2], "background_prototypes": [3],
        "placement": ["middle", "spread", "middle"],
    }


def _same_split(a, b):
    spec_a, protos_a, videos_a, meta_a = a
    spec_b, protos_b, videos_b, meta_b = b
    assert spec_a == spec_b and meta_a == meta_b
    nptest.assert_array_equal(protos_a, protos_b)
    assert len(videos_a) == len(videos_b)
    for v, w in zip(videos_a, videos_b):
        for field in ("frames", "labels", "relevance", "planted"):
            nptest.assert_array_equal(getattr(v, field), getattr(w, field))


@settings(max_examples=150, deadline=None)
@given(cut=st.integers(min_value=0), pos=st.integers(min_value=0),
       xor=st.integers(min_value=1, max_value=255), truncate=st.booleans())
def test_any_truncation_or_byte_flip_loads_equal_or_raises_format_error(
        small_split, cut, pos, xor, truncate):
    path, original = small_split
    raw = path.read_bytes()
    if truncate:
        blob = raw[:cut % len(raw)]
    else:
        at = pos % len(raw)
        blob = raw[:at] + bytes([raw[at] ^ xor]) + raw[at + 1:]
    bad = path.with_name("fuzzed.sgds")
    bad.write_bytes(blob)
    try:
        loaded = sd.load_split(bad)
    except FormatError:
        return
    _same_split(loaded, original)
