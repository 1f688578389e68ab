import warnings
from dataclasses import asdict, replace

import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given, settings, strategies as st

import stepgate.synthdata as sd
from conftest import traced_peak
from stepgate import container
from stepgate.errors import DimensionError, DomainError, FormatError, GenerationError


SPLIT_FIELDS = ("frames", "labels", "relevance", "planted")


def videos_of(data):
    """Every video of a dataset, train then test, one ``Split`` row each."""
    return [*data.train, *data.test]


def slot_means(video, spec):
    """Per-timestep mean of the slot's frames, shape (T, d_raw)."""
    return video.frames.mean(axis=1)


def label_of(video):
    """The class of a single-label video, read off its one-hot row."""
    (c,) = np.flatnonzero(video.labels)
    return int(c)


def class_rows(classes, spec):
    """One one-hot (L,) label row per class of ``classes``, stacked."""
    return np.eye(spec.n_classes)[classes]


def decode_prototypes(video, prototypes, spec):
    """Nearest-prototype id per timestep from slot means."""
    means = slot_means(video, spec)
    d2 = ((means[:, None, :] - prototypes[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1).astype(np.int64)


# parameters: DatasetConfig's default dataset without its style, and a
# smaller paired one
ANCHORED = dict(n_classes=10, n_shared=6, n_background=8, d_raw=32, timesteps=32,
                frames_per_slot=16, noise_sigma=0.3, relevant_fraction=0.3,
                confuser_share=0.35, task="single_label")
PAIRED = dict(n_classes=6, n_shared=4, n_background=4, d_raw=16, timesteps=16,
              frames_per_slot=8, noise_sigma=0.3, relevant_fraction=0.3,
              confuser_share=0.35, task="single_label", recipe_style="paired")


@pytest.fixture(scope="module")
def spec():
    return sd.ActivitySpec(**{**ANCHORED, "recipe_style": "anchored"})


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


@pytest.mark.parametrize("params, message", [
    ({**ANCHORED, "recipe_style": "triplet"}, "recipe_style must be one of"),
    ({**ANCHORED, "recipe_style": "anchored", "n_classes": 1}, "at least two classes"),
    ({**ANCHORED, "recipe_style": "anchored", "relevant_fraction": 0.0}, "relevant_fraction"),
    ({**ANCHORED, "recipe_style": "anchored", "n_background": 0},
     "^need at least one background prototype$"),
    ({**ANCHORED, "recipe_style": "anchored", "n_shared": 1}, "need n_shared >= 2"),
    # only C(4, 2) = 6 distinct pairs exist
    ({**PAIRED, "n_classes": 7}, "4 shared prototypes yield 6 distinct pairs"),
])
def test_spec_validation_errors(params, message):
    with pytest.raises(DomainError, match=message):
        sd.ActivitySpec(**params)


@pytest.mark.parametrize("params, message", [
    # class c takes shared ids 2c and 2c + 1 mod 6, so ids 4 and 5 of the
    # pool (prototypes 9 and 10) serve class 2 alone
    ({**ANCHORED, "recipe_style": "anchored", "n_classes": 5},
     "^shared prototype 9 appears in 1 recipes; needs >= 2$"),
    # the pairs (0, 1), (0, 2), (0, 3) use 1, 2 and 3 once each
    ({**PAIRED, "n_classes": 3}, "^shared prototype 1 appears in 1 recipes; needs >= 2$"),
])
def test_a_shared_prototype_in_one_recipe_fails_when_the_book_is_derived(params, message):
    spec = sd.ActivitySpec(**params)
    with pytest.raises(DomainError, match=message):
        spec.class_recipes


# ---------------------------------------------------------------------------
# generation


def test_generation_is_deterministic(spec):
    a = sd.generate_dataset(spec, 12, 6, seed=3)
    b = sd.generate_dataset(spec, 12, 6, seed=3)
    nptest.assert_array_equal(a.prototypes, b.prototypes)
    for split in ("train", "test"):
        for name in SPLIT_FIELDS:
            nptest.assert_array_equal(getattr(getattr(a, split), name),
                                      getattr(getattr(b, split), name))
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
    for v, state in zip(videos_of(data), video_states):
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
    loud = sd.ActivitySpec(**{**asdict(spec), "noise_sigma": sigma})
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
    for v in videos_of(dataset):
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
    for v in videos_of(dataset):
        pos = np.flatnonzero(v.relevance)
        if spec.placement[label_of(v)] == "middle":
            assert pos.min() >= lo and pos.max() < hi
        else:
            saw_outside_for_spread |= bool((pos < lo).any() or (pos >= hi).any())
    assert saw_outside_for_spread


def test_noiseless_decoding_recovers_planted_prototypes(spec):
    quiet = sd.ActivitySpec(**{**asdict(spec), "noise_sigma": 0.0})
    data = sd.generate_dataset(quiet, 6, 3, seed=11)
    for v in videos_of(data):
        nptest.assert_array_equal(decode_prototypes(v, data.prototypes, quiet), v.planted)


def test_noisy_decoding_still_recovers(dataset, spec):
    # sigma 0.3 over 16-frame slots leaves prototypes cleanly separable
    for v in dataset.test[:10]:
        nptest.assert_array_equal(decode_prototypes(v, dataset.prototypes, spec), v.planted)


def test_infeasible_placement_is_generation_error(spec):
    crowded = sd.ActivitySpec(**{**asdict(spec), "relevant_fraction": 1.0})
    with pytest.raises(GenerationError):
        sd.generate_dataset(crowded, 12, 2, seed=0)


# ---------------------------------------------------------------------------
# the split layout


@pytest.mark.parametrize("rows", [3, slice(2, 5), [4, 1], np.array([0, 0, 5])],
                         ids=["int", "slice", "list", "array"])
def test_indexing_a_split_takes_the_same_rows_of_all_four_arrays(dataset, rows):
    split = dataset.train
    part = split[rows]
    assert isinstance(part, sd.Split)
    for name in SPLIT_FIELDS:
        nptest.assert_array_equal(getattr(part, name), getattr(split, name)[rows])
    if not isinstance(rows, int):
        assert len(part) == len(split.labels[rows])


def test_a_slice_of_a_split_is_a_view_and_a_row_list_a_copy(dataset):
    split = dataset.train
    for name in SPLIT_FIELDS:
        assert np.shares_memory(getattr(split[2:5], name), getattr(split, name))
        assert np.shares_memory(getattr(split[3], name), getattr(split, name)[3])
        assert not np.shares_memory(getattr(split[[2, 3]], name), getattr(split, name))


def test_iterating_a_split_yields_its_videos_in_order_and_stops(dataset):
    """Zipping two splits, as the benchmark's set-up check and
    ``tools/same_outputs.py`` do, walks the videos row by row and stops
    after ``len(split)`` of them."""
    split = dataset.test[:7]
    videos = list(split)
    assert len(videos) == len(split) == 7
    for k, v in enumerate(videos):
        for name in SPLIT_FIELDS:
            nptest.assert_array_equal(getattr(v, name), getattr(split, name)[k])
    assert len(list(zip(split, dataset.train))) == 7


def test_generation_draws_each_video_into_its_row(dataset, spec):
    """A split's rows are filled in place: the dtypes and shapes are the
    file's, and every label row has a positive class."""
    for split, n in ((dataset.train, 60), (dataset.test, 40)):
        assert len(split) == n
        assert split.frames.shape == (n, spec.timesteps, spec.frames_per_slot, spec.d_raw)
        assert (split.labels.dtype, split.relevance.dtype, split.planted.dtype) == (
            np.float64, np.bool_, np.int64)
        assert split.labels.shape == (n, spec.n_classes)
        assert split.relevance.shape == split.planted.shape == (n, spec.timesteps)
        assert (split.labels.sum(axis=1) == 1.0).all()


# ---------------------------------------------------------------------------
# relevance oracle and context dependence


def test_oracle_matches_stored_mask_for_own_label(dataset, spec):
    head = dataset.train[:20]
    own = class_rows([label_of(v) for v in head], spec)
    nptest.assert_array_equal(sd.relevance_oracle(head.planted, own, spec), head.relevance)
    nptest.assert_array_equal(sd.relevance_oracle(head.planted[0], own[0], spec),
                              head.relevance[0])
    # a label row must hold one entry per class
    for width in (spec.n_classes + 1, spec.n_classes - 1):
        with pytest.raises(DimensionError):
            sd.relevance_oracle(head.planted, np.ones((20, width)), spec)


@pytest.mark.parametrize("task", ["single_label", "multi_label"])
def test_oracle_of_the_positive_classes_is_the_stored_mask(spec, task):
    """Generation stores the oracle's mask of a video's positive classes; a
    multi-label video's is the union over its classes."""
    data = sd.generate_dataset(sd.ActivitySpec(**{**asdict(spec), "task": task}),
                               30, 10, seed=5)
    for split in (data.train, data.test):
        nptest.assert_array_equal(
            sd.relevance_oracle(split.planted, split.labels, data.spec), split.relevance)
    assert task == "single_label" or data.train.labels.sum(axis=1).max() > 1


def test_background_timesteps_relevant_to_no_class(dataset, spec):
    v = dataset.train[0]
    bg = np.asarray([int(p) in spec.background_prototypes for p in v.planted])
    assert bg.any()
    every = sd.relevance_oracle(np.tile(v.planted, (spec.n_classes, 1)),
                                np.eye(spec.n_classes), spec)
    assert not (every & bg).any()


def test_shared_prototype_relevant_to_one_class_not_another(dataset, spec):
    hits = 0
    for v in dataset.train:
        for pos in np.flatnonzero(~v.relevance):
            p = int(v.planted[pos])
            if p not in spec.shared_prototypes:
                continue
            owners = [c for c in range(spec.n_classes) if p in spec.class_recipes[c]]
            assert label_of(v) not in owners
            rows = class_rows([owners[0], label_of(v)], spec)
            assert sd.relevance_oracle(np.tile(v.planted, (2, 1)), rows, spec)[:, pos].tolist() \
                == [True, False]
            hits += 1
    assert hits > 0, "expected shared-prototype confusers in a default dataset"


def per_video_oracle(planted, labels, spec):
    """Recipe membership one video at a time, from ``class_recipes``."""
    out = []
    for ids, row in zip(planted, labels):
        recipe = frozenset().union(*(spec.class_recipes[c] for c in np.flatnonzero(row)))
        out.append([int(p) in recipe for p in ids])
    return np.array(out, dtype=bool).reshape(planted.shape)


@pytest.mark.parametrize("task", sd.TASKS)
@pytest.mark.parametrize("style", sd.RECIPE_STYLES)
def test_the_array_oracle_is_the_per_video_rule(task, style):
    """Over whole splits, under their own label rows and under arbitrary
    0/1 rows (none, one or many positives), the array rule equals recipe
    membership checked video by video."""
    params = PAIRED if style == "paired" else {**ANCHORED, "recipe_style": "anchored"}
    spec = sd.ActivitySpec(**{**params, "task": task})
    data = sd.generate_dataset(spec, 12, 8, seed=3)
    rng = np.random.default_rng(4)
    for split in (data.train, data.test):
        others = (rng.random(split.labels.shape) < 0.3).astype(np.float64)
        for labels in (split.labels, others):
            nptest.assert_array_equal(sd.relevance_oracle(split.planted, labels, spec),
                                      per_video_oracle(split.planted, labels, spec))
        nptest.assert_array_equal(per_video_oracle(split.planted, split.labels, spec),
                                  split.relevance)


def test_generation_and_load_run_the_oracle_once_per_split(tmp_path, spec, monkeypatch):
    calls = []
    oracle = sd.relevance_oracle
    monkeypatch.setattr(sd, "relevance_oracle",
                        lambda planted, *a: calls.append(planted.shape) or oracle(planted, *a))
    data = sd.generate_dataset(spec, n_train=5, n_test=3, seed=2)
    assert calls == [(5, spec.timesteps), (3, spec.timesteps)]
    sd.save_split(tmp_path / "train.sgds", data, "train")
    calls.clear()
    sd.load_split(tmp_path / "train.sgds")
    assert calls == [(5, spec.timesteps)]


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
    receiver = replace(receiver, frames=receiver.frames.copy())
    receiver.frames[r_pos] = donor.frames[d_pos]
    nptest.assert_array_equal(receiver.frames[r_pos], donor.frames[d_pos])
    assert donor.relevance[d_pos] and not receiver.relevance[r_pos]


# ---------------------------------------------------------------------------
# paired recipes


def test_paired_spec_structure():
    spec = sd.ActivitySpec(**PAIRED)
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


def test_paired_videos_plant_both_members():
    spec = sd.ActivitySpec(**PAIRED)
    data = sd.generate_dataset(spec, 12, 6, seed=21)
    for v in videos_of(data):
        planted_rel = set(int(p) for p in v.planted[v.relevance])
        assert planted_rel == set(spec.class_recipes[label_of(v)])


# ---------------------------------------------------------------------------
# multi-label mode


def test_multi_label_videos(spec):
    ml = sd.ActivitySpec(**{**asdict(spec), "task": "multi_label"})
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


@pytest.mark.parametrize("seed", range(6))
def test_two_class_multi_label_videos_add_at_most_the_one_other_class(spec, seed):
    """With two classes a multi-label video can add only the other one (two
    shared prototypes, so each sits in both recipes)."""
    ml = sd.ActivitySpec(**{**asdict(spec), "task": "multi_label", "n_classes": 2,
                            "n_shared": 2})
    data = sd.generate_dataset(ml, 8, 4, seed=seed)
    for split in (data.train, data.test):
        assert set(split.labels.sum(axis=1).tolist()) <= {1.0, 2.0}
        nptest.assert_array_equal(per_video_oracle(split.planted, split.labels, ml),
                                  split.relevance)


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
    noisy = sd.ActivitySpec(**{**asdict(spec), "noise_sigma": 3.0})
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


def _one_frame_array(split, spec):
    """The split's frames are one aligned, C-contiguous (n_videos, T,
    frames_per_slot, d_raw) float32 array of slots, and each video the split
    yields holds a writable view of its row, not a copy."""
    frames = split.frames
    assert frames.shape == (len(split), spec.timesteps, spec.frames_per_slot, spec.d_raw)
    assert frames.dtype == np.float32 and frames.flags.c_contiguous and frames.flags.aligned
    videos = list(split)
    assert len(videos) == len(split)
    for k, v in enumerate(videos):
        assert np.shares_memory(v.frames, frames[k]) and v.frames.shape == frames[k].shape
        assert v.frames.flags.writeable and v.frames.flags.aligned
        assert not np.shares_memory(v.frames, frames[k + 1:])


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
    ml = sd.ActivitySpec(**{**asdict(spec), "task": "multi_label"})
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
    assert sd.FORMAT_VERSION == 5
    # v1 had no slot layout; v2 interleaved each video's label, mask, ids
    # and frames; v3 stored the frames as f8; v4 stored the recipe book
    for version in (1, 2, 3, 4):
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
    return [np.array(prototypes, dtype="<f8"),
            np.stack([v.labels for v in videos]).astype("<f8"),
            np.stack([v.relevance for v in videos]).astype("u1"),
            np.stack([v.planted for v in videos]).astype("<i8"),
            np.stack([v.frames for v in videos]).astype("<f4")]


def test_the_body_is_one_block_per_field(tmp_path, dataset):
    """Version 5's body is prototypes | labels | relevance | planted |
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
    one-hot, a relevance byte or planted id out of range, a prototype or
    frame value that is NaN or infinite) fails once read, naming the file."""
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
        "no_videos": ({**header, "n_videos": 0}, body),
        # books the header alone does not bound; the body's size refuses them
        "huge_anchored_book": ({**header, "n_classes": 10 ** 9}, body),
        "huge_paired_book": ({**header, "recipe_style": "paired", "n_classes": 10 ** 9,
                              "n_shared": 50000}, body),
        "long_body": (header, body + b"\x00"),
        "not_an_object": ([1, 2], body),
        # the checksum does not cover the prefix's version, only this copy
        "older_version": ({**header, "format_version": sd.FORMAT_VERSION - 1}, body),
        "string_version": ({**header, "format_version": str(sd.FORMAT_VERSION)}, body),
        "float_version": ({**header, "format_version": float(sd.FORMAT_VERSION)}, body),
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
        "nan_prototype": (0, (0, 0), np.nan, "prototype value is not finite"),
        "inf_prototype": (0, (0, 0), np.inf, "prototype value is not finite"),
        "relevance_flipped": (2, (2, 5), 1 - large.test[2].relevance[5],
                              "video 2 is not its classes' recipe membership"),
    }
    for name, (field, at, value, message) in content.items():
        fields = _fields(large.prototypes, large.test)
        fields[field][at] = value
        bad = tmp_path / f"{name}.sgds"
        container.write(bad, sd.MAGIC, sd.FORMAT_VERSION, header, fields)
        with pytest.raises(FormatError, match=message) as exc:
            sd.load_split(bad)
        assert str(exc.value).startswith(f"{bad}: "), name

    # a body that fits a header whose book breaks its own rule: ten classes
    # cannot use twelve shared prototypes twice each
    bad = tmp_path / "short_shared.sgds"
    container.write(bad, sd.MAGIC, sd.FORMAT_VERSION,
                    {**header, "n_shared": 12, "n_background": 2}, [body])
    with pytest.raises(FormatError, match="appears in 1 recipes") as exc:
        sd.load_split(bad)
    assert str(exc.value).startswith(f"{bad}: ")


@pytest.fixture(scope="module")
def small_split(tmp_path_factory):
    spec = sd.ActivitySpec(**{**ANCHORED, "recipe_style": "anchored", "n_classes": 3,
                              "n_shared": 2, "n_background": 2, "d_raw": 4, "timesteps": 6,
                              "frames_per_slot": 2})
    data = sd.generate_dataset(spec, n_train=2, n_test=3, seed=5)
    path = tmp_path_factory.mktemp("split") / "test.sgds"
    sd.save_split(path, data, "test")
    return path, sd.load_split(path)


@pytest.mark.parametrize("key, value", [
    ("n_videos", 3.7), ("n_videos", 3.0), ("seed", 5.9), ("seed", True), ("seed", "5"),
])
def test_a_count_or_seed_that_is_not_an_int_is_refused(small_split, tmp_path, key, value):
    """A header value no writer produces is refused behind a valid checksum,
    not rounded: ``n_videos`` 3.7 over a 3-video body would load 3 videos
    through ``int()``."""
    header, body = _header_and_body(small_split[0])
    assert header["n_videos"] == 3
    bad = tmp_path / "bad.sgds"
    container.write(bad, sd.MAGIC, sd.FORMAT_VERSION, {**header, key: value}, [body])
    with pytest.raises(FormatError, match=f"{key} {value!r} is not an int"):
        sd.load_split(bad)


def test_the_header_is_pinned(small_split, tmp_path):
    """The header bytes are the format: a parameter renamed or a key added
    must fail here, not only in a round trip through this code."""
    path, _ = small_split
    assert _header_and_body(path)[0] == {
        "format_version": 5, "n_videos": 3, "seed": 5, "split": "test",
        "task": "single_label", "recipe_style": "anchored", "n_classes": 3,
        "n_shared": 2, "n_background": 2, "d_raw": 4, "timesteps": 6,
        "frames_per_slot": 2, "noise_sigma": 0.3, "relevant_fraction": 0.3,
        "confuser_share": 0.35,
    }
    spec = sd.ActivitySpec(
        n_classes=3, n_shared=3, n_background=1, d_raw=3, timesteps=5, frames_per_slot=2,
        noise_sigma=0.25, relevant_fraction=0.4, confuser_share=0.5, task="multi_label",
        recipe_style="paired")
    paired = tmp_path / "train.sgds"
    sd.save_split(paired, sd.generate_dataset(spec, 2, 3, seed=11), "train")
    assert _header_and_body(paired)[0] == {
        "format_version": 5, "n_videos": 2, "seed": 11, "split": "train",
        "task": "multi_label", "recipe_style": "paired", "n_classes": 3,
        "n_shared": 3, "n_background": 1, "d_raw": 3, "timesteps": 5,
        "frames_per_slot": 2, "noise_sigma": 0.25, "relevant_fraction": 0.4,
        "confuser_share": 0.5,
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
