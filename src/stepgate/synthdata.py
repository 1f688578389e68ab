"""Synthetic long-range activity sequences with context-dependent relevance.

Every activity class owns a recipe of prototype vectors.  An
``ActivitySpec`` is a dataset's generation parameters, and its recipe book
is derived from them: the ``anchored`` style gives each class one prototype
of its own plus several from a shared pool; the ``paired`` style composes
every recipe entirely of shared prototypes, so no single timestep
identifies a class.  A shared prototype is relevant exactly when the
video's label includes it in its recipe, so the same timestep content can
be signal in one video and distractor in another; filler timesteps mix
background prototypes with shared prototypes from foreign recipes
(confusers).  Per-frame Gaussian noise sits on top.

A frame-level scorer cannot separate a shared prototype's relevant and
irrelevant occurrences, which is the property the context-conditioned
selector is supposed to exploit.  Under paired recipes the stakes are
higher: a selected confuser can complete a foreign class's pair and make
two labels indistinguishable to any classifier that only sees which
prototypes are present.

A video is ``timesteps`` slots of ``frames_per_slot`` raw frames each, and
its frames are stored in that layout, as a (timesteps, frames_per_slot,
d_raw) float32 array: slot ``i`` holds one planted prototype plus per-frame
noise.  Each value is computed in float64 and stored rounded.  float32 is
also the dtype the models compute in (``harness.models.build_bundle``), so
consumers read the frames as stored, with no cast.  Consumers index the slot
axis; no code turns a slot index into frame offsets.

Videos are generated independently: video ``i`` of a run seeded with ``s``
draws from ``default_rng(s ^ i)`` (global index across both splits), and
split-level label shuffles use a fixed large offset constant, so generation
is reproducible and order-independent.

A video's labels are an (L,) 0/1 float64 indicator row in either task, one-hot
for single-label; the task chooses only the loss and the metric.

Binary split files (format version 5; older ones are rejected) use the shared
checksummed container (``stepgate.container``): magic ``SGDS``, u32 format
version, u32 header length, u32 CRC-32, canonical JSON header
(``format_version``, every ``ActivitySpec`` parameter, ``n_videos``,
``seed`` and ``split``), then a body of whole little-endian arrays, one per
field: (P, d_raw) f8 prototypes, (N, L) f8 labels, (N, T) u1 relevance, (N,
T) i8 planted ids and (N, T, frames_per_slot, d_raw) f4 frames.
``load_split`` reads each field straight into its array, checks its
content, finite prototypes and frames (``container.all_finite``) included,
and returns the four per-video fields as one ``Split``, the same layout
generation fills and ``save_split`` writes.  The header alone does not
bound the recipe book's size, so the book is derived only once the body has
been read: one ``relevance_oracle`` call over the split then holds each
video's stored relevance to its positive classes' recipe membership, which
catches a book that drifted from the one the file was written under.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from itertools import chain, combinations, islice

import numpy as np

from . import container
from .errors import DimensionError, DomainError, FormatError, GenerationError

MAGIC = b"SGDS"
FORMAT_VERSION = 5

RECIPE_STYLES = ("anchored", "paired")
PLACEMENTS = ("middle", "spread")
TASKS = ("single_label", "multi_label")
SHARED_PER_CLASS = 2  # shared prototypes in each anchored recipe

# split-level label rngs must not collide with per-video rngs (seed ^ index);
# desk-scale indices stay far below this offset
_LABEL_SEED_OFFSET = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class ActivitySpec:
    """One synthetic dataset's generation parameters, the SGDS header's spec
    keys, and the recipe book derived from them.

    Prototype ids run class-unique (``anchored`` only), then ``n_shared``
    shared, then ``n_background`` background.  ``anchored`` gives class
    ``c`` prototype ``c`` plus ``SHARED_PER_CLASS`` shared ones, taken in a
    rotating pattern.  ``paired`` makes class ``c`` the ``c``-th pair of
    shared prototypes in ``combinations`` order, with no class-specific
    prototype anywhere: classification then hinges on which pair co-occurs,
    and a confuser slot can complete a foreign pair, so selection quality
    directly bounds attainable accuracy.  Placements alternate by class.
    """

    n_classes: int
    n_shared: int
    n_background: int
    d_raw: int
    timesteps: int
    frames_per_slot: int
    noise_sigma: float
    relevant_fraction: float
    confuser_share: float
    task: str
    recipe_style: str

    def __post_init__(self):
        """The parameter rules, in constant time: a known style with enough
        shared prototypes for it, a known task, two or more classes, one or
        more background prototypes, positive sizes, and finite, in-range
        noise and fractions.  The book's own rule is checked where
        ``class_recipes`` derives it."""
        if self.recipe_style not in RECIPE_STYLES:
            raise DomainError(f"recipe_style must be one of {RECIPE_STYLES}, "
                              f"got {self.recipe_style!r}")
        if self.recipe_style == "anchored" and self.n_shared < SHARED_PER_CLASS:
            # the rotation needs that many distinct ids
            raise DomainError(f"need n_shared >= {SHARED_PER_CLASS}, got {self.n_shared}")
        if self.recipe_style == "paired":
            pairs = math.comb(max(self.n_shared, 0), 2)
            if self.n_classes > pairs:
                raise DomainError(f"{self.n_shared} shared prototypes yield {pairs} distinct "
                                  f"pairs, fewer than {self.n_classes} classes")
        if self.task not in TASKS:
            raise DomainError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.n_classes < 2:
            raise DomainError(f"need at least two classes, got {self.n_classes}")
        for name in ("n_prototypes", "d_raw", "timesteps", "frames_per_slot"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < self.relevant_fraction <= 1.0:
            raise DomainError(f"relevant_fraction must be in (0, 1], got {self.relevant_fraction}")
        if not 0.0 <= self.confuser_share <= 1.0:
            raise DomainError(f"confuser_share must be in [0, 1], got {self.confuser_share}")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise DomainError(f"noise_sigma must be finite and non-negative, got {self.noise_sigma}")
        if self.n_background < 1:
            raise DomainError("need at least one background prototype")

    @property
    def _shared(self) -> range:
        first = self.n_classes if self.recipe_style == "anchored" else 0
        return range(first, first + self.n_shared)

    @property
    def n_prototypes(self) -> int:
        return self._shared.stop + self.n_background

    @cached_property
    def class_recipes(self) -> tuple[frozenset, ...]:
        """Each class's prototype ids, derived in time linear in
        ``n_classes + n_shared``.  Raises ``DomainError`` unless every shared
        prototype appears in two or more recipes."""
        shared = self._shared
        if self.recipe_style == "anchored":
            recipes = tuple(frozenset({c} | {shared[(SHARED_PER_CLASS * c + j) % self.n_shared]
                                             for j in range(SHARED_PER_CLASS)})
                            for c in range(self.n_classes))
        else:
            recipes = tuple(map(frozenset, islice(combinations(shared, 2), self.n_classes)))
        uses = Counter(chain.from_iterable(recipes))
        for s in shared:
            if uses[s] < 2:
                raise DomainError(f"shared prototype {s} appears in {uses[s]} recipes; needs >= 2")
        return recipes

    @cached_property
    def shared_prototypes(self) -> frozenset:
        return frozenset(self._shared)

    @cached_property
    def background_prototypes(self) -> frozenset:
        return frozenset(range(self._shared.stop, self.n_prototypes))

    @cached_property
    def placement(self) -> tuple[str, ...]:
        return tuple(PLACEMENTS[c % 2] for c in range(self.n_classes))

    def relevant_count(self, class_index: int) -> int:
        """Relevant timesteps for one class: spread around the target count
        so classes have genuinely different selection ratios, but always
        within 2 of ``round(relevant_fraction * timesteps)``."""
        if not 0 <= class_index < self.n_classes:
            raise DomainError(f"class {class_index} out of range [0, {self.n_classes})")
        base = round(self.relevant_fraction * self.timesteps)
        tilt = 0.85 + 0.3 * class_index / (self.n_classes - 1)
        raw = round(self.relevant_fraction * self.timesteps * tilt)
        return max(1, min(self.timesteps, max(base - 2, min(base + 2, raw))))


@dataclass(eq=False)
class Split:
    """One split's videos as four arrays, a row per video: raw frames, labels
    and generation ground truth.  ``split[i]`` is video ``i``, each array's
    row ``i``, and iterating yields the videos in order; ``split[lo:hi]`` is
    a view and ``split[[i, j]]`` a copy of those rows of all four arrays."""

    frames: np.ndarray          # (N, T, frames_per_slot, d_raw) float32
    labels: np.ndarray          # (N, L) 0/1 float64 indicator rows; one-hot for single_label
    relevance: np.ndarray       # (N, T) bool
    planted: np.ndarray         # (N, T) int64 prototype id per timestep

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, rows) -> "Split":
        return Split(*(getattr(self, f.name)[rows] for f in fields(self)))


@dataclass
class Dataset:
    spec: ActivitySpec
    prototypes: np.ndarray      # (P, d_raw)
    train: Split
    test: Split
    seed: int


# ---------------------------------------------------------------------------
# generation


def _balanced_labels(n: int, n_classes: int, rng: np.random.Generator) -> np.ndarray:
    labels = np.asarray([i % n_classes for i in range(n)], dtype=np.int64)
    rng.shuffle(labels)
    return labels


def _make_video(spec: ActivitySpec, prototypes: np.ndarray, primary: int,
                rng: np.random.Generator, scratch: np.ndarray, out: Split, k: int) -> None:
    """Draw one video but its relevance into row ``k`` of ``out``, whose
    labels start at zero; a multi-label one adds up to two other classes.
    Its raw frames are computed in ``scratch``, a C-contiguous (T,
    frames_per_slot, d_raw) float64 array, and stored rounded."""
    t = spec.timesteps
    classes = [primary]
    if spec.task == "multi_label":
        n_extra = int(rng.integers(0, min(3, spec.n_classes)))
        others = [c for c in range(spec.n_classes) if c != primary]
        if n_extra:
            classes += sorted(int(c) for c in rng.choice(others, size=n_extra, replace=False))
    recipe = frozenset().union(*(spec.class_recipes[c] for c in classes))

    n_rel = spec.relevant_count(primary)
    if spec.placement[primary] == "middle":
        lo, hi = t // 4, t - t // 4
    else:
        lo, hi = 0, t
    if n_rel > hi - lo:
        raise GenerationError(
            f"cannot place {n_rel} relevant timesteps in a window of {hi - lo}"
        )
    positions = rng.choice(np.arange(lo, hi), size=n_rel, replace=False)

    # round-robin through the recipe so every member, the class-unique
    # prototype included, appears in the video
    members = sorted(recipe)
    rng.shuffle(members)
    planted = out.planted[k]
    confusers = sorted(spec.shared_prototypes - recipe)
    background = sorted(spec.background_prototypes)
    planted[positions] = np.resize(members, n_rel)
    for pos in sorted(set(range(t)) - set(positions.tolist())):
        if confusers and rng.random() < spec.confuser_share:
            planted[pos] = confusers[int(rng.integers(len(confusers)))]
        else:
            planted[pos] = background[int(rng.integers(len(background)))]

    # noise, then each slot's prototype added to its frames_per_slot frames;
    # a value past float32's range stores as inf, which the caller rejects
    rng.standard_normal(out=scratch)
    with np.errstate(over="ignore", invalid="ignore"):
        scratch *= spec.noise_sigma
        scratch += prototypes[planted][:, None, :]
        out.frames[k] = scratch
    out.labels[k, classes] = 1.0


def generate_dataset(spec: ActivitySpec, n_train: int, n_test: int, seed: int) -> Dataset:
    """Reproducible dataset: prototypes from the run seed, balanced labels
    per split, per-video streams from ``seed ^ global_index``.  Each video is
    drawn straight into its row of its split's arrays, then the split's
    relevance; a frame that does not fit float32 raises ``GenerationError``."""
    if n_train < 1 or n_test < 1:
        raise DomainError(f"need positive split sizes, got {n_train}, {n_test}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    proto_rng = np.random.default_rng(seed)
    prototypes = proto_rng.standard_normal((spec.n_prototypes, spec.d_raw))

    t = spec.timesteps
    scratch = np.empty((t, spec.frames_per_slot, spec.d_raw))
    splits = []
    for i, (first, n) in enumerate(((0, n_train), (n_train, n_test))):
        labels = _balanced_labels(n, spec.n_classes,
                                  np.random.default_rng(seed ^ (_LABEL_SEED_OFFSET - i)))
        split = Split(np.empty((n, *scratch.shape), np.float32), np.zeros((n, spec.n_classes)),
                      np.empty((n, t), bool), np.empty((n, t), np.int64))
        for k, c in enumerate(labels):
            _make_video(spec, prototypes, int(c), np.random.default_rng(seed ^ (first + k)),
                        scratch, split, k)
        if not container.all_finite(split.frames):
            raise GenerationError(f"a frame value does not fit float32 at noise_sigma "
                                  f"{spec.noise_sigma}")
        split.relevance[...] = relevance_oracle(split.planted, split.labels, spec)
        splits.append(split)
    return Dataset(spec=spec, prototypes=prototypes, train=splits[0], test=splits[1], seed=seed)


# ---------------------------------------------------------------------------
# ground truth access


def relevance_oracle(planted: np.ndarray, labels: np.ndarray, spec: ActivitySpec) -> np.ndarray:
    """The one recipe-membership rule: for (..., T) planted prototype ids in
    [0, n_prototypes) and (..., L) 0/1 label rows, whether each timestep's
    planted id is in the union of the recipes of its row's positive classes.

    Generation stores it as the videos' relevance masks, under their own
    label rows; under other rows it re-checks membership, under which a
    shared prototype can be relevant to one class and not another.
    """
    if labels.shape[-1:] != (spec.n_classes,):
        raise DimensionError(f"label rows of shape {labels.shape} do not hold "
                             f"{spec.n_classes} classes")
    member = np.array([[p in r for p in range(spec.n_prototypes)] for r in spec.class_recipes])
    return np.take_along_axis((labels != 0) @ member, planted, axis=-1)


# ---------------------------------------------------------------------------
# serialization


def save_split(path, dataset: Dataset, split: str) -> None:
    """Write one split to ``path`` in the documented binary layout."""
    if split not in ("train", "test"):
        raise DomainError(f"split must be 'train' or 'test', got {split!r}")
    videos = dataset.train if split == "train" else dataset.test
    header = {"format_version": FORMAT_VERSION, **asdict(dataset.spec),
              "n_videos": len(videos), "seed": dataset.seed, "split": split}
    body = [np.ascontiguousarray(a, dtype=dtype) for a, dtype in (
        (dataset.prototypes, "<f8"), (videos.labels, "<f8"), (videos.relevance, np.uint8),
        (videos.planted, "<i8"), (videos.frames, "<f4"))]
    container.write(path, MAGIC, FORMAT_VERSION, header, body)


def _header_spec(meta: dict) -> ActivitySpec:
    return ActivitySpec(**{f.name: meta[f.name] for f in fields(ActivitySpec)})


def split_layout(meta: dict) -> list:
    """The body fields an SGDS header implies (``container.read``'s layout):
    prototypes, labels, relevance, planted ids and frames.  Checks the
    parameters without deriving the book, which the header alone does not
    bound, refuses an empty split, and requires ``n_videos`` and ``seed`` to
    be ints."""
    spec = _header_spec(meta)
    n, t = container.int_field(meta, "n_videos"), spec.timesteps
    container.int_field(meta, "seed")
    if n < 1:
        raise DomainError(f"a split holds at least one video, got n_videos {n}")
    return [("<f8", (spec.n_prototypes, spec.d_raw)), ("<f8", (n, spec.n_classes)),
            ("u1", (n, t)), ("<i8", (n, t)),
            ("<f4", (n, t, spec.frames_per_slot, spec.d_raw))]


def load_split(path) -> tuple[ActivitySpec, np.ndarray, Split, dict]:
    """Read one split file back; returns (spec, prototypes, split, meta).
    Any file this module did not write intact raises ``FormatError``, and so
    does a video whose stored relevance is not its classes' recipe
    membership under the book this module derives."""
    meta, (prototypes, labels, relevance, planted, frames) = container.read(
        path, MAGIC, FORMAT_VERSION, "dataset", split_layout)
    spec = _header_spec(meta)
    positives = labels.sum(axis=1)
    # content a checksum vouches for but no generated split holds
    for bad, what in (
            (not np.isin(labels, (0.0, 1.0)).all(), "a label row is not 0/1"),
            ((positives < 1).any(), "a label row has no positive class"),
            (spec.task == "single_label" and (positives > 1).any(),
             "a single-label row has more than one positive class"),
            ((relevance > 1).any(), "a relevance byte is not 0 or 1"),
            (((planted < 0) | (planted >= spec.n_prototypes)).any(),
             f"a planted prototype id lies outside [0, {spec.n_prototypes})"),
            (not container.all_finite(prototypes), "a prototype value is not finite"),
            (not container.all_finite(frames), "a frame value is not finite")):
        if bad:
            raise FormatError(f"{path}: {what}")
    try:  # derived only now that the body's labels and prototypes bound its size
        spec.class_recipes
    except DomainError as exc:
        raise FormatError(f"{path}: corrupt dataset header ({exc})") from exc
    drift = np.flatnonzero((relevance_oracle(planted, labels, spec) != relevance).any(axis=1))
    if drift.size:
        raise FormatError(f"{path}: the relevance of video {drift[0]} is not its "
                          f"classes' recipe membership")
    return spec, prototypes, Split(frames, labels, relevance != 0, planted), meta
