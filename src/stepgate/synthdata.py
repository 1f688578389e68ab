"""Synthetic long-range activity sequences with context-dependent relevance.

Every activity class owns a recipe of prototype vectors.  Two builders draw
the recipes: ``ActivitySpec.default`` (the ``anchored`` style) gives each
class one prototype of its own plus several from a shared pool;
``ActivitySpec.paired`` composes every recipe entirely of shared
prototypes, so no single timestep identifies a class.  The builders only
draw recipes; ``ActivitySpec.__post_init__`` alone checks that a spec can be
generated.  A shared prototype is relevant exactly when the video's label
includes it in its recipe, so the same timestep content can be signal in
one video and distractor in another; filler timesteps mix background
prototypes with shared prototypes from foreign recipes (confusers).
Per-frame Gaussian noise sits on top.

A frame-level scorer cannot separate a shared prototype's relevant and
irrelevant occurrences, which is the property the context-conditioned
selector is supposed to exploit.  Under paired recipes the stakes are
higher: a selected confuser can complete a foreign class's pair and make
two labels indistinguishable to any classifier that only sees which
prototypes are present.

A video is ``timesteps`` slots of ``frames_per_slot`` raw frames each, and
its frames are stored in that layout, as a (timesteps, frames_per_slot,
d_raw) float32 array: slot ``i`` holds one planted prototype plus per-frame
noise.  Each value is computed in float64 and stored rounded; frames are the
one float32 thing in the package, and every consumer casts only the rows it
reads.  Consumers index the slot axis; no code turns a slot index into frame
offsets.

Videos are generated independently: video ``i`` of a run seeded with ``s``
draws from ``default_rng(s ^ i)`` (global index across both splits), and
split-level label shuffles use a fixed large offset constant, so generation
is reproducible and order-independent.

A video's labels are an (L,) 0/1 float64 indicator row in either task, one-hot
for single-label; the task chooses only the loss and the metric.

Binary split files (format version 4; older ones are rejected) use the shared
checksummed container (``stepgate.container``): magic ``SGDS``, u32 format
version, u32 header length, u32 CRC-32, canonical JSON header (every
``ActivitySpec`` field, ``format_version``, ``n_videos``, ``seed`` and
``split``), then a body of whole little-endian arrays, one per field: (P,
d_raw) f8 prototypes, (N, L) f8 labels, (N, T) u1 relevance, (N, T) i8
planted ids and (N, T, frames_per_slot, d_raw) f4 frames.  ``load_split``
reads each field straight into its array and checks its content; a loaded
video's arrays are rows of those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import combinations

import numpy as np

from . import container
from .errors import DomainError, FormatError, GenerationError

MAGIC = b"SGDS"
FORMAT_VERSION = 4

PLACEMENTS = ("middle", "spread")
TASKS = ("single_label", "multi_label")
SHARED_PER_CLASS = 2  # shared prototypes in each anchored recipe

# split-level label rngs must not collide with per-video rngs (seed ^ index);
# desk-scale indices stay far below this offset
_LABEL_SEED_OFFSET = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class ActivitySpec:
    """Complete recipe book for one synthetic dataset; its fields are the
    SGDS header's spec keys."""

    n_classes: int
    n_prototypes: int
    d_raw: int
    timesteps: int
    frames_per_slot: int
    noise_sigma: float
    relevant_fraction: float
    confuser_share: float
    task: str
    class_recipes: tuple[frozenset, ...]
    shared_prototypes: frozenset
    background_prototypes: frozenset
    placement: tuple[str, ...]

    @classmethod
    def default(cls, n_classes: int, n_shared: int, n_background: int,
                **scalars) -> "ActivitySpec":
        """The ``anchored`` recipes: class ``c`` owns prototype ``c`` plus
        ``SHARED_PER_CLASS`` from the shared pool (ids after the classes'),
        taken in a rotating pattern.  ``scalars`` are the spec's scalar
        fields, ``d_raw`` to ``task``."""
        if n_shared < SHARED_PER_CLASS:  # the rotation needs that many distinct ids
            raise DomainError(f"need n_shared >= {SHARED_PER_CLASS}, got {n_shared}")
        shared = range(n_classes, n_classes + n_shared)
        recipes = [frozenset({c} | {shared[(SHARED_PER_CLASS * c + j) % n_shared]
                                    for j in range(SHARED_PER_CLASS)})
                   for c in range(n_classes)]
        return cls._from_recipes(n_classes, recipes, shared, n_background, scalars)

    @classmethod
    def paired(cls, n_classes: int, n_shared: int, n_background: int,
               **scalars) -> "ActivitySpec":
        """The ``paired`` recipes: class ``c`` is the ``c``-th pair of shared
        prototypes ``0..n_shared-1`` in ``combinations`` order, with no
        class-specific prototype anywhere.  Classification then hinges on
        which pair co-occurs, and a confuser slot can complete a foreign
        pair, so selection quality directly bounds attainable accuracy."""
        pairs = list(combinations(range(n_shared), 2))
        if n_classes > len(pairs):
            raise DomainError(
                f"{n_shared} shared prototypes yield {len(pairs)} distinct "
                f"pairs, fewer than {n_classes} classes"
            )
        recipes = [frozenset(pairs[c]) for c in range(n_classes)]
        return cls._from_recipes(n_classes, recipes, range(n_shared), n_background, scalars)

    @classmethod
    def _from_recipes(cls, n_classes: int, recipes: list, shared: range,
                      n_background: int, scalars: dict) -> "ActivitySpec":
        """The spec of ``n_classes`` (as requested, for ``__post_init__`` to
        judge) classes with ``recipes``, ``n_background`` background prototypes
        numbered after the ``shared`` ones and placements alternating."""
        background = range(shared.stop, shared.stop + n_background)
        return cls(n_classes=n_classes, n_prototypes=background.stop,
                   class_recipes=tuple(recipes), shared_prototypes=frozenset(shared),
                   background_prototypes=frozenset(background),
                   placement=tuple(PLACEMENTS[c % 2] for c in range(len(recipes))),
                   **scalars)

    def __post_init__(self):
        """Every rule a spec meets, whether a builder, a test or an SGDS
        header made it: two or more classes with distinct recipes, each
        shared prototype in two or more recipes, one or more background
        prototypes in none, and finite, in-range noise and fractions."""
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
        if len(self.class_recipes) != self.n_classes:
            raise DomainError("one recipe per class required")
        if len(self.placement) != self.n_classes or any(p not in PLACEMENTS for p in self.placement):
            raise DomainError(f"placement must give one of {PLACEMENTS} per class")
        if not self.background_prototypes:
            raise DomainError("need at least one background prototype")
        if not all(self.class_recipes):
            raise GenerationError("empty class recipe")
        all_ids = set().union(*self.class_recipes, self.shared_prototypes,
                              self.background_prototypes)
        if min(all_ids) < 0 or max(all_ids) >= self.n_prototypes:
            raise DomainError(f"prototype ids must lie in [0, {self.n_prototypes})")
        if len(set(self.class_recipes)) != self.n_classes:
            raise DomainError("class recipes must be distinct")
        for s in self.shared_prototypes:
            uses = sum(1 for r in self.class_recipes if s in r)
            if uses < 2:
                raise DomainError(f"shared prototype {s} appears in {uses} recipes; needs >= 2")
        for b in self.background_prototypes:
            if any(b in r for r in self.class_recipes):
                raise DomainError(f"background prototype {b} appears in a recipe")

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

    def header_dict(self) -> dict:
        """The SGDS header's spec part: every field, the sets sorted."""
        return {"format_version": FORMAT_VERSION,
                **{f.name: getattr(self, f.name) for f in fields(self)},
                "class_recipes": [sorted(r) for r in self.class_recipes],
                "shared_prototypes": sorted(self.shared_prototypes),
                "background_prototypes": sorted(self.background_prototypes),
                "placement": list(self.placement)}

    @classmethod
    def from_header_dict(cls, h: dict) -> "ActivitySpec":
        return cls(**{**{f.name: h[f.name] for f in fields(cls)},
                      "class_recipes": tuple(frozenset(r) for r in h["class_recipes"]),
                      "shared_prototypes": frozenset(h["shared_prototypes"]),
                      "background_prototypes": frozenset(h["background_prototypes"]),
                      "placement": tuple(h["placement"])})


@dataclass
class VideoSample:
    """One generated video: raw frames, labels, and generation ground truth."""

    frames: np.ndarray          # (T, frames_per_slot, d_raw) float32
    labels: np.ndarray          # (L,) 0/1 float64 indicator row; one-hot for single_label
    relevance: np.ndarray       # (T,) bool
    planted: np.ndarray         # (T,) int64 prototype id per timestep


@dataclass
class Dataset:
    spec: ActivitySpec
    prototypes: np.ndarray      # (P, d_raw)
    train: list
    test: list
    seed: int


# ---------------------------------------------------------------------------
# generation


def _balanced_labels(n: int, n_classes: int, rng: np.random.Generator) -> np.ndarray:
    labels = np.asarray([i % n_classes for i in range(n)], dtype=np.int64)
    rng.shuffle(labels)
    return labels


def _make_video(spec: ActivitySpec, prototypes: np.ndarray, primary: int,
                rng: np.random.Generator, scratch: np.ndarray,
                frames: np.ndarray) -> VideoSample:
    """Draw one video: its raw frames are computed in ``scratch``, a
    C-contiguous (T, frames_per_slot, d_raw) float64 array, and stored
    rounded in ``frames``, a float32 array of that shape."""
    t = spec.timesteps
    classes = [primary]
    if spec.task == "multi_label":
        n_extra = int(rng.integers(0, 3))
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
    planted = np.empty(t, dtype=np.int64)
    confusers = sorted(spec.shared_prototypes - recipe)
    background = sorted(spec.background_prototypes)
    for i, pos in enumerate(positions):
        planted[pos] = members[i % len(members)]
    rel_set = set(int(p) for p in positions)
    for pos in range(t):
        if pos in rel_set:
            continue
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
        frames[...] = scratch
    labels = np.zeros(spec.n_classes)
    labels[classes] = 1.0
    return VideoSample(frames=frames, labels=labels, planted=planted,
                       relevance=relevance_oracle(planted, classes, spec))


def generate_dataset(spec: ActivitySpec, n_train: int, n_test: int, seed: int) -> Dataset:
    """Reproducible dataset: prototypes from the run seed, balanced labels
    per split, per-video streams from ``seed ^ global_index``.  Each split's
    frames are rows of one float32 (n_videos, T, frames_per_slot, d_raw)
    array; a frame that does not fit float32 raises ``GenerationError``."""
    if n_train < 1 or n_test < 1:
        raise DomainError(f"need positive split sizes, got {n_train}, {n_test}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    proto_rng = np.random.default_rng(seed)
    prototypes = proto_rng.standard_normal((spec.n_prototypes, spec.d_raw))

    train_labels = _balanced_labels(n_train, spec.n_classes,
                                    np.random.default_rng(seed ^ _LABEL_SEED_OFFSET))
    test_labels = _balanced_labels(n_test, spec.n_classes,
                                   np.random.default_rng(seed ^ (_LABEL_SEED_OFFSET - 1)))
    slots = (spec.timesteps, spec.frames_per_slot, spec.d_raw)
    scratch = np.empty(slots)
    splits = []
    for first, labels, frames in ((0, train_labels, np.empty((n_train, *slots), np.float32)),
                                  (n_train, test_labels, np.empty((n_test, *slots), np.float32))):
        splits.append([_make_video(spec, prototypes, int(c),
                                   np.random.default_rng(seed ^ (first + k)), scratch,
                                   frames[k])
                       for k, c in enumerate(labels)])
        if not _finite(frames):
            raise GenerationError(f"a frame value does not fit float32 at noise_sigma "
                                  f"{spec.noise_sigma}")
    return Dataset(spec=spec, prototypes=prototypes, train=splits[0], test=splits[1], seed=seed)


def _finite(frames: np.ndarray) -> bool:
    """Whether every frame value is finite; min and max propagate NaN, so
    neither needs a frames-sized mask."""
    return not frames.size or bool(np.isfinite([frames.min(), frames.max()]).all())


# ---------------------------------------------------------------------------
# ground truth access


def relevance_oracle(planted: np.ndarray, classes, spec: ActivitySpec) -> np.ndarray:
    """The one recipe-membership rule: per timestep, whether its planted
    prototype id is in the union of the recipes of ``classes``.

    Generation stores it as a video's relevance mask, with the video's
    positive classes; for other classes it re-checks membership, under which
    a shared prototype can be relevant to one class and not another.
    """
    if any(not 0 <= c < spec.n_classes for c in classes):
        raise DomainError(f"classes {list(classes)} leave the range [0, {spec.n_classes})")
    recipe = frozenset().union(*(spec.class_recipes[c] for c in classes))
    return np.array([p in recipe for p in planted.tolist()], dtype=bool)


# ---------------------------------------------------------------------------
# serialization


def save_split(path, dataset: Dataset, split: str) -> None:
    """Write one split to ``path`` in the documented binary layout."""
    if split not in ("train", "test"):
        raise DomainError(f"split must be 'train' or 'test', got {split!r}")
    videos = dataset.train if split == "train" else dataset.test
    header = dataset.spec.header_dict()
    header.update({"n_videos": len(videos), "seed": dataset.seed, "split": split})
    # the frames field goes video by video, with no split-sized copy
    body = [np.ascontiguousarray(dataset.prototypes, dtype="<f8"),
            np.array([v.labels for v in videos], dtype="<f8"),
            np.array([v.relevance for v in videos], dtype=np.uint8),
            np.array([v.planted for v in videos], dtype="<i8"),
            *(np.ascontiguousarray(v.frames, dtype="<f4") for v in videos)]
    container.write(path, MAGIC, FORMAT_VERSION, header, body)


def split_layout(meta: dict) -> list:
    """The body fields an SGDS header implies (``container.read``'s layout):
    prototypes, labels, relevance, planted ids and frames.  Checks the spec
    and makes ``n_videos`` and ``seed`` ints."""
    spec = ActivitySpec.from_header_dict(meta)
    meta["n_videos"], meta["seed"] = int(meta["n_videos"]), int(meta["seed"])
    n, t = meta["n_videos"], spec.timesteps
    return [("<f8", (spec.n_prototypes, spec.d_raw)), ("<f8", (n, spec.n_classes)),
            ("u1", (n, t)), ("<i8", (n, t)),
            ("<f4", (n, t, spec.frames_per_slot, spec.d_raw))]


def load_split(path) -> tuple[ActivitySpec, np.ndarray, list, dict]:
    """Read one split file back; returns (spec, prototypes, videos, meta).
    Any file this module did not write intact raises ``FormatError``."""
    meta, (prototypes, labels, relevance, planted, frames) = container.read(
        path, MAGIC, FORMAT_VERSION, "dataset", split_layout)
    spec = ActivitySpec.from_header_dict(meta)
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
            (not _finite(frames), "a frame value is not finite")):
        if bad:
            raise FormatError(f"{path}: {what}")
    videos = [VideoSample(frames=f, labels=c, relevance=r, planted=p)
              for f, c, r, p in zip(frames, labels, relevance != 0, planted)]
    return spec, prototypes, videos, meta
