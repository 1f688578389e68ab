"""Synthetic long-range activity sequences with context-dependent relevance.

Every activity class owns a recipe of prototype vectors.  The ``anchored``
builder gives each class one prototype of its own plus several from a shared
pool; the ``paired`` builder composes every recipe entirely of shared
prototypes, so no single timestep identifies a class.  A shared prototype is
relevant exactly when the video's label includes it in its recipe, so the
same timestep content can be signal in one video and distractor in another;
filler timesteps mix background prototypes with shared prototypes from
foreign recipes (confusers).  Per-frame Gaussian noise sits on top.

A frame-level scorer cannot separate a shared prototype's relevant and
irrelevant occurrences, which is the property the context-conditioned
selector is supposed to exploit.  Under paired recipes the stakes are
higher: a selected confuser can complete a foreign class's pair and make
two labels indistinguishable to any classifier that only sees which
prototypes are present.

A video is ``timesteps`` slots of ``frames_per_slot`` raw frames each, and
its frames are stored in that layout, as a (timesteps, frames_per_slot,
d_raw) array: slot ``i`` holds one planted prototype plus per-frame noise.
Consumers index the slot axis; no code turns a slot index into frame
offsets.

Videos are generated independently: video ``i`` of a run seeded with ``s``
draws from ``default_rng(s ^ i)`` (global index across both splits), and
split-level label shuffles use a fixed large offset constant, so generation
is reproducible and order-independent.

Binary split files (format version 2) use the shared checksummed container
(``stepgate.container``): magic ``SGDS``, u32 format version, u32 header
length, u32 CRC-32, canonical JSON header (spec echo, counts, seed, split
name), then the body: the prototype matrix as little-endian float64, then
per video: label (i64, or L float64 indicator values in multi-label mode),
relevance mask (T bytes), planted prototype ids (T i64), and raw frames
(T*frames_per_slot*d_raw float64, slot by slot).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import container
from .errors import DomainError, FormatError, GenerationError

MAGIC = b"SGDS"
FORMAT_VERSION = 2

PLACEMENTS = ("middle", "spread")
TASKS = ("single_label", "multi_label")
SHARED_PER_CLASS = 2  # shared prototypes in each anchored recipe

# split-level label rngs must not collide with per-video rngs (seed ^ index);
# desk-scale indices stay far below this offset
_LABEL_SEED_OFFSET = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class ActivitySpec:
    """Complete recipe book for one synthetic dataset."""

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
    def default(cls, n_classes: int = 10, n_shared: int = 6, n_background: int = 8,
                d_raw: int = 32, timesteps: int = 32, frames_per_slot: int = 16,
                noise_sigma: float = 0.3, relevant_fraction: float = 0.3,
                confuser_share: float = 0.35, task: str = "single_label") -> "ActivitySpec":
        """One unique prototype per class plus ``SHARED_PER_CLASS`` from the
        shared pool, assigned in a rotating pattern so every shared prototype
        lands in at least two recipes."""
        if n_classes < 2:
            raise DomainError(f"need at least two classes, got {n_classes}")
        if n_shared < SHARED_PER_CLASS or n_background < 1:
            raise DomainError(
                f"need n_shared >= {SHARED_PER_CLASS} and n_background >= 1, "
                f"got {n_shared}, {n_background}"
            )
        if n_classes * SHARED_PER_CLASS < 2 * n_shared:
            raise DomainError(
                f"{n_shared} shared prototypes cannot all reach two of the "
                f"{n_classes} recipes with {SHARED_PER_CLASS} slots each"
            )
        shared = tuple(range(n_classes, n_classes + n_shared))
        background = tuple(range(n_classes + n_shared, n_classes + n_shared + n_background))
        recipes = []
        for c in range(n_classes):
            picks = {shared[(SHARED_PER_CLASS * c + j) % n_shared]
                     for j in range(SHARED_PER_CLASS)}
            recipes.append(frozenset({c} | picks))
        return cls(
            n_classes=n_classes,
            n_prototypes=n_classes + n_shared + n_background,
            d_raw=d_raw, timesteps=timesteps, frames_per_slot=frames_per_slot,
            noise_sigma=noise_sigma, relevant_fraction=relevant_fraction,
            confuser_share=confuser_share, task=task,
            class_recipes=tuple(recipes),
            shared_prototypes=frozenset(shared),
            background_prototypes=frozenset(background),
            placement=tuple(PLACEMENTS[c % 2] for c in range(n_classes)),
        )

    @classmethod
    def paired(cls, n_classes: int = 6, n_shared: int = 4, n_background: int = 4,
               d_raw: int = 16, timesteps: int = 16, frames_per_slot: int = 8,
               noise_sigma: float = 0.3, relevant_fraction: float = 0.3,
               confuser_share: float = 0.35, task: str = "single_label") -> "ActivitySpec":
        """Each recipe is a distinct pair drawn entirely from the shared pool,
        with no class-specific prototype anywhere.  Classification then hinges
        on which pair co-occurs, and a confuser slot can complete a foreign
        pair, so selection quality directly bounds attainable accuracy."""
        if n_classes < 2:
            raise DomainError(f"need at least two classes, got {n_classes}")
        if n_background < 1:
            raise DomainError(f"need n_background >= 1, got {n_background}")
        pairs = list(combinations(range(n_shared), 2))
        if n_classes > len(pairs):
            raise DomainError(
                f"{n_shared} shared prototypes yield {len(pairs)} distinct "
                f"pairs, fewer than {n_classes} classes"
            )
        recipes = tuple(frozenset(pairs[c]) for c in range(n_classes))
        for s in range(n_shared):
            uses = sum(1 for r in recipes if s in r)
            if uses < 2:
                raise DomainError(
                    f"shared prototype {s} lands in {uses} of the first "
                    f"{n_classes} pairs; raise n_classes or lower n_shared"
                )
        background = tuple(range(n_shared, n_shared + n_background))
        return cls(
            n_classes=n_classes,
            n_prototypes=n_shared + n_background,
            d_raw=d_raw, timesteps=timesteps, frames_per_slot=frames_per_slot,
            noise_sigma=noise_sigma, relevant_fraction=relevant_fraction,
            confuser_share=confuser_share, task=task,
            class_recipes=recipes,
            shared_prototypes=frozenset(range(n_shared)),
            background_prototypes=frozenset(background),
            placement=tuple(PLACEMENTS[c % 2] for c in range(n_classes)),
        )

    def __post_init__(self):
        if self.task not in TASKS:
            raise DomainError(f"task must be one of {TASKS}, got {self.task!r}")
        for name in ("n_classes", "n_prototypes", "d_raw", "timesteps", "frames_per_slot"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < self.relevant_fraction <= 1.0:
            raise DomainError(f"relevant_fraction must be in (0, 1], got {self.relevant_fraction}")
        if not 0.0 <= self.confuser_share <= 1.0:
            raise DomainError(f"confuser_share must be in [0, 1], got {self.confuser_share}")
        if self.noise_sigma < 0.0:
            raise DomainError(f"noise_sigma must be non-negative, got {self.noise_sigma}")
        if len(self.class_recipes) != self.n_classes:
            raise DomainError("one recipe per class required")
        if len(self.placement) != self.n_classes or any(p not in PLACEMENTS for p in self.placement):
            raise DomainError(f"placement must give one of {PLACEMENTS} per class")
        all_ids = set()
        for r in self.class_recipes:
            if not r:
                raise GenerationError("empty class recipe")
            all_ids |= r
        all_ids |= self.shared_prototypes | self.background_prototypes
        if all_ids and (min(all_ids) < 0 or max(all_ids) >= self.n_prototypes):
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
        if self.n_classes == 1:
            raw = base
        else:
            tilt = 0.85 + 0.3 * class_index / (self.n_classes - 1)
            raw = round(self.relevant_fraction * self.timesteps * tilt)
        return max(1, min(self.timesteps, max(base - 2, min(base + 2, raw))))

    def header_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "task": self.task,
            "n_classes": self.n_classes,
            "n_prototypes": self.n_prototypes,
            "d_raw": self.d_raw,
            "timesteps": self.timesteps,
            "frames_per_slot": self.frames_per_slot,
            "noise_sigma": self.noise_sigma,
            "relevant_fraction": self.relevant_fraction,
            "confuser_share": self.confuser_share,
            "class_recipes": [sorted(r) for r in self.class_recipes],
            "shared_prototypes": sorted(self.shared_prototypes),
            "background_prototypes": sorted(self.background_prototypes),
            "placement": list(self.placement),
        }

    @classmethod
    def from_header_dict(cls, h: dict) -> "ActivitySpec":
        return cls(
            n_classes=h["n_classes"], n_prototypes=h["n_prototypes"],
            d_raw=h["d_raw"], timesteps=h["timesteps"],
            frames_per_slot=h["frames_per_slot"], noise_sigma=h["noise_sigma"],
            relevant_fraction=h["relevant_fraction"],
            confuser_share=h["confuser_share"], task=h["task"],
            class_recipes=tuple(frozenset(r) for r in h["class_recipes"]),
            shared_prototypes=frozenset(h["shared_prototypes"]),
            background_prototypes=frozenset(h["background_prototypes"]),
            placement=tuple(h["placement"]),
        )


@dataclass
class VideoSample:
    """One generated video: raw frames, labels, and generation ground truth."""

    frames: np.ndarray          # (T, frames_per_slot, d_raw)
    labels: object              # int for single_label, (L,) 0/1 float64 for multi_label
    relevance: np.ndarray       # (T,) bool
    planted: np.ndarray         # (T,) int64 prototype id per timestep

    def positive_classes(self) -> list[int]:
        if np.ndim(self.labels) == 0:  # a scalar label is single-label
            return [int(self.labels)]
        return [int(i) for i in np.flatnonzero(np.asarray(self.labels))]


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
                rng: np.random.Generator, frames: np.ndarray) -> VideoSample:
    """Draw one video, writing its raw frames into ``frames`` (a C-contiguous
    (T, frames_per_slot, d_raw) float64 array)."""
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
    if not background and not confusers and n_rel < t:
        raise GenerationError("no filler prototypes available")
    for i, pos in enumerate(positions):
        planted[pos] = members[i % len(members)]
    rel_set = set(int(p) for p in positions)
    for pos in range(t):
        if pos in rel_set:
            continue
        if confusers and (not background or rng.random() < spec.confuser_share):
            planted[pos] = confusers[int(rng.integers(len(confusers)))]
        else:
            planted[pos] = background[int(rng.integers(len(background)))]

    # noise, then each slot's prototype added to its frames_per_slot frames
    rng.standard_normal(out=frames)
    frames *= spec.noise_sigma
    frames += prototypes[planted][:, None, :]
    relevance = np.asarray([int(p) in recipe for p in planted], dtype=bool)

    if spec.task == "single_label":
        labels: object = int(primary)
    else:
        vec = np.zeros(spec.n_classes, dtype=np.float64)
        vec[classes] = 1.0
        labels = vec
    return VideoSample(frames=frames, labels=labels, relevance=relevance, planted=planted)


def generate_dataset(spec: ActivitySpec, n_train: int, n_test: int, seed: int) -> Dataset:
    """Reproducible dataset: prototypes from the run seed, balanced labels
    per split, per-video streams from ``seed ^ global_index``.  Each split's
    frames are rows of one (n_videos, T, frames_per_slot, d_raw) array."""
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
    train_frames = np.empty((n_train, *slots))
    test_frames = np.empty((n_test, *slots))
    train, test = [], []
    for i in range(n_train + n_test):
        vrng = np.random.default_rng(seed ^ i)
        if i < n_train:
            train.append(_make_video(spec, prototypes, int(train_labels[i]), vrng,
                                     train_frames[i]))
        else:
            j = i - n_train
            test.append(_make_video(spec, prototypes, int(test_labels[j]), vrng,
                                    test_frames[j]))
    return Dataset(spec=spec, prototypes=prototypes, train=train, test=test, seed=seed)


# ---------------------------------------------------------------------------
# ground truth access


def relevance_oracle(video: VideoSample, class_index: int, spec: ActivitySpec) -> np.ndarray:
    """Per-timestep relevance of this video's content to an arbitrary class.

    For the video's own label this equals the stored mask; for a foreign
    class it re-checks recipe membership, under which a shared prototype can
    be relevant to one class and not another.
    """
    if not 0 <= class_index < spec.n_classes:
        raise DomainError(f"class {class_index} out of range [0, {spec.n_classes})")
    recipe = spec.class_recipes[class_index]
    return np.asarray([int(p) in recipe for p in video.planted], dtype=bool)


# ---------------------------------------------------------------------------
# serialization


def save_split(path, dataset: Dataset, split: str) -> None:
    """Write one split to ``path`` in the documented binary layout."""
    if split not in ("train", "test"):
        raise DomainError(f"split must be 'train' or 'test', got {split!r}")
    videos = dataset.train if split == "train" else dataset.test
    spec = dataset.spec
    header = spec.header_dict()
    header.update({"n_videos": len(videos), "seed": dataset.seed, "split": split})
    body = [np.ascontiguousarray(dataset.prototypes, dtype="<f8")]
    for v in videos:
        if spec.task == "single_label":
            body.append(struct.pack("<q", int(v.labels)))
        else:
            body.append(np.ascontiguousarray(v.labels, dtype="<f8"))
        body.append(v.relevance.astype(np.uint8))
        body.append(v.planted.astype("<i8"))
        body.append(np.ascontiguousarray(v.frames, dtype="<f8"))
    container.write(path, MAGIC, FORMAT_VERSION, header, body)


def load_split(path) -> tuple[ActivitySpec, np.ndarray, list, dict]:
    """Read one split file back; returns (spec, prototypes, videos, meta).

    The videos' frames are copied into rows of one (n_videos, T,
    frames_per_slot, d_raw) array.  Any file this module did not write intact raises
    ``FormatError``.
    """
    raw, meta, off = container.read(path, MAGIC, FORMAT_VERSION, "dataset")
    try:
        spec = ActivitySpec.from_header_dict(meta)
        meta["n_videos"], meta["seed"] = int(meta["n_videos"]), int(meta["seed"])
        p, d, t = spec.n_prototypes, spec.d_raw, spec.timesteps
        slots = (t, spec.frames_per_slot, d)
        n_values = t * spec.frames_per_slot * d
        prototypes = np.frombuffer(raw, dtype="<f8", count=p * d, offset=off).reshape(p, d).copy()
        off += p * d * 8
        if meta["n_videos"] * n_values * 8 > len(raw) - off:
            raise ValueError(f"{meta['n_videos']} videos do not fit in the body")
        frames = np.empty((meta["n_videos"], *slots))
        videos = []
        for k in range(meta["n_videos"]):
            if spec.task == "single_label":
                labels: object = int(struct.unpack_from("<q", raw, off)[0])
                off += 8
            else:
                labels = np.frombuffer(raw, dtype="<f8", count=spec.n_classes,
                                       offset=off).copy()
                off += spec.n_classes * 8
            relevance = np.frombuffer(raw, dtype=np.uint8, count=t, offset=off).astype(bool)
            off += t
            planted = np.frombuffer(raw, dtype="<i8", count=t, offset=off).copy()
            off += t * 8
            frames[k] = np.frombuffer(raw, dtype="<f8", count=n_values,
                                      offset=off).reshape(slots)
            off += n_values * 8
            videos.append(VideoSample(frames=frames[k], labels=labels,
                                      relevance=relevance, planted=planted))
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"{path}: corrupt dataset file ({exc})") from exc
    if off != len(raw):
        raise FormatError(f"{path}: {len(raw) - off} trailing bytes after the last record")
    return spec, prototypes, videos, meta
