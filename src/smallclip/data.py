"""Data model and on-disk formats.

A dataset is a JSON-Lines manifest, one clip per line:

    {"id": str, "split": "train|val|test", "label": int|null,
     "audio": [float...]|null,
     "frames": [{"f": [float...], "s": [float...], "av": [float, float]}, ...]}

Per-frame arrays: "f" is the face feature vector (length d_feature), "s" the
per-class scores (length n_classes), "av" the arousal-valence pair. Floats are
written with full round-trip precision, so write -> load is bit-exact.

Class distributions live in a small CSV with header ``class,count``, one row
per class in canonical order.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataValidationError, ParseError

SPLITS = ("train", "val", "test")

# no clip id holds one: a comma ends a score table's id field, and
# ``str.splitlines`` ends its row at any of these
ID_BREAKS = frozenset(",\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def id_fault(clip_id):
    """Why no score table can hold ``clip_id``, or None. A comma or a line
    break would split its row, and a lone surrogate (which a JSON string
    can spell) has no UTF-8 form to write."""
    if not ID_BREAKS.isdisjoint(clip_id):
        return "a score table cannot hold an id with a comma or a line break"
    try:
        clip_id.encode("utf-8")
    except UnicodeEncodeError:
        return "a score table cannot hold an id with a lone surrogate"
    return None


# Canonical 7-emotion order used throughout (index 0..6).
CANONICAL_CLASS_NAMES = ("Angry", "Disgust", "Fear", "Happy", "Sad", "Neutral", "Surprise")


def class_names(n_classes: int) -> tuple[str, ...]:
    """Class names for an ``n_classes``-way problem (canonical names when 7)."""
    if n_classes == len(CANONICAL_CLASS_NAMES):
        return CANONICAL_CLASS_NAMES
    return tuple(f"class{i}" for i in range(n_classes))


class Clip:
    """An ordered frame sequence plus optional per-clip audio vector and label.

    Frames are stored stacked: ``features`` is (L, d_feature), ``scores`` is
    (L, n_classes), ``av`` is (L, 2). ``audio`` is a (d_audio,) vector or None;
    ``label`` is a class index or None.
    """

    __slots__ = ("id", "split", "label", "features", "scores", "av", "audio")

    def __init__(self, id, split, features, scores, av, audio=None, label=None):
        self.id = str(id)
        self.split = split
        self.features = np.asarray(features, dtype=np.float64)
        self.scores = np.asarray(scores, dtype=np.float64)
        self.av = np.asarray(av, dtype=np.float64)
        self.audio = None if audio is None else np.asarray(audio, dtype=np.float64)
        self.label = None if label is None else int(label)

    def with_split(self, split) -> "Clip":
        """This clip under another split, sharing its arrays."""
        return Clip(self.id, split, self.features, self.scores, self.av,
                    audio=self.audio, label=self.label)

    @property
    def n_frames(self) -> int:
        return self.features.shape[0]


@dataclass
class ClassDistribution:
    """Per-class clip counts for one split."""

    counts: np.ndarray
    total: int = field(init=False)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if np.any(self.counts < 0):
            raise DataValidationError("class counts must be nonnegative")
        self.total = int(self.counts.sum())

    @classmethod
    def from_labels(cls, labels, n_classes):
        counts = np.bincount(np.asarray(labels, dtype=np.int64), minlength=n_classes)
        return cls(counts)


@dataclass
class Dataset:
    """Immutable-after-load bundle of clips plus declared dimensions.

    ``dims`` is (d_feature, n_classes, d_audio); d_audio is None when no clip
    carries audio. ``meta`` holds the synthetic-generation recipe when the
    dataset came from :func:`smallclip.synth.generate_synthetic`.
    """

    clips: list
    dims: tuple
    meta: dict | None = None

    @property
    def d_feature(self):
        return self.dims[0]

    @property
    def n_classes(self):
        return self.dims[1]

    @property
    def d_audio(self):
        return self.dims[2]

    def split(self, name: str) -> list:
        return [c for c in self.clips if c.split == name]

    def labeled(self, split: str | None = None, modality="video") -> list:
        """The labeled clips of ``split`` (every split when None) that a
        source of ``modality`` covers: for audio, only those with audio."""
        clips = self.clips if split is None else self.split(split)
        return [c for c in clips if c.label is not None
                and (modality == "video" or c.audio is not None)]

    def distribution(self, split: str) -> ClassDistribution:
        labels = [c.label for c in self.labeled(split)]
        return ClassDistribution.from_labels(labels, self.n_classes)


def _check_clip(clip: Clip, dims):
    d_feature, n_classes, d_audio = dims
    where = f"clip {quoted(clip.id)}"
    fault = id_fault(clip.id)
    if fault:
        raise DataValidationError(f"{where}: {fault}")
    if clip.n_frames < 1:
        raise DataValidationError(f"{where}: must contain at least one frame")
    if clip.split not in SPLITS:
        raise DataValidationError(f"{where}: unknown split {quoted(clip.split)}")
    if clip.features.shape != (clip.n_frames, d_feature):
        raise DataValidationError(
            f"{where}: feature dimension {clip.features.shape[1:]} != ({d_feature},)"
        )
    if clip.scores.shape != (clip.n_frames, n_classes):
        raise DataValidationError(
            f"{where}: scores dimension {clip.scores.shape[1:]} != ({n_classes},)"
        )
    if clip.av.shape != (clip.n_frames, 2):
        raise DataValidationError(f"{where}: av must be (L, 2), got {clip.av.shape}")
    if clip.audio is not None:
        if d_audio is not None and clip.audio.shape != (d_audio,):
            raise DataValidationError(
                f"{where}: audio dimension {clip.audio.shape} != ({d_audio},)"
            )
    if clip.label is not None and not (0 <= clip.label < n_classes):
        raise DataValidationError(f"{where}: label {clip.label} out of range [0, {n_classes})")
    for name, arr in (("features", clip.features), ("scores", clip.scores),
                      ("av", clip.av), ("audio", clip.audio)):
        if arr is not None and not np.all(np.isfinite(arr)):
            raise DataValidationError(f"{where}: non-finite value in {name}")


def build_dataset(clips, meta=None) -> Dataset:
    """Assemble clips into a Dataset, inferring dims from the first clip and
    enforcing them (plus ranks, uniqueness, finiteness and ids that a score
    table can hold) globally."""
    if not clips:
        raise DataValidationError("dataset contains no clips")
    d_audio = None
    for c in clips:  # ranks first: the dims are read off the shapes
        for name, ndim in (("features", 2), ("scores", 2), ("av", 2),
                           ("audio", 1)):
            arr = getattr(c, name)
            if arr is not None and arr.ndim != ndim:
                raise DataValidationError(
                    f"clip {quoted(c.id)}: {name} must be {ndim}-dimensional, "
                    f"got shape {arr.shape}")
        if d_audio is None and c.audio is not None:
            d_audio = c.audio.shape[0]
    first = clips[0]
    dims = (first.features.shape[1], first.scores.shape[1], d_audio)
    seen = set()
    for c in clips:
        if c.id in seen:
            raise DataValidationError(f"duplicate clip id {quoted(c.id)}")
        seen.add(c.id)
        _check_clip(c, dims)
    return Dataset(list(clips), dims, meta=meta)


def _clip_from_json(obj, line_no):
    try:
        frames, clip_id = obj["frames"], obj["id"]
        if type(clip_id) is not str:
            raise ParseError(f"line {line_no}: id must be a string, got "
                             f"{quoted(clip_id, spell=json.dumps)}")
        label = obj.get("label")
        if label is not None and type(label) is not int:  # bool is an int
            raise ParseError(f"line {line_no}: label must be an integer or "
                             f"null, got {quoted(label, spell=json.dumps)}")
        if not isinstance(frames, list) or not frames:
            raise DataValidationError(
                f"clip {quoted(clip_id)}: must contain at least one frame"
            )
        features = np.array([fr["f"] for fr in frames], dtype=np.float64)
        scores = np.array([fr["s"] for fr in frames], dtype=np.float64)
        av = np.array([fr["av"] for fr in frames], dtype=np.float64)
        return Clip(clip_id, obj["split"], features, scores, av,
                    audio=obj.get("audio"), label=label)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"line {line_no}: malformed clip record ({e})") from e


def quoted(value, limit: int = 60, spell=repr) -> str:
    """``spell(value)`` cut to ``limit`` characters and ``...``, for errors
    that quote a value read from a file (``spell=json.dumps`` spells it as
    the JSON it came from)."""
    r = spell(value)
    return r if len(r) <= limit else r[:limit] + "..."


def read_text(path, what, error=ParseError) -> str:
    """The whole UTF-8 text of ``path``.

    A file that cannot be opened or read, or is not UTF-8, raises ``error``
    naming ``what`` and ``path``.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def load_dataset(manifest_path) -> Dataset:
    """Load and validate a JSON-Lines clip manifest.

    The file is parsed line by line rather than read whole, so a large
    manifest is never held in memory as text.
    """
    clips = []
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except ValueError as e:  # also an integer too long to read
                    raise ParseError(f"line {line_no}: invalid JSON "
                                     f"({getattr(e, 'msg', e)})") from e
                clips.append(_clip_from_json(obj, line_no))
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read manifest {manifest_path}: "
                         f"{exc}") from exc
    return build_dataset(clips)


def _floats(arr) -> list:
    return np.asarray(arr, dtype=np.float64).tolist()


def clip_to_json_line(clip: Clip) -> str:
    obj = {
        "id": clip.id,
        "split": clip.split,
        "label": clip.label,
        "audio": None if clip.audio is None else _floats(clip.audio),
        "frames": [
            {"f": _floats(clip.features[i]), "s": _floats(clip.scores[i]),
             "av": _floats(clip.av[i])}
            for i in range(clip.n_frames)
        ],
    }
    return json.dumps(obj, separators=(",", ":"))


def dataset_to_manifest_text(ds: Dataset) -> str:
    return "".join(clip_to_json_line(c) + "\n" for c in ds.clips)


def write_dataset(ds: Dataset, manifest_path):
    atomic_write_text(manifest_path, dataset_to_manifest_text(ds))


def atomic_write_text(path, text):
    """Write-then-rename so a partial file is never left behind.

    The text goes to a uniquely named temp file in the target's directory,
    which replaces ``path`` once complete; on any failure the temp file is
    removed. The file gets the usual ``0o666 & ~umask`` mode. An OSError
    becomes a ParseError naming ``path``.
    """
    import tempfile  # here, not at the top: most commands never write

    path = os.fspath(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                                   suffix=".tmp",
                                   dir=os.path.dirname(path) or ".")
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.lexists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ParseError(f"cannot write {path}: "
                             f"{exc.strerror or exc}") from exc
        raise


# -- class distribution CSV ---------------------------------------------------

def load_distribution(path) -> ClassDistribution:
    """Read a ``class,count`` CSV; the counts must not all be 0."""
    import csv  # imported where used: every command loads this module

    try:
        rows = list(csv.reader(io.StringIO(read_text(path, "distribution"),
                                           newline="")))
    except csv.Error as e:  # such as a field past csv's size limit
        raise ParseError(f"{path}: {e}") from e
    if not rows or [c.strip() for c in rows[0]] != ["class", "count"]:
        raise ParseError(f"{path}: expected header 'class,count'")
    counts = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ParseError(f"{path}: line {i}: expected 2 columns")
        try:
            counts.append(int(row[1]))
        except ValueError as e:
            raise ParseError(f"{path}: line {i}: bad count {quoted(row[1])}") from e
        if counts[-1] < 0:
            raise ParseError(f"{path}: line {i}: negative count {quoted(row[1])}")
    if sum(counts) > np.iinfo(np.int64).max:  # int64 would wrap silently
        raise ParseError(f"{path}: class counts sum past the int64 limit")
    dist = ClassDistribution(np.array(counts, dtype=np.int64))
    if dist.total == 0:
        raise ParseError(f"{path}: class counts sum to 0")
    return dist


def packaged_distribution_path(name="afew_test_dist.csv"):
    """Path of a distribution file shipped inside the package."""
    return os.path.join(os.path.dirname(__file__), "data", name)


# -- validation report --------------------------------------------------------

@dataclass
class ValidationReport:
    """Report-only summary of a dataset (never raises)."""

    dims: tuple
    split_counts: dict          # split -> ClassDistribution
    n_clips: int
    n_missing_audio: int
    length_histogram: dict      # L -> clip count

    @property
    def missing_audio_fraction(self) -> float:
        return self.n_missing_audio / self.n_clips if self.n_clips else 0.0

    def to_text(self) -> str:
        names = class_names(self.dims[1])
        lines = [
            f"clips: {self.n_clips}",
            f"dims: d_feature={self.dims[0]} n_classes={self.dims[1]} "
            f"d_audio={self.dims[2]}",
            f"missing audio: {self.n_missing_audio} "
            f"({100.0 * self.missing_audio_fraction:.1f}%)",
        ]
        for split in SPLITS:
            dist = self.split_counts[split]
            per_class = " ".join(f"{n}={c}" for n, c in zip(names, dist.counts))
            lines.append(f"{split}: total={dist.total} {per_class}")
        hist = " ".join(f"{k}:{v}" for k, v in sorted(self.length_histogram.items()))
        lines.append(f"length histogram: {hist}")
        return "\n".join(lines)


def validate_dataset(ds: Dataset) -> ValidationReport:
    """Summarize per-split class counts, audio coverage, and length histogram."""
    hist = {}
    missing_audio = 0
    for c in ds.clips:
        hist[c.n_frames] = hist.get(c.n_frames, 0) + 1
        if c.audio is None:
            missing_audio += 1
    return ValidationReport(
        dims=ds.dims,
        split_counts={s: ds.distribution(s) for s in SPLITS},
        n_clips=len(ds.clips),
        n_missing_audio=missing_audio,
        length_histogram=hist,
    )
