"""Study records, and their exact on-disk form: one ``.npz`` archive per split.

``save_split`` writes three arrays: ``pixels``, every image's float64 pixels,
raveled and concatenated in study order; ``shapes``, the (images, 2) array of
their shapes; and ``studies``, one JSON string with each study's ``id``,
``views`` (one per image, in order), ``findings``, ``impression`` and
``labels``, studies and label maps in their own order. ``load_split`` reads it
with ``np.load(..., allow_pickle=False)``, so loading runs no pickled code and
gives back every id, view, pixel byte, section and label as it was saved.

A ``StudyImage`` is immutable: it is a frozen dataclass, and it keeps its own
copy of the pixels in a read-only array that no flag can make writable. So the
same pixel array object always holds the same values, and evaluation can tell
that it has already encoded an image by its identity alone.

``StudyImage`` checks what it is given itself and raises ``DataFormatError``:
the pixels must be a non-empty 2-d grid of numbers (bool, int or float values,
or objects that convert to float; strings, complex values and ragged lists
are refused). Its copy is then checked with one ``np.minimum.reduce`` and one
``np.maximum.reduce``: a NaN or an infinity reaches the minimum or the
maximum, so finiteness is read from those two values first, and the range
[0, 1], with a 1e-9 tolerance, after.
"""

from __future__ import annotations

import itertools
import json
import math
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .prompts import LABEL_VALUES

VIEWS = ("AP", "PA", "LATERAL", "UNKNOWN")


class DataFormatError(ValueError):
    """Malformed study or split file."""


@dataclass(frozen=True)
class StudyImage:
    """One image of a study, with its view tag.

    The pixels are a private float64 copy over immutable bytes: a later change to
    the caller's array does not reach them, writing into them raises, and so does
    setting their ``writeable`` flag or assigning ``pixels``. ``dataclasses.replace``,
    ``copy`` and ``pickle`` build a new image through the same copy.
    """

    pixels: np.ndarray  # H x W, float64 in [0, 1], read-only
    view: str = "UNKNOWN"

    def __post_init__(self):
        try:
            pixels = np.asarray(self.pixels)
            if pixels.dtype.kind not in "biufO":  # strings parse as floats, complex values lose their imaginary part
                raise TypeError(f"got {pixels.dtype} values")
            pixels = pixels.astype(np.float64, copy=False)  # an object grid converts element by element
        except (TypeError, ValueError) as err:  # a ragged list too
            raise DataFormatError(f"image must be a non-empty 2-d grid of numbers: {err}") from None
        if pixels.ndim != 2 or pixels.size == 0:
            raise DataFormatError(f"image must be a non-empty 2-d grid of numbers, got shape {pixels.shape}")
        pixels = np.frombuffer(pixels.tobytes(), np.float64).reshape(pixels.shape)
        object.__setattr__(self, "pixels", pixels)
        lowest, highest = np.minimum.reduce(pixels, axis=None), np.maximum.reduce(pixels, axis=None)
        if not (math.isfinite(lowest) and math.isfinite(highest)):  # NaN and infinities reach one or the other
            raise DataFormatError("image intensities must be finite")
        if lowest < -1e-9 or highest > 1 + 1e-9:
            raise DataFormatError("image intensities must lie in [0, 1]")
        if self.view not in VIEWS:
            raise DataFormatError(f"view must be one of {VIEWS}, got {self.view!r}")

    def __reduce__(self):
        return StudyImage, (self.pixels, self.view)


@dataclass
class Study:
    """One examination: images with view tags plus report sections or labels."""

    id: str
    images: list[StudyImage]
    findings: str | None = None
    impression: str | None = None
    labels: dict[str, str] | None = None

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise DataFormatError(f"study id must be a non-empty str, got {self.id!r}")
        if not self.images:
            raise DataFormatError(f"study {self.id!r} has no images")
        for image in self.images:  # evaluation caches an image's encoding by its immutable pixels
            if not isinstance(image, StudyImage):
                raise DataFormatError(f"study {self.id!r}: images must be StudyImage, got {type(image).__name__}")
        for name, kind in (("findings", str), ("impression", str), ("labels", dict)):
            if not isinstance(value := getattr(self, name), (kind, type(None))):
                raise DataFormatError(f"study {self.id!r}: {name} must be {kind.__name__} or None, got {value!r}")
        self.findings = (self.findings or "").strip() or None  # a blank section is no section
        self.impression = (self.impression or "").strip() or None
        if self.labels is not None:
            for cls, value in self.labels.items():
                if value not in LABEL_VALUES:
                    raise DataFormatError(
                        f"study {self.id!r}: label value {value!r} for {cls!r} not in {LABEL_VALUES}"
                    )
        if self.findings is None and self.impression is None and self.labels is None:
            raise DataFormatError(f"study {self.id!r} has neither text sections nor labels")

    @property
    def sections(self) -> list[str]:
        return [s for s in (self.findings, self.impression) if s]


# ------------------------------------------------------------------ split files

_SPLIT_ARRAYS = ("pixels", "shapes", "studies")
_RECORD_FIELDS = ("id", "views", "findings", "impression", "labels")


def _refuse_repeated_ids(path: str | Path, studies: list[Study]) -> None:
    seen = set()
    for study in studies:
        if study.id in seen:
            raise DataFormatError(f"{path}: study id {study.id!r} is repeated")
        seen.add(study.id)


def save_split(path: str | Path, studies: list[Study]) -> None:
    """Write ``studies`` to one ``.npz`` archive at ``path``, which ``load_split`` reads back exactly.

    Every id must be unique, checked before the file is opened.
    """
    _refuse_repeated_ids(path, studies)
    images = [image for study in studies for image in study.images]
    records = [
        {"id": s.id, "views": [image.view for image in s.images], "findings": s.findings,
         "impression": s.impression, "labels": s.labels}
        for s in studies
    ]
    with open(path, "wb") as fh:  # given a name, np.savez would append ".npz" to it
        np.savez(
            fh,
            pixels=np.concatenate([np.empty(0), *(image.pixels.ravel() for image in images)]),
            shapes=np.array([image.pixels.shape for image in images], dtype=np.int64).reshape(-1, 2),
            studies=np.array(json.dumps(records)),
        )


def load_split(path: str | Path) -> list[Study]:
    """The studies ``save_split`` wrote at ``path``, bit for bit.

    A file that is not such an archive raises ``DataFormatError`` naming it and, where the fault
    lies in one study's record or images, the study; a missing file raises ``FileNotFoundError``.
    """
    try:
        with open(path, "rb") as fh:  # given a name, np.load leaves the file open when the archive is damaged
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise DataFormatError("holds one array, not an archive of arrays")
            missing = [name for name in _SPLIT_ARRAYS if name not in archive.files]
            if missing:
                raise DataFormatError(f"has no {missing[0]!r} array")
            pixels, shapes, text = (archive[name] for name in _SPLIT_ARRAYS)
    # what a damaged archive raises; a DataFormatError raised above is a ValueError and gets the path here too
    except (ValueError, EOFError, NotImplementedError, zipfile.BadZipFile) as err:
        raise DataFormatError(f"{path}: {err}") from err
    try:
        records = json.loads(text.item()) if text.dtype.kind == "U" and text.ndim == 0 else None
    except json.JSONDecodeError:
        records = None
    if not isinstance(records, list):
        raise DataFormatError(f"{path}: 'studies' must be one string holding a JSON list")
    if not (shapes.dtype.kind in "iu" and shapes.ndim == 2 and shapes.shape[1] == 2 and (shapes >= 1).all()):
        raise DataFormatError(f"{path}: 'shapes' must be (images, 2) positive ints, got {shapes.dtype} {shapes.shape}")
    ends = list(itertools.accumulate((h * w for h, w in shapes.tolist()), initial=0))  # Python ints: no overflow
    if pixels.shape != (ends[-1],):
        raise DataFormatError(f"{path}: the image shapes cover {ends[-1]} pixels, 'pixels' has shape {pixels.shape}")
    studies, used = [], 0
    for record in records:
        study_id = record.get("id") if isinstance(record, dict) else None
        if not isinstance(record, dict) or record.keys() != set(_RECORD_FIELDS):
            raise DataFormatError(f"{path}: study {study_id!r}: a record must hold the fields {_RECORD_FIELDS}")
        views = record["views"]
        if not isinstance(views, list) or used + len(views) > len(shapes):
            left = len(shapes) - used
            raise DataFormatError(f"{path}: study {study_id!r}: views must list at most {left} images, got {views!r}")
        try:
            images = [
                StudyImage(pixels[ends[k] : ends[k + 1]].reshape(shapes[k]), view) for k, view in enumerate(views, used)
            ]
        except DataFormatError as err:
            raise DataFormatError(f"{path}: study {study_id!r}: {err}") from err
        try:
            studies.append(Study(record["id"], images, record["findings"], record["impression"], record["labels"]))
        except DataFormatError as err:  # its message names the study
            raise DataFormatError(f"{path}: {err}") from err
        used += len(views)
    if used != len(shapes):
        raise DataFormatError(f"{path}: {len(shapes) - used} stored images belong to no study")
    _refuse_repeated_ids(path, studies)
    return studies
