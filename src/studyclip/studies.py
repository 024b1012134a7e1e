"""Study records, line-delimited ingestion format, and graymap pixel files.

One study per JSON line with fields ``id`` (unique in the file), ``images``
(list of objects with ``view`` plus either ``path`` to a portable graymap or
inline ``pixels`` as a nested list), optional ``findings`` / ``impression``
strings, and an optional ``labels`` map from class name to one of
positive/negative/uncertain/none.
Image paths are resolved relative to the record file's directory.

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

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .prompts import LABEL_VALUES

VIEWS = ("AP", "PA", "LATERAL", "UNKNOWN")


class DataFormatError(ValueError):
    """Malformed study record or pixel file."""


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


# ------------------------------------------------------------- graymap files


def write_pgm(path: str | Path, pixels: np.ndarray) -> None:
    """Binary portable graymap, maxval 255; intensities quantized from [0, 1]."""
    pixels = np.asarray(pixels, dtype=np.float64)
    h, w = pixels.shape
    data = np.clip(np.rint(pixels * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def _header_int(path, field: str, token: bytes, lo: int, hi: int | None = None) -> int:
    """A graymap header field: ASCII decimal digits with a value in [lo, hi]."""
    value = int(token) if token.isdigit() else None
    if value is None or value < lo or (hi is not None and value > hi):
        allowed = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
        raise DataFormatError(f"{path}: graymap {field} must be an integer {allowed}, got {token!r}")
    return value


def read_pgm(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    tokens: list[bytes] = []
    i = 0
    while len(tokens) < 4 and i < len(raw):
        while i < len(raw) and raw[i : i + 1].isspace():
            i += 1
        if i == len(raw):
            break
        if raw[i : i + 1] == b"#":
            while i < len(raw) and raw[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(raw) and not raw[i : i + 1].isspace():
            i += 1
        tokens.append(raw[start:i])
    if len(tokens) < 4:
        raise DataFormatError(f"{path}: truncated graymap header")
    magic = tokens[0]
    if magic not in (b"P5", b"P2"):
        raise DataFormatError(f"{path}: unsupported graymap magic {magic!r}")
    w = _header_int(path, "width", tokens[1], 1)
    h = _header_int(path, "height", tokens[2], 1)
    maxval = _header_int(path, "maxval", tokens[3], 1, 65535)
    if magic == b"P5":
        dtype = np.dtype(">u2" if maxval > 255 else np.uint8)  # 2 big-endian bytes per pixel above 255
        size = w * h * dtype.itemsize
        body = raw[i + 1 : i + 1 + size]
        if len(body) != size:
            raise DataFormatError(f"{path}: expected {size} pixel bytes, got {len(body)}")
        data = np.frombuffer(body, dtype=dtype).reshape(h, w).astype(np.float64)
    else:
        values = raw[i:].split()
        if len(values) != w * h:
            raise DataFormatError(f"{path}: expected {w * h} pixel values, got {len(values)}")
        if not all(v.isdigit() for v in values):
            raise DataFormatError(f"{path}: graymap pixel values must be non-negative integers")
        data = np.array([int(v) for v in values], dtype=np.float64).reshape(h, w)
    if data.max() > maxval:
        raise DataFormatError(f"{path}: graymap pixel value {int(data.max())} exceeds maxval {maxval}")
    return data / float(maxval)


# ----------------------------------------------------------------- JSON lines


def study_to_record(study: Study, image_paths: list[str]) -> dict:
    """The JSON record of a study whose images are stored at ``image_paths``, relative to the record file."""
    images = [{"path": path, "view": img.view} for path, img in zip(image_paths, study.images, strict=True)]
    record: dict = {"id": study.id, "images": images}
    if study.findings is not None:
        record["findings"] = study.findings
    if study.impression is not None:
        record["impression"] = study.impression
    if study.labels is not None:
        record["labels"] = dict(sorted(study.labels.items()))
    return record


def record_to_study(record: dict, base_dir: Path) -> Study:
    if not isinstance(record, dict):
        raise DataFormatError(f"study record must be an object, got {type(record).__name__}")
    try:
        study_id = record["id"]
        raw_images = record["images"]
    except KeyError as missing:
        raise DataFormatError(f"study record missing field {missing}") from None
    if not isinstance(raw_images, list) or not all(isinstance(entry, dict) for entry in raw_images):
        raise DataFormatError(f"study {study_id!r}: images must be a list of objects, got {raw_images!r}")
    images = []
    for entry in raw_images:
        view = entry.get("view", "UNKNOWN")
        if "pixels" in entry:
            pixels = entry["pixels"]
        elif "path" in entry:
            pixels = read_pgm(base_dir / entry["path"])
        else:
            raise DataFormatError(f"study {study_id!r}: image entry needs 'pixels' or 'path'")
        images.append(StudyImage(pixels=pixels, view=view))
    return Study(
        id=study_id,
        images=images,
        findings=record.get("findings"),
        impression=record.get("impression"),
        labels=record.get("labels"),
    )


def save_studies(path: str | Path, studies: list[Study], image_dir_name: str = "images") -> None:
    """Write one JSON record per line; pixel grids stored as graymaps next to it, named after the study id.

    Every id must be unique and a plain file-name component, checked before any file is written.
    """
    seen = set()
    for study in studies:
        if study.id in seen:
            raise DataFormatError(f"study id {study.id!r} is repeated: its image files would overwrite each other")
        if study.id in (".", "..") or any(c in study.id for c in "/\\\0"):
            raise DataFormatError(f"study id {study.id!r} is not a plain file name")
        seen.add(study.id)
    path = Path(path)
    image_dir = path.parent / image_dir_name
    image_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for study in studies:
        rel_paths = []
        for k, img in enumerate(study.images):
            rel = f"{image_dir_name}/{study.id}_{k}.pgm"
            write_pgm(path.parent / rel, img.pixels)
            rel_paths.append(rel)
        lines.append(json.dumps(study_to_record(study, rel_paths), sort_keys=True))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_studies(path: str | Path) -> list[Study]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    studies = []
    first_line: dict[str, int] = {}  # each id's line: a repeated id would share its image files and its rng stream
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            study = record_to_study(json.loads(line), path.parent)
        except json.JSONDecodeError as err:
            raise DataFormatError(f"{path}:{lineno}: invalid JSON ({err})") from None
        except (ValueError, TypeError, OSError) as err:  # a missing image file too; the failure is the cause
            raise DataFormatError(f"{path}:{lineno}: {err}") from err
        first = first_line.setdefault(study.id, lineno)
        if first != lineno:
            raise DataFormatError(f"{path}:{lineno}: study id {study.id!r} is repeated, first on line {first}")
        studies.append(study)
    if not studies:
        raise DataFormatError(f"{path}: no study records")
    return studies
