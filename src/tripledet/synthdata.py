"""Deterministic synthetic detection scenes: colored geometric shapes.

Each class is a (shape, color) pair drawn on a dark background with mild
pixel noise. Scenes are 3x64x64 float images in [0,1] with tight ground-truth
boxes. Generation is a pure function of (classes, n, seed); scene i draws from
its own generator seeded with (seed, i), so parallel generation partitions the
stream per scene index.

On disk a dataset is a directory of binary PPM (P6, 8-bit) images plus one
JSON manifest: a list of per-image entries
``{file, width, height, objects: [{x1, y1, x2, y2, class_id}]}``.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boxes import iou

IMAGE_SIZE = 64
MIN_OBJ = 10
MAX_OBJ = 28
MAX_PLACE_ATTEMPTS = 100
MAX_GT_IOU = 0.2
NOISE_SIGMA = 0.02
BACKGROUND = 0.10

SHAPES = ("square", "circle", "triangle", "cross", "ring", "bar")

_PALETTE = {
    "square": (0.85, 0.20, 0.20),
    "circle": (0.20, 0.80, 0.25),
    "triangle": (0.25, 0.35, 0.90),
    "cross": (0.90, 0.85, 0.20),
    "ring": (0.85, 0.25, 0.80),
    "bar": (0.20, 0.80, 0.80),
}


class DatasetError(ValueError):
    """Raised when a dataset directory or manifest cannot be read."""


@dataclass(frozen=True)
class ClassDef:
    class_id: int
    shape: str
    color: tuple[float, float, float]

    def __post_init__(self):
        if self.class_id < 1:
            raise ValueError(f"class_id must be >= 1, got {self.class_id}")
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")


@dataclass
class Scene:
    image: np.ndarray                      # (3, 64, 64) float64 in [0, 1]
    boxes: np.ndarray                      # (n, 4) float64 ground-truth boxes
    labels: np.ndarray                     # (n,) intp class ids


def make_classes(n: int) -> list[ClassDef]:
    """The first n canonical classes (ids 1..n)."""
    if not 1 <= n <= len(SHAPES):
        raise ValueError(f"n must be in 1..{len(SHAPES)}, got {n}")
    return [ClassDef(i + 1, s, _PALETTE[s]) for i, s in enumerate(SHAPES[:n])]


def _draw_size(shape: str, rng: np.random.Generator) -> tuple[int, int]:
    if shape in ("square", "circle", "ring"):
        s = int(rng.integers(MIN_OBJ, MAX_OBJ + 1))
        return s, s
    if shape == "bar":
        w = int(rng.integers(MIN_OBJ, 14))
        h = int(rng.integers(22, MAX_OBJ + 1))
        return w, h
    w = int(rng.integers(MIN_OBJ, MAX_OBJ + 1))
    h = int(rng.integers(MIN_OBJ, MAX_OBJ + 1))
    return w, h


def _shape_mask(shape: str, w: int, h: int) -> np.ndarray:
    """Boolean (h, w) inside-test evaluated at pixel centers."""
    ys, xs = np.mgrid[0:h, 0:w]
    xs = xs + 0.5
    ys = ys + 0.5
    cx, cy = w / 2.0, h / 2.0
    if shape in ("square", "bar"):
        return np.ones((h, w), dtype=bool)
    if shape == "circle":
        return ((xs - cx) / (w / 2)) ** 2 + ((ys - cy) / (h / 2)) ** 2 <= 1.0
    if shape == "ring":
        r2 = ((xs - cx) / (w / 2)) ** 2 + ((ys - cy) / (h / 2)) ** 2
        return (r2 <= 1.0) & (r2 >= 0.25)
    if shape == "triangle":
        return np.abs(xs - cx) <= (ys / h) * (w / 2.0)
    if shape == "cross":
        return (np.abs(xs - cx) <= w / 6.0) | (np.abs(ys - cy) <= h / 6.0)
    raise ValueError(f"unknown shape {shape!r}")


def _place_objects(class_choices: list[ClassDef], rng: np.random.Generator
                   ) -> list[tuple[tuple, ClassDef]] | None:
    placed: list[tuple[tuple, ClassDef]] = []
    for cdef in class_choices:
        w, h = _draw_size(cdef.shape, rng)
        for _ in range(MAX_PLACE_ATTEMPTS):
            x1 = int(rng.integers(0, IMAGE_SIZE - w + 1))
            y1 = int(rng.integers(0, IMAGE_SIZE - h + 1))
            box = (float(x1), float(y1), float(x1 + w), float(y1 + h))
            if all(iou(box, other) <= MAX_GT_IOU for other, _ in placed):
                placed.append((box, cdef))
                break
        else:
            return None
    return placed


def _render_scene(placed: list[tuple[tuple, ClassDef]], rng: np.random.Generator) -> Scene:
    img = np.full((3, IMAGE_SIZE, IMAGE_SIZE), BACKGROUND, dtype=np.float64)
    for box, cdef in placed:
        x1, y1, x2, y2 = map(int, box)
        mask = _shape_mask(cdef.shape, x2 - x1, y2 - y1)
        np.copyto(img[:, y1:y2, x1:x2], np.array(cdef.color)[:, None, None], where=mask)
    img += rng.normal(0.0, NOISE_SIGMA, size=img.shape)
    np.clip(img, 0.0, 1.0, out=img)
    return Scene(img, np.array([b for b, _ in placed], dtype=np.float64),
                 np.array([c.class_id for _, c in placed], dtype=np.intp))


def _draw(pool: list[ClassDef], rng: np.random.Generator) -> ClassDef:
    return pool[int(rng.integers(0, len(pool)))]


def _generate(n: int, seed: int, picker: Callable[[np.random.Generator], Callable]
              ) -> list[Scene]:
    """The one scene loop. Scene i draws its object count, then `picker(rng)`'s
    per-scene draws, then per attempt `pick(k)`'s k classes and their placement
    (one object fewer after a failed attempt), then the noise."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    scenes = []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        n_obj = int(rng.integers(1, 5))
        pick = picker(rng)
        while (placed := _place_objects(pick(n_obj), rng)) is None:
            n_obj = max(1, n_obj - 1)
        scenes.append(_render_scene(placed, rng))
    return scenes


def generate_dataset(classes: list[ClassDef], n: int, seed: int) -> list[Scene]:
    """n scenes with 1-4 objects each, class per object uniform over `classes`."""
    _check_unique(classes)
    return _generate(n, seed, lambda rng: lambda k: [_draw(classes, rng) for _ in range(k)])


def generate_incremental_dataset(old_classes: list[ClassDef],
                                 new_classes: list[ClassDef],
                                 n: int, seed: int) -> list[Scene]:
    """Scenes for the incremental stage: annotations list new classes only.

    Every scene contains at least one new-class object. With probability 0.5
    a multi-object scene also contains an old-class object, which stays
    visible in the image but is stripped from the annotations.
    """
    _check_unique(old_classes + new_classes)

    def picker(rng: np.random.Generator) -> Callable[[int], list[ClassDef]]:
        include_old = rng.random() < 0.5
        pool = old_classes + new_classes if include_old else new_classes

        def pick(k: int) -> list[ClassDef]:
            choices = [_draw(new_classes, rng)]
            if include_old and k > 1:
                choices.append(_draw(old_classes, rng))
            return choices + [_draw(pool, rng) for _ in range(k - len(choices))]
        return pick

    new_ids = [c.class_id for c in new_classes]
    scenes = _generate(n, seed, picker)
    for scene in scenes:
        keep = np.isin(scene.labels, new_ids)
        scene.boxes, scene.labels = scene.boxes[keep], scene.labels[keep]
    return scenes


def _check_unique(classes: list[ClassDef]) -> None:
    pairs = [(c.shape, c.color) for c in classes]
    ids = [c.class_id for c in classes]
    if len(set(pairs)) != len(pairs) or len(set(ids)) != len(ids):
        raise ValueError("class ids and (shape, color) pairs must be unique")


# -- PPM + manifest I/O -------------------------------------------------------

def write_ppm(path: Path, image: np.ndarray) -> None:
    """8-bit binary PPM (P6) from a (3,h,w) float image in [0,1]."""
    c, h, w = image.shape
    data = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.transpose(1, 2, 0).tobytes())


# magic, width, height and maxval, each after whitespace or '#' comments
# running to a newline, then the one whitespace byte that ends the header
_PPM_HEADER = re.compile(rb"P6" + rb"(?:\s|#[^\n]*\n)+(\d{1,9})" * 3 + rb"\s")


def read_ppm(path: Path) -> np.ndarray:
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise DatasetError(f"cannot read image {path}: {e}") from e
    header = _PPM_HEADER.match(raw)
    if header is None:
        raise DatasetError(f"malformed PPM header in {path}")
    w, h, maxval = map(int, header.groups())
    if maxval != 255 or w < 1 or h < 1:
        raise DatasetError(f"unsupported {w}x{h} image with maxval {maxval} in {path}")
    pixels = np.frombuffer(raw[header.end():], dtype=np.uint8)
    if pixels.size != 3 * w * h:
        raise DatasetError(f"{pixels.size} bytes of pixel data in {path}, expected {3 * w * h}")
    return pixels.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64) / 255.0


def save_dataset(scenes: list[Scene], directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = []
    for i, scene in enumerate(scenes):
        name = f"scene_{i:05d}.ppm"
        write_ppm(directory / name, scene.image)
        _, h, w = scene.image.shape
        manifest.append({
            "file": name,
            "width": w,
            "height": h,
            "objects": [
                {"x1": x1, "y1": y1, "x2": x2, "y2": y2, "class_id": cid}
                for (x1, y1, x2, y2), cid in zip(scene.boxes.tolist(), scene.labels.tolist())
            ],
        })
    with open(directory / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=1)


def _positive_int(name: str, value) -> int:
    # bool is an int subclass, and JSON true is not a count or a class id
    if type(value) is not int or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return value


def load_dataset(directory) -> list[Scene]:
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
    except OSError as e:
        raise DatasetError(f"cannot read manifest {manifest_path}: {e}") from e
    # ValueError also covers integers past Python's digit limit
    except (ValueError, RecursionError) as e:
        raise DatasetError(f"malformed manifest {manifest_path}: {e}") from e
    if not isinstance(manifest, list):
        raise DatasetError(f"malformed manifest {manifest_path}: expected a list of entries")
    scenes = []
    for i, entry in enumerate(manifest):
        try:
            size = tuple(_positive_int(k, entry[k]) for k in ("height", "width"))
            image = read_ppm(directory / entry["file"])
            if image.shape[1:] != size:
                raise ValueError(f"{entry['file']} is {image.shape[2]}x{image.shape[1]}, not "
                                 f"the manifest's {entry['width']}x{entry['height']}")
            boxes, labels = [], []
            for o in entry["objects"]:
                x1, y1, x2, y2 = box = tuple(o[k] for k in ("x1", "y1", "x2", "y2"))
                # math.isfinite also refuses a string, null or list coordinate
                if not (all(math.isfinite(v) for v in box) and x2 > x1 and y2 > y1):
                    raise ValueError(f"box {box} needs finite x2 > x1 and y2 > y1")
                boxes.append(box)
                labels.append(_positive_int("class_id", o["class_id"]))
            boxes = np.array(boxes, dtype=np.float64).reshape(-1, 4)
            labels = np.array(labels, dtype=np.intp)
        # OverflowError: a coordinate past float range, or a class id past intp's
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise DatasetError(f"malformed manifest entry {i} in {manifest_path}: {e}") from e
        scenes.append(Scene(image, boxes, labels))
    return scenes
