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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .boxes import BBox, iou

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
    annotations: list[tuple[BBox, int]] = field(default_factory=list)


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
                   ) -> list[tuple[BBox, ClassDef]] | None:
    placed: list[tuple[BBox, ClassDef]] = []
    for cdef in class_choices:
        w, h = _draw_size(cdef.shape, rng)
        ok = False
        for _ in range(MAX_PLACE_ATTEMPTS):
            x1 = int(rng.integers(0, IMAGE_SIZE - w + 1))
            y1 = int(rng.integers(0, IMAGE_SIZE - h + 1))
            box = BBox(float(x1), float(y1), float(x1 + w), float(y1 + h))
            if all(iou(box, other) <= MAX_GT_IOU for other, _ in placed):
                placed.append((box, cdef))
                ok = True
                break
        if not ok:
            return None
    return placed


def _render_scene(placed: list[tuple[BBox, ClassDef]], rng: np.random.Generator) -> Scene:
    img = np.full((3, IMAGE_SIZE, IMAGE_SIZE), BACKGROUND, dtype=np.float64)
    for box, cdef in placed:
        x1, y1 = int(box.x1), int(box.y1)
        w, h = int(box.width), int(box.height)
        mask = _shape_mask(cdef.shape, w, h)
        for ch in range(3):
            region = img[ch, y1:y1 + h, x1:x1 + w]
            region[mask] = cdef.color[ch]
    img += rng.normal(0.0, NOISE_SIGMA, size=img.shape)
    np.clip(img, 0.0, 1.0, out=img)
    return Scene(image=img, annotations=[(box, c.class_id) for box, c in placed])


def _scene_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def generate_dataset(classes: list[ClassDef], n: int, seed: int) -> list[Scene]:
    """n scenes with 1-4 objects each, class per object uniform over `classes`."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_unique(classes)
    scenes = []
    for i in range(n):
        rng = _scene_rng(seed, i)
        n_obj = int(rng.integers(1, 5))
        while True:
            choices = [classes[int(rng.integers(0, len(classes)))] for _ in range(n_obj)]
            placed = _place_objects(choices, rng)
            if placed is not None:
                break
            n_obj = max(1, n_obj - 1)
        scenes.append(_render_scene(placed, rng))
    return scenes


def generate_incremental_dataset(old_classes: list[ClassDef],
                                 new_classes: list[ClassDef],
                                 n: int, seed: int) -> list[Scene]:
    """Scenes for the incremental stage: annotations list new classes only.

    Every scene contains at least one new-class object. With probability 0.5
    a multi-object scene also contains an old-class object, which stays
    visible in the image but is stripped from the annotations.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_unique(old_classes + new_classes)
    new_ids = {c.class_id for c in new_classes}
    scenes = []
    for i in range(n):
        rng = _scene_rng(seed, i)
        n_obj = int(rng.integers(1, 5))
        include_old = rng.random() < 0.5
        while True:
            choices = [new_classes[int(rng.integers(0, len(new_classes)))]]
            for k in range(1, n_obj):
                if include_old and k == 1:
                    choices.append(old_classes[int(rng.integers(0, len(old_classes)))])
                else:
                    pool = old_classes + new_classes if include_old else new_classes
                    choices.append(pool[int(rng.integers(0, len(pool)))])
            placed = _place_objects(choices, rng)
            if placed is not None:
                break
            n_obj = max(1, n_obj - 1)
        scene = _render_scene(placed, rng)
        scene.annotations = [(b, cid) for b, cid in scene.annotations if cid in new_ids]
        scenes.append(scene)
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


def read_ppm(path: Path) -> np.ndarray:
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise DatasetError(f"cannot read image {path}: {e}") from e
    # header: magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments allowed between them
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4 and pos < len(raw):
        ch = raw[pos:pos + 1]
        if ch == b"#":
            pos = raw.find(b"\n", pos)
            if pos < 0:
                break
            pos += 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(raw) and not raw[end:end + 1].isspace():
                end += 1
            tokens.append(raw[pos:end])
            pos = end
    if len(tokens) < 4 or tokens[0] != b"P6":
        raise DatasetError(f"malformed PPM header in {path}")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 255:
        raise DatasetError(f"unsupported maxval {maxval} in {path}")
    pixels = np.frombuffer(raw[pos + 1:pos + 1 + 3 * w * h], dtype=np.uint8)
    if pixels.size != 3 * w * h:
        raise DatasetError(f"truncated pixel data in {path}")
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
                {"x1": b.x1, "y1": b.y1, "x2": b.x2, "y2": b.y2, "class_id": cid}
                for b, cid in scene.annotations
            ],
        })
    with open(directory / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=1)


def _class_id(value) -> int:
    # bool is an int subclass, and JSON true is not a class id
    if type(value) is not int or value < 1:
        raise ValueError(f"class_id must be an integer >= 1, got {value!r}")
    return value


def load_dataset(directory) -> list[Scene]:
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
    except OSError as e:
        raise DatasetError(f"cannot read manifest {manifest_path}: {e}") from e
    except json.JSONDecodeError as e:
        raise DatasetError(f"malformed manifest {manifest_path}: {e}") from e
    if not isinstance(manifest, list):
        raise DatasetError(f"malformed manifest {manifest_path}: expected a list of entries")
    scenes = []
    for i, entry in enumerate(manifest):
        try:
            image = read_ppm(directory / entry["file"])
            annotations = [
                (BBox(o["x1"], o["y1"], o["x2"], o["y2"]), _class_id(o["class_id"]))
                for o in entry["objects"]
            ]
        except (KeyError, TypeError, ValueError) as e:
            raise DatasetError(f"malformed manifest entry {i} in {manifest_path}: {e}") from e
        scenes.append(Scene(image=image, annotations=annotations))
    return scenes
