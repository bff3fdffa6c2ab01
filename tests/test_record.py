"""`tools/record.py --compare` on tiny hand-made records."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from tripledet.detector import new_model, save_checkpoint
from tripledet.verification import MICRO_CONFIG

TOOL = Path(__file__).resolve().parent.parent / "tools" / "record.py"


def _make_record(directory: Path, files: dict[str, bytes]) -> None:
    directory.mkdir()
    for name, data in files.items():
        (directory / name).write_bytes(data)
    entries = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    (directory / "record.json").write_text(json.dumps(entries))


def _compare(a: Path, b: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), "--compare", str(a), str(b)],
                          capture_output=True, text=True)


def _checkpoint(tmp_path: Path, scale: float) -> bytes:
    model = new_model(MICRO_CONFIG, 1, seed=0)
    model.params["rcnn.cls.w"].data *= scale
    path = tmp_path / f"model_{scale}.ckpt"
    save_checkpoint(model, path)
    return path.read_bytes()


def test_compare_agreeing_records(tmp_path):
    files = {"a.csv": b"1,2\n", "m.ckpt": _checkpoint(tmp_path, 1.0)}
    _make_record(tmp_path / "A", files)
    _make_record(tmp_path / "B", files)
    proc = _compare(tmp_path / "A", tmp_path / "B")
    assert proc.returncode == 0 and proc.stdout.strip() == "records agree"


def test_compare_lists_differences_and_checkpoint_relative_difference(tmp_path):
    same = b"x"
    _make_record(tmp_path / "A", {"same.txt": same, "m.ckpt": _checkpoint(tmp_path, 1.0),
                                  "log.csv": b"1\n", "gone.json": b"{}"})
    _make_record(tmp_path / "B", {"same.txt": same, "m.ckpt": _checkpoint(tmp_path, 1.5),
                                  "log.csv": b"2\n", "new.json": b"{}"})
    proc = _compare(tmp_path / "A", tmp_path / "B")
    assert proc.returncode == 1
    lines = proc.stdout.strip().splitlines()
    assert lines == [
        f"only in {tmp_path / 'A'}: gone.json",
        "differs: log.csv",
        "differs: m.ckpt: largest per-parameter relative difference 5.000e-01 (rcnn.cls.w)",
        f"only in {tmp_path / 'B'}: new.json",
    ]


def test_compare_missing_record_exits_2(tmp_path):
    _make_record(tmp_path / "A", {"same.txt": b"x"})
    (tmp_path / "B").mkdir()
    proc = _compare(tmp_path / "A", tmp_path / "B")
    assert proc.returncode == 2 and "cannot read a record" in proc.stderr
