#!/usr/bin/env python3
"""Run every shipped preset (configs/*.cfg) into out/<preset>/ of the repo.

The output paths are absolute, so the committed outputs are regenerated in
place from any working directory, from this checkout's src/ ahead of any
installed copy.  `main` comes from `robinspectra.__main__`,
which pins BLAS to one thread before numpy loads, so the files are the ones
`python -m robinspectra run` writes.
"""
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "src"))

from robinspectra.__main__ import main  # noqa: E402

for cfg in sorted((HERE / "configs").glob("*.cfg")):
    print(f"== {cfg.stem} ==")
    rc = main(["run", "--config", str(cfg), "--out", str(HERE / "out" / cfg.stem)])
    if rc != 0:
        sys.exit(rc)
