"""Train the paper's Random Forest into the benchmark's own cache.

Usage, from the root of a checkout::

    python3 perfbench/prepare.py

Training takes a few minutes, so it happens once per checkout and never
inside a timed run.  The forest is stored under
``.bench_build/perfbench/forest-<key>/``, where ``<key>`` hashes every
source file of ``src/repro`` together with the Python and numpy
versions.  A checkout therefore never loads a forest trained by other
code: ``train_predictor``'s own file key covers only the training
parameters and population.  The repository's ``.cache/`` is neither read
nor written.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def source_key() -> str:
    """Hash of the program's source tree and the interpreter versions."""
    import numpy

    digest = hashlib.sha256()
    digest.update(f"{sys.version}\0{numpy.__version__}\0".encode())
    package = os.path.join(SRC, "repro")
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\0")
    return digest.hexdigest()[:16]


def forest_dir() -> str:
    """The cache directory ``train_predictor`` is pointed at."""
    return os.path.join(BUILD_DIR, f"forest-{source_key()}")


def forest_ready(directory: str) -> bool:
    return os.path.isdir(directory) and any(
        name.endswith(".pkl") for name in os.listdir(directory)
    )


def prepare() -> str:
    """Train the forest unless this source tree already has one.

    Training writes into a scratch directory that is renamed into place
    only when complete, so an interrupted preparation never leaves a
    partial pickle behind for a timed run to load.
    """
    from repro.hardware.apu import APUModel
    from repro.ml.predictors import train_predictor

    directory = forest_dir()
    if forest_ready(directory):
        return directory
    staging = f"{directory}.tmp-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    start = time.perf_counter()
    try:
        train_predictor(apu=APUModel(), cache_dir=staging)
        os.replace(staging, directory)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    print(
        f"trained the forest into {os.path.relpath(directory, ROOT)} "
        f"in {time.perf_counter() - start:.1f}s",
        file=sys.stderr,
    )
    return directory


def require_source() -> None:
    """Exit non-zero when the checkout has no program to benchmark."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


if __name__ == "__main__":
    require_source()
    print(prepare())
