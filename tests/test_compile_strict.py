"""Every tracked Python file compiles with warnings as errors.

An invalid escape such as ``'\\s'`` in a non-raw string literal is only
a warning at import, but ``python -W error`` refuses to compile the
module; this keeps every file loadable under that flag."""

import os
import subprocess
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _python_files() -> list[str]:
    """``git ls-files``; outside a checkout (an exported tree), every
    ``*.py`` under ROOT, skipping dot-directories and ``__pycache__``."""
    try:
        return subprocess.run(
            ["git", "ls-files", "*.py"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        found = []
        for dirpath, dirnames, filenames in os.walk(ROOT):
            dirnames[:] = [
                d for d in dirnames if not d.startswith(".") and d != "__pycache__"
            ]
            found += [
                os.path.relpath(os.path.join(dirpath, f), ROOT)
                for f in filenames
                if f.endswith(".py")
            ]
        return sorted(found)


def test_tracked_sources_compile_with_warnings_as_errors():
    listed = _python_files()
    assert listed, "found no Python files"
    failures = []
    for rel in listed:
        path = ROOT / rel
        if not path.exists():  # deleted in the working tree
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                compile(path.read_bytes(), str(path), "exec")
            except (SyntaxError, Warning) as ex:
                failures.append(f"{rel}: {ex}")
    assert not failures, "\n".join(failures)
