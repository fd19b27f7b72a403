"""Every tracked Python file compiles with warnings as errors.

An invalid escape such as ``'\\s'`` in a non-raw string literal is only
a warning at import, but ``python -W error`` refuses to compile the
module; this keeps every file loadable under that flag."""

import subprocess
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracked_sources_compile_with_warnings_as_errors():
    listed = subprocess.run(
        ["git", "ls-files", "*.py"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert listed, "git ls-files found no Python files"
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
