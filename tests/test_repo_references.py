"""Docs, workflows and the verify skill name only files that exist.

A deleted script or benchmark cannot stay referenced: every repo path
with a source / doc / artifact suffix that the prose or a CI job names
must be on disk.  Plain regex over the text — no YAML dependency.
"""

from __future__ import annotations

import glob
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PATH = re.compile(
    r"(?<![\w./-])"
    r"(?:scripts|benchmarks|examples|docs|tests|src/repro)/[\w./-]*"
    r"\.(?:py|md|json|yml)\b"
)

#: DESIGN.md's "one module per level" placeholder.
PLACEHOLDERS = {"src/repro/core/X.py"}


def _sources():
    names = ["README.md", "DESIGN.md", "EXPERIMENTS.md",
             ".claude/skills/verify/SKILL.md"]
    for pattern in ("docs/*.md", ".github/workflows/*.yml"):
        names.extend(
            os.path.relpath(path, ROOT)
            for path in sorted(glob.glob(os.path.join(ROOT, pattern)))
        )
    return [name for name in names if os.path.exists(os.path.join(ROOT, name))]


@pytest.mark.parametrize("source", _sources())
def test_named_paths_exist(source):
    with open(os.path.join(ROOT, source), encoding="utf-8") as fh:
        text = fh.read()
    named = set(PATH.findall(text)) - PLACEHOLDERS
    missing = sorted(
        path for path in named if not os.path.exists(os.path.join(ROOT, path))
    )
    assert not missing, "%s names files that do not exist: %s" % (
        source, missing
    )


def test_the_pattern_sees_paths():
    # Guard the guard: a regex that matches nothing passes vacuously.
    text = "see `scripts/smoke_bench.py`, docs/cluster.md and src/repro/core/X.py"
    assert PATH.findall(text) == [
        "scripts/smoke_bench.py", "docs/cluster.md", "src/repro/core/X.py",
    ]
