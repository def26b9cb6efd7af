"""Compare two identity-corpus outputs case by case.

Run from the repository root::

    python tests/identity_diff.py OLD NEW

``OLD`` and ``NEW`` are files written by ``tests/identity_corpus.py``.  A
case is keyed by every field of its line but the last, the hash.  The
script prints one line for each case whose hash changed, that only ``NEW``
has or that only ``OLD`` has, then a summary line ``<changed> changed,
<added> added, <removed> removed, <same> same``.  It exits 0 whatever the
counts: a correctness change may move cases on purpose, and hashes depend
on the NumPy and libm builds, so only runs on one machine compare.  It
exits 2 when a file cannot be read or a case appears twice.
"""

from __future__ import annotations

import sys


def read_cases(path: str) -> dict[str, str]:
    """The case lines of a corpus output, as key -> hash; the last line,
    ``<cases> <digest>``, is skipped."""
    cases: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            if len(fields) < 3:  # the summary line, or a blank one
                continue
            key, digest = " ".join(fields[:-1]), fields[-1]
            if key in cases:
                raise ValueError(f"{path}: case {key!r} appears twice")
            cases[key] = digest
    return cases


def diff(old: dict[str, str], new: dict[str, str]) -> tuple[list[str], list[str], list[str]]:
    """The keys whose hash changed, those only ``new`` has and those only
    ``old`` has, each in the order of the file that has them."""
    changed = [key for key in new if key in old and old[key] != new[key]]
    added = [key for key in new if key not in old]
    removed = [key for key in old if key not in new]
    return changed, added, removed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: identity_diff.py OLD NEW", file=sys.stderr)
        return 2
    try:
        old, new = read_cases(argv[0]), read_cases(argv[1])
    except (OSError, UnicodeDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    changed, added, removed = diff(old, new)
    for label, keys in (("changed", changed), ("added", added), ("removed", removed)):
        for key in keys:
            print(f"{label} {key}")
    same = len(new) - len(changed) - len(added)
    print(f"{len(changed)} changed, {len(added)} added, {len(removed)} removed, {same} same")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
