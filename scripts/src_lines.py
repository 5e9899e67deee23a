#!/usr/bin/env python3
"""Counts the source lines of src/: the north-star line-count figure.

    python3 scripts/src_lines.py [--root DIR] [--files]

A counted line is a non-blank line of a src/**/*.h or src/**/*.cc file
whose first non-space characters are not `//`. Prints the total, then
one line per directory under src/ (and, with --files, per file), as a
Markdown table so CI can append it to its step summary. Reports only:
the exit code is 0 whenever the tree can be read.
"""

import argparse
import pathlib
import sys
from collections import defaultdict


def counted_lines(path):
    count = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            text = line.strip()
            if text and not text.startswith("//"):
                count += 1
    return count


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=pathlib.Path(__file__).resolve()
                        .parent.parent, type=pathlib.Path)
    parser.add_argument("--files", action="store_true",
                        help="also list every file")
    args = parser.parse_args()
    src = args.root / "src"
    if not src.is_dir():
        sys.exit(f"src_lines: no src/ under {args.root}")

    per_file = {}
    for path in sorted(src.rglob("*")):
        if path.suffix in (".h", ".cc") and path.is_file():
            per_file[path.relative_to(src).as_posix()] = counted_lines(path)
    per_dir = defaultdict(int)
    for rel, count in per_file.items():
        per_dir[rel.rsplit("/", 1)[0] if "/" in rel else "."] += count

    total = sum(per_file.values())
    print(f"src lines (non-blank, non-comment): {total}")
    print()
    print("| directory | lines |")
    print("|---|---:|")
    for directory in sorted(per_dir):
        print(f"| {directory} | {per_dir[directory]} |")
    if args.files:
        print()
        print("| file | lines |")
        print("|---|---:|")
        for rel, count in per_file.items():
            print(f"| {rel} | {count} |")


if __name__ == "__main__":
    main()
