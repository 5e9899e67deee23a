#!/usr/bin/env python3
"""Counts the source lines of src/: the north-star line-count figure.

    python3 scripts/src_lines.py [--root DIR] [--files] [--diff REV]

A counted line is a non-blank line of a src/**/*.h or src/**/*.cc file
whose first non-space characters are not `//`. Prints the total, then
one line per directory under src/ (and, with --files, per file), as a
Markdown table so CI can append it to its step summary. --diff REV
instead compares the working tree with git revision REV (read through
git ls-tree / git show): before, after and delta for every file whose
count changed, plus the total. Reports only: the exit code is 0
whenever the trees can be read.
"""

import argparse
import pathlib
import subprocess
import sys
from collections import defaultdict


def is_source(name):
    return name.endswith((".h", ".cc"))


def count_text(lines):
    count = 0
    for line in lines:
        text = line.strip()
        if text and not text.startswith("//"):
            count += 1
    return count


def counted_lines(path):
    with open(path, encoding="utf-8") as f:
        return count_text(f)


def git(root, *args):
    result = subprocess.run(["git", "-C", str(root), *args],
                            capture_output=True, text=True)
    if result.returncode != 0:
        sys.exit(f"src_lines: git {' '.join(args)}: {result.stderr.strip()}")
    return result.stdout


def rev_counts(root, rev):
    """Counted lines per src/-relative file at git revision `rev`."""
    counts = {}
    for name in git(root, "ls-tree", "-r", "--name-only", rev,
                    "--", "src").splitlines():
        if is_source(name):
            text = git(root, "show", f"{rev}:{name}")
            counts[name[len("src/"):]] = count_text(text.splitlines())
    return counts


def print_diff(before, after, rev):
    changed = sorted(rel for rel in before.keys() | after.keys()
                     if before.get(rel, 0) != after.get(rel, 0))
    total_before = sum(before.values())
    total_after = sum(after.values())
    print(f"src lines vs {rev}: {total_before} -> {total_after} "
          f"({total_after - total_before:+d})")
    print()
    print("| file | before | after | delta |")
    print("|---|---:|---:|---:|")
    for rel in changed:
        b, a = before.get(rel, 0), after.get(rel, 0)
        print(f"| {rel} | {b} | {a} | {a - b:+d} |")
    print(f"| total | {total_before} | {total_after} | "
          f"{total_after - total_before:+d} |")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=pathlib.Path(__file__).resolve()
                        .parent.parent, type=pathlib.Path)
    parser.add_argument("--files", action="store_true",
                        help="also list every file")
    parser.add_argument("--diff", metavar="REV",
                        help="per-file deltas against git revision REV")
    args = parser.parse_args()
    src = args.root / "src"
    if not src.is_dir():
        sys.exit(f"src_lines: no src/ under {args.root}")

    per_file = {}
    for path in sorted(src.rglob("*")):
        if is_source(path.name) and path.is_file():
            per_file[path.relative_to(src).as_posix()] = counted_lines(path)
    if args.diff:
        print_diff(rev_counts(args.root, args.diff), per_file, args.diff)
        return
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
