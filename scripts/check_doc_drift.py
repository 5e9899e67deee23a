#!/usr/bin/env python3
"""Doc-drift guard: fail CI when the normative docs fall behind the code.

Seven cross-checks, all exact:

1. docs/WIRE_PROTOCOL.md's message-type table vs the MsgType enum in
   src/disttrack/sim/wire.h — same names, same values, nothing missing
   on either side; plus the doc's stated "Current version: N" vs
   wire::kVersion.

2. README.md's delivery-paths table vs bench/bench_throughput.cpp —
   every path row the README documents must still be a row name the
   bench emits, and every row-name family the bench emits must still be
   documented. (Thread-scaling rows are families: the bench emits
   cluster_t<N>/online_t<N>, the README writes cluster_t⟨N⟩.)

3. docs/OPERATIONS.md's exit-code table vs the service binaries — the
   set of `return N;` / `_exit(N)` codes in the coordinator main +
   Coordinator::RunUntilShutdown, and the site main +
   SiteRuntime::Run, must equal the documented (code, binary) rows
   ("both" rows must be reachable from both binaries).

4. Every `*.md` path cited in a file under src/, tests/, bench/ or
   examples/ must exist — relative to the repo root, to docs/, or to
   the citing file's directory.

5. Every code name README.md or docs/*.md cites in backticks must occur
   somewhere under src/, tests/, bench/, perfbench/, examples/ or
   scripts/. Three shapes are checked: qualified names (each component
   of `a::B::C` that is not a lowercase namespace; `std::` is exempt),
   call-shaped names (`Name(...)`, `obj.Name()`) and UpperCamelCase
   identifiers (`SiteCore`). Fenced code blocks are not citations.

6. Every source-file path (`*.h`, `*.cc`, `*.cpp`, `*.py`, `*.json`)
   README.md or docs/*.md cites in backticks must name a file in the
   tree — relative to the repo root, to src/disttrack/ or to the doc's
   directory, or, for a bare file name, as the one file of that name.
   `x.h/.cc` cites both x.h and x.cc; `path/to/` placeholders are
   exempt. Fenced code blocks are not citations.

7. docs/REPRODUCTION.md's experiment index vs bench/paper_claims.cpp's
   section table (kSections) — every section the driver prints must be
   indexed, every indexed section must exist, and both list them in the
   same order.

No dependencies beyond the standard library; run from anywhere:

    python3 scripts/check_doc_drift.py

Also runs as part of `python3 scripts/check_invariants.py --all`.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WIRE_H = ROOT / "src" / "disttrack" / "sim" / "wire.h"
WIRE_DOC = ROOT / "docs" / "WIRE_PROTOCOL.md"
README = ROOT / "README.md"
BENCH = ROOT / "bench" / "bench_throughput.cpp"
OPERATIONS = ROOT / "docs" / "OPERATIONS.md"
REPRODUCTION = ROOT / "docs" / "REPRODUCTION.md"
PAPER_CLAIMS = ROOT / "bench" / "paper_claims.cpp"
DOCS = ROOT / "docs"
CITING_DIRS = ("src", "tests", "bench", "examples")
CODE_DIRS = ("src", "tests", "bench", "perfbench", "examples", "scripts")
# Exit codes flow from two layers per binary: the flag-parsing main and
# the runtime loop it tail-returns.
COORDINATOR_SOURCES = (
    ROOT / "service" / "disttrack_coordinator.cpp",
    ROOT / "src" / "disttrack" / "service" / "coordinator.cc",
)
SITE_SOURCES = (
    ROOT / "service" / "disttrack_site.cpp",
    ROOT / "src" / "disttrack" / "service" / "site_runtime.cc",
)

errors = []


def fail(msg):
    errors.append(msg)


def parse_enum_msg_types(text):
    """MsgType enum entries as {name: value} from the wire.h source."""
    m = re.search(r"enum class MsgType[^{]*\{(.*?)\};", text, re.S)
    if not m:
        fail(f"{WIRE_H}: could not find 'enum class MsgType'")
        return {}
    entries = {}
    for name, value in re.findall(r"\b(k\w+)\s*=\s*(\d+)", m.group(1)):
        entries[name] = int(value)
    if not entries:
        fail(f"{WIRE_H}: MsgType enum parsed to zero entries")
    return entries


def parse_doc_msg_types(text):
    """Type-table rows as {name: value} from WIRE_PROTOCOL.md.

    Rows look like: | 12 | `kJoin` | site → coord | ... |
    """
    entries = {}
    for value, name in re.findall(r"^\|\s*(\d+)\s*\|\s*`(k\w+)`", text, re.M):
        entries[name] = int(value)
    if not entries:
        fail(f"{WIRE_DOC}: message-type table parsed to zero rows")
    return entries


def check_wire_protocol():
    src = WIRE_H.read_text(encoding="utf-8")
    doc = WIRE_DOC.read_text(encoding="utf-8")

    code = parse_enum_msg_types(src)
    documented = parse_doc_msg_types(doc)
    for name, value in sorted(code.items(), key=lambda kv: kv[1]):
        if name not in documented:
            fail(f"{WIRE_DOC}: wire.h type {name} = {value} is undocumented")
        elif documented[name] != value:
            fail(
                f"{WIRE_DOC}: {name} documented as {documented[name]}, "
                f"wire.h says {value}"
            )
    for name, value in sorted(documented.items(), key=lambda kv: kv[1]):
        if name not in code:
            fail(
                f"{WIRE_DOC}: documents type {name} = {value}, "
                f"which wire.h does not define"
            )

    m = re.search(r"constexpr uint16_t kVersion = (\d+);", src)
    n = re.search(r"\*\*Current version: (\d+)\.\*\*", doc)
    if not m:
        fail(f"{WIRE_H}: could not find kVersion")
    if not n:
        fail(f"{WIRE_DOC}: could not find '**Current version: N.**' line")
    if m and n and m.group(1) != n.group(1):
        fail(
            f"{WIRE_DOC}: states version {n.group(1)}, "
            f"wire.h kVersion is {m.group(1)}"
        )


def parse_readme_delivery_paths(text):
    """First-column path names of the README '### Delivery paths' table."""
    m = re.search(r"### Delivery paths(.*?)\n## ", text, re.S)
    if not m:
        fail(f"{README}: could not find the '### Delivery paths' section")
        return []
    names = re.findall(r"^\|\s*`([^`]+)`\s*\|", m.group(1), re.M)
    if not names:
        fail(f"{README}: delivery-paths table parsed to zero rows")
    return names


def normalize_family(name):
    """cluster_t⟨N⟩ / cluster_t<N> / cluster_t4 -> ('cluster_t', True)."""
    m = re.match(r"^([a-z_]+_t)(?:\d+|⟨N⟩|<N>)$", name)
    if m:
        return m.group(1), True
    return name, False


def parse_bench_row_families(text):
    """Row-name families the bench emits: exact literals assigned to the
    BenchEntry path field, plus '<prefix>_t' families built with
    std::to_string(threads)."""
    families = set()
    # Exact row names: struct-literal path tables like
    # CountPath{"skip_batched", ...} and the direct Record("...") names.
    for name in re.findall(r'(?:Count|Freq|Rank)Path\{"([a-z_]+)"', text):
        families.add(name)
    # Thread families: "cluster_t" + std::to_string(threads)
    for prefix in re.findall(
        r'"([a-z_]+_t)"\s*\+\s*std::to_string\(threads\)', text
    ):
        families.add(prefix)
    if not families:
        fail(f"{BENCH}: parsed zero bench row-name families")
    return families


def check_delivery_paths():
    readme = README.read_text(encoding="utf-8")
    bench = BENCH.read_text(encoding="utf-8")

    documented = parse_readme_delivery_paths(readme)
    emitted = parse_bench_row_families(bench)

    documented_families = set()
    for name in documented:
        family, is_family = normalize_family(name)
        documented_families.add(family)
        if family not in emitted:
            kind = "family" if is_family else "row"
            fail(
                f"{README}: delivery-paths table documents {kind} `{name}`, "
                f"but bench_throughput.cpp emits no such row name"
            )
    for family in sorted(emitted):
        if family not in documented_families:
            fail(
                f"{README}: bench_throughput.cpp emits row family "
                f"'{family}', missing from the delivery-paths table"
            )


def parse_doc_experiments(text):
    """First-column section names of the '## Experiment index' table."""
    m = re.search(r"## Experiment index(.*?)\n## ", text, re.S)
    if not m:
        fail(f"{REPRODUCTION}: could not find the '## Experiment index' "
             f"section")
        return []
    names = re.findall(r"^\|\s*`([^`]+)`\s*\|", m.group(1), re.M)
    if not names:
        fail(f"{REPRODUCTION}: experiment index parsed to zero rows")
    return names


def parse_driver_sections(text):
    """Section names of paper_claims.cpp's kSections table, in order."""
    m = re.search(r"kSections\[\] = \{(.*?)\n\};", text, re.S)
    if not m:
        fail(f"{PAPER_CLAIMS}: could not find the kSections table")
        return []
    names = re.findall(r'^\s*\{"([a-z0-9_]+)",', m.group(1), re.M)
    if not names:
        fail(f"{PAPER_CLAIMS}: kSections parsed to zero sections")
    return names


def check_experiment_index():
    documented = parse_doc_experiments(
        REPRODUCTION.read_text(encoding="utf-8"))
    printed = parse_driver_sections(PAPER_CLAIMS.read_text(encoding="utf-8"))
    for name in documented:
        if name not in printed:
            fail(f"{REPRODUCTION}: experiment index lists `{name}`, but "
                 f"paper_claims.cpp prints no such section")
    for name in printed:
        if name not in documented:
            fail(f"{REPRODUCTION}: paper_claims.cpp prints section "
                 f"'{name}', missing from the experiment index")
    if set(documented) == set(printed) and documented != printed:
        fail(f"{REPRODUCTION}: experiment index order {documented} differs "
             f"from paper_claims.cpp's print order {printed}")


def source_exit_codes(paths):
    """All numeric `return N;` / `_exit(N)` codes across `paths`.

    In the four service sources every numeric return IS a process exit
    code (the mains tail-return the runtime loops, and the library
    files' only numeric returns are the loop results) — a property the
    check itself enforces in the cheapest way possible: a stray numeric
    return in a helper would show up as an undocumented code.
    """
    codes = set()
    for path in paths:
        text = path.read_text(encoding="utf-8")
        for code in re.findall(r"\breturn (\d+);", text):
            codes.add(int(code))
        for code in re.findall(r"\b_exit\((\d+)\)", text):
            codes.add(int(code))
    return codes


def parse_doc_exit_codes(text):
    """(code, binary) rows of the OPERATIONS.md exit-code table."""
    m = re.search(r"## Exit codes(.*?)\n## ", text, re.S)
    if not m:
        fail(f"{OPERATIONS}: could not find the '## Exit codes' section")
        return []
    rows = [(int(code), binary) for code, binary in
            re.findall(r"^\|\s*(\d+)\s*\|\s*(both|site|coordinator)\s*\|",
                       m.group(1), re.M)]
    if not rows:
        fail(f"{OPERATIONS}: exit-code table parsed to zero rows")
    return rows


def check_exit_codes():
    doc = OPERATIONS.read_text(encoding="utf-8")
    rows = parse_doc_exit_codes(doc)
    actual = {
        "coordinator": source_exit_codes(COORDINATOR_SOURCES),
        "site": source_exit_codes(SITE_SOURCES),
    }
    documented = {"coordinator": set(), "site": set()}
    for code, binary in rows:
        binaries = (["coordinator", "site"] if binary == "both"
                    else [binary])
        for b in binaries:
            documented[b].add(code)
            if code not in actual[b]:
                fail(f"{OPERATIONS}: documents exit code {code} for "
                     f"'{binary}', but the {b} sources never return it")
    for b, codes in actual.items():
        for code in sorted(codes - documented[b]):
            fail(f"{OPERATIONS}: {b} can exit with code {code}, missing "
                 f"from the exit-code table")


def check_doc_citations():
    for top in CITING_DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if not path.is_file():
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            for cited in sorted(set(re.findall(r"[\w./-]*\w\.md\b", text))):
                bases = (ROOT, DOCS, path.parent)
                if not any((base / cited).is_file() for base in bases):
                    fail(f"{path.relative_to(ROOT)}: cites {cited}, "
                         f"which does not exist")


QUALIFIED = re.compile(r"^[A-Za-z_]\w*(?:::~?[A-Za-z_]\w*)+")
CALL = re.compile(r"^(?:[\w:]+(?:\.|->))?([A-Za-z_]\w*)\(")
CAMEL = re.compile(r"^[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+$")


def cited_names(text):
    """The code names a Markdown text cites in inline backticks."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    names = set()
    for span in re.findall(r"`([^`]+)`", text):
        span = " ".join(span.split())  # a span may wrap across lines
        m = QUALIFIED.match(span)
        if m and not span.startswith("std::"):
            parts = m.group(0).split("::")
            names.update(p.lstrip("~") for i, p in enumerate(parts)
                         if i == len(parts) - 1 or not p.islower())
            continue
        m = CALL.match(span)
        if m:
            names.add(m.group(1))
        elif CAMEL.match(span):
            names.add(span)
    return names


def check_code_citations():
    words = set()
    for top in CODE_DIRS:
        for path in (ROOT / top).rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                text = path.read_text(encoding="utf-8", errors="replace")
                words.update(re.findall(r"\w+", text))
    for doc in [README, *sorted(DOCS.glob("*.md"))]:
        for name in sorted(cited_names(doc.read_text(encoding="utf-8"))):
            if name not in words:
                fail(f"{doc.relative_to(ROOT)}: cites `{name}`, which "
                     f"occurs nowhere in the code")


SOURCE_PATH = re.compile(
    r"[\w./-]*\w\.(?:h|cc|cpp|py|json)(?:/\.(?:h|cc|cpp|py|json))*(?![\w/])")


# Linter test data: stand-ins named like the sources they imitate
# (wire_switch__pass/wire.cc), which no doc cites.
LINT_FIXTURES = ROOT / "tests" / "lint_fixture"


def tree_basenames():
    """How many files of each name the tree holds; build output, hidden
    directories, caches and the lint fixtures are left out."""
    counts = {}
    for path in ROOT.rglob("*"):
        rel = path.relative_to(ROOT).parts
        if (not path.is_file() or LINT_FIXTURES in path.parents
                or any(p.startswith((".", "build")) or p == "__pycache__"
                       for p in rel[:-1])):
            continue
        counts[path.name] = counts.get(path.name, 0) + 1
    return counts


def cited_source_paths(text):
    """The source-file paths a Markdown text cites in inline backticks,
    `x.h/.cc` expanded to x.h and x.cc."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    paths = set()
    for span in re.findall(r"`([^`]+)`", text):
        for cited in SOURCE_PATH.findall(span):
            if "path/to/" in cited:
                continue
            first, *more = cited.split("/.")
            paths.add(first)
            stem = first.rsplit(".", 1)[0]
            paths.update(f"{stem}.{ext}" for ext in more)
    return paths


def check_source_citations():
    basenames = tree_basenames()
    for doc in [README, *sorted(DOCS.glob("*.md"))]:
        bases = (ROOT, ROOT / "src" / "disttrack", doc.parent)
        text = doc.read_text(encoding="utf-8")
        for cited in sorted(cited_source_paths(text)):
            if any((base / cited).is_file() for base in bases):
                continue
            if "/" not in cited and basenames.get(cited) == 1:
                continue
            fail(f"{doc.relative_to(ROOT)}: cites `{cited}`, which names "
                 f"no file in the tree")


def run():
    """All checks; prints a report and returns a process exit code."""
    del errors[:]
    required = (WIRE_H, WIRE_DOC, README, BENCH, OPERATIONS, REPRODUCTION,
                PAPER_CLAIMS, *COORDINATOR_SOURCES, *SITE_SOURCES)
    for path in required:
        if not path.exists():
            fail(f"missing file: {path}")
    if not errors:
        check_wire_protocol()
        check_delivery_paths()
        check_exit_codes()
        check_experiment_index()
        check_doc_citations()
        check_code_citations()
        check_source_citations()
    if errors:
        for msg in errors:
            print(f"doc-drift: {msg}", file=sys.stderr)
        print(f"doc-drift: {len(errors)} error(s)", file=sys.stderr)
        return 1
    print("doc-drift: wire-protocol table, delivery-paths table, "
          "exit-code table, experiment index, doc citations, cited code "
          "names and cited source paths all match the source")
    return 0


if __name__ == "__main__":
    sys.exit(run())
