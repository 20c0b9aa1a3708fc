#!/usr/bin/env python3
"""Cross-checks the metric/trace-kind catalogue in docs/METRICS.md
against the names actually registered in the source tree.

Both directions are enforced:

  * every dotted name registered in src/ or tools/ (GetCounter /
    GetGauge / GetHistogram / TraceProto /
    RecordFaultEvent, including names routed through helper wrappers)
    must appear in a backtick span in docs/METRICS.md;
  * every dotted name documented in docs/METRICS.md must still exist in
    the code — documentation for a deleted instrument is drift too.

Names are the project's dotted lowercase identifiers
(``family.name`` or ``family.sub.name``); extraction is textual, so a
metric whose name is assembled at runtime must be added to EXEMPT with
a justification (none exist today).

Exit status: 0 = catalogue in sync, 1 = drift (details on stderr),
2 = usage/environment error.  CI runs this in the build-and-test job.
"""

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
DOC = REPO / "docs" / "METRICS.md"
CODE_DIRS = ("src", "tools")

# A dotted lowercase identifier: at least one '.', no uppercase — the
# shape every registry metric and trace kind in this tree uses.
NAME = re.compile(r"[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+")

# String literals in code that match NAME but are not instruments.
EXEMPT = {
    "artist_title.mp3",  # example filename in the workload generator
    "network.manifest",  # topology snapshot filename (p2p/network_io)
}


def code_names():
    names = {}
    literal = re.compile(r'"(' + NAME.pattern + r')"')
    for d in CODE_DIRS:
        for path in sorted((REPO / d).rglob("*")):
            if path.suffix not in (".cc", ".h"):
                continue
            for m in literal.finditer(path.read_text()):
                name = m.group(1)
                if name in EXEMPT:
                    continue
                names.setdefault(name, path.relative_to(REPO))
    return names


def doc_names():
    if not DOC.is_file():
        print(f"missing {DOC}", file=sys.stderr)
        sys.exit(2)
    names = set()
    # Only backtick spans whose *entire* content is a dotted name count
    # as catalogue entries; prose like `hyperion_cli stats [...]` or
    # slash-joined pairs are skipped.  Spans holding several names
    # separated by ' / ' (the doc's shorthand for sibling counters)
    # contribute each name.
    for span in re.findall(r"`([^`]+)`", DOC.read_text()):
        for part in span.split(" / "):
            if NAME.fullmatch(part):
                names.add(part)
    return names


def main():
    in_code = code_names()
    in_docs = doc_names()

    undocumented = sorted(set(in_code) - in_docs)
    stale = sorted(in_docs - set(in_code))

    ok = True
    if undocumented:
        ok = False
        print("registered in code but missing from docs/METRICS.md:",
              file=sys.stderr)
        for name in undocumented:
            print(f"  {name}  (first seen in {in_code[name]})",
                  file=sys.stderr)
    if stale:
        ok = False
        print("documented in docs/METRICS.md but absent from the code:",
              file=sys.stderr)
        for name in stale:
            print(f"  {name}", file=sys.stderr)

    if not ok:
        print(
            "\ncatalogue drift: update docs/METRICS.md (or EXEMPT in "
            "tools/check_metrics_catalogue.py for non-instrument "
            "literals).",
            file=sys.stderr,
        )
        return 1
    print(f"metrics catalogue in sync: {len(in_code)} names in code, "
          f"{len(in_docs)} documented.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
