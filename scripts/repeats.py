#!/usr/bin/env python3
"""Find code written twice, and count shipped lines.

Usage: python3 scripts/repeats.py [ROOT] [--counts]

Reads the shipped half of every `.rs` file under `crates/*/src` and
`src/` (everything before the first line starting `mod tests`), drops
blank and `//` comment lines, and strips indentation.

Default: print every 4-line window of statements that occurs more than
once, with where. A window may not span a line that is only `}` at an
indentation of at most four columns (the end of an item, a method or a
top-level block of a function: it would join the end of one to the
start of the next), and `use`
declarations are skipped, as are windows made only of parameter lists,
where-clauses, enum fields or array items (lines ending in `,` or `(`,
or starting with `)` or `where`) and windows with fewer than three
lines longer than three characters (closing brackets).

`--counts`: print the non-blank, non-comment shipped lines per crate
(`src/` counts as `src`), `use` lines and `#[cfg(test)]` included.
"""

import collections
import os
import sys

WINDOW = 4


def shipped(path):
    lines = []
    in_use = False
    with open(path, encoding="utf-8") as f:
        for number, raw in enumerate(f, 1):
            line = raw.strip()
            indent = len(raw) - len(raw.lstrip())
            if line.startswith("mod tests"):
                break
            if not line or line.startswith("//"):
                continue
            is_use = in_use or line.startswith(("use ", "pub use ", "pub(crate) use "))
            if is_use:
                in_use = not line.endswith(";")
            if line == "}" and indent <= 4:
                line = "<end>"
            lines.append((number, line, is_use))
    return lines


def sources(root):
    dirs = [os.path.join(root, "src")]
    crates = os.path.join(root, "crates")
    dirs += [os.path.join(crates, c, "src") for c in sorted(os.listdir(crates))]
    for top in dirs:
        for dirpath, _, files in sorted(os.walk(top)):
            for name in sorted(files):
                if name.endswith(".rs"):
                    path = os.path.join(dirpath, name)
                    yield os.path.relpath(path, root), path


def trivial(window):
    if "<end>" in window:
        return True
    if all(l.endswith((",", "(")) or l.startswith((")", "where")) for l in window):
        return True
    return sum(len(l) > 3 for l in window) < 3


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    root = args[0] if args else "."
    counts = collections.Counter()
    windows = collections.defaultdict(list)
    for rel, path in sources(root):
        lines = shipped(path)
        crate = rel.split(os.sep)[1] if rel.startswith("crates") else "src"
        counts[crate] += len(lines)
        body = [(n, l) for n, l, is_use in lines if not is_use]
        for k in range(len(body) - WINDOW + 1):
            window = tuple(l for _, l in body[k : k + WINDOW])
            if not trivial(window):
                windows[window].append(f"{rel}:{body[k][0]}")
    if "--counts" in sys.argv:
        for crate in sorted(counts):
            print(f"{crate:<12} {counts[crate]}")
        print(f"{'total':<12} {sum(counts.values())}")
        return
    repeated = {w: at for w, at in windows.items() if len(at) > 1}
    for window, at in sorted(repeated.items(), key=lambda item: item[1]):
        print(" ".join(at))
        for line in window:
            print(f"    {line}")
    print(f"{len(repeated)} repeated windows")


if __name__ == "__main__":
    main()
