#!/usr/bin/env python3
"""Sanity-check the BENCH_*.json artifacts the bench bins emit.

Every report must parse as JSON and contain at least one non-empty array
of row objects (`runs` in `BENCH_skew.json`, `rows` in
`BENCH_catalog.json`). A bin that silently wrote an empty or truncated
report fails the job here instead of shipping a useless artifact.
"""

import json
import sys


def row_arrays(node):
    """Yield every list-of-dicts found anywhere in the document."""
    if isinstance(node, list):
        if node and all(isinstance(item, dict) for item in node):
            yield node
        for item in node:
            yield from row_arrays(item)
    elif isinstance(node, dict):
        for value in node.values():
            yield from row_arrays(value)


def main(paths):
    if not paths:
        print("no BENCH_*.json files were produced", file=sys.stderr)
        return 1
    failed = False
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            print(f"{path}: does not parse: {err}", file=sys.stderr)
            failed = True
            continue
        arrays = list(row_arrays(doc))
        if not arrays:
            print(f"{path}: parses but holds no non-empty row arrays", file=sys.stderr)
            failed = True
            continue
        rows = sum(len(a) for a in arrays)
        print(f"{path}: OK ({len(arrays)} row arrays, {rows} rows)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
