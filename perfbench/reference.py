"""Committed reference outputs for the correctness gates.

``reference.json`` holds, per workload and input key, the output the
benchmark's run must reproduce:

* ``campaign``: the report digest of the event-engine serial oracle
  (``SerialFaultSimulator``) for each pattern set a seed can select;
* ``cosim``: events, remote calls and a digest of the per-pattern
  powers of every Table 2 row, for each stimulus length a seed can
  select.

Regenerate (slow: the mult16 oracle takes minutes per pattern set)::

    python3 perfbench/reference.py [campaign|cosim ...]
"""

from __future__ import annotations

import json
import os
import sys

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_reference() -> dict:
    """The committed reference table (empty sections if absent)."""
    try:
        with open(REFERENCE_PATH) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def _store(section: str, key: str, value) -> None:
    table = load_reference()
    table.setdefault(section, {})[key] = value
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


def generate(sections) -> None:
    """Compute and store every reference entry of ``sections``."""
    from perfbench import campaign, cosim
    from perfbench.common import SIZES

    for size in SIZES.values():
        if "campaign" in sections:
            for pattern_set in range(size.campaign_pattern_sets):
                key = campaign.reference_key(size, pattern_set)
                digest = campaign.oracle_digest(size, pattern_set)
                _store("campaign", key, digest)
                print("campaign", key, digest, flush=True)
        if "cosim" in sections:
            for length in cosim.stimulus_lengths(size):
                rows = cosim.run_rows(size, length)
                _store("cosim", cosim.reference_key(size, length),
                       cosim.row_outputs(rows))
                print("cosim", size.cosim_width, length, flush=True)


if __name__ == "__main__":
    sys.path[:0] = [os.path.dirname(os.path.dirname(REFERENCE_PATH))]
    from perfbench.common import add_source_path
    add_source_path()
    generate(sys.argv[1:] or ("campaign", "cosim"))
