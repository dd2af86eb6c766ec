"""Record the chip signatures the ``build`` scenario checks against.

Usage, from the repository root::

    python3 perfbench/record_signatures.py

Assembles every chip the ``build`` scenario builds (the chips of its
full and probe configurations and the untimed ``build.WARM_UP`` chip) and writes each chip's
signature to ``perfbench/signatures.json``.  Re-record only when
a change is meant to alter what the assembler builds, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    from perfbench import build
    from repro.floorplan.assemble import assemble_floorplan
    from repro.floorplan.generator import gen_floorplan_case
    from repro.proptest.prng import Rng

    recorded: dict = {}
    chips = [
        (cfg.tier, s)
        for cfg in (build.config(full=True), build.config(full=False))
        for s in cfg.chips
    ]
    for tier, chip_seed in [*chips, build.WARM_UP]:
        stats = assemble_floorplan(gen_floorplan_case(Rng(chip_seed), tier)).to_dict()
        signature = {k: stats[k] for k in build.SIGNATURE_FIELDS}
        recorded.setdefault(tier, {})[str(chip_seed)] = signature
        print(tier, chip_seed, signature, flush=True)
    build.SIGNATURES.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
