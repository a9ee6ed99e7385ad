"""Time ``representative`` of long combinations and pin the JSON of each result.

Builds the representative of four combinations: 400, 1,600 and 3,200
terms drawn with one ``random.Random(7)`` (indices 1 to 60, each sign
drawn with its term), and ``-1000*X1``, where every term is a halving and
so costs two duals.  For each it checks that

* the result has 2n + 1 cells;
* its ids are unbuilt until the JSON is written: ``dual`` stars no id
  and ``double`` names its new cells by stems, so only ``complex_to_json``
  builds them;
* the sha256 of its ``complex_to_json``, dumped with sorted keys and no
  spaces, equals the pinned digest.

Prints one line per combination with the build and JSON times; exits 1
with a one-line message if a check fails.  Standard library only; run
from anywhere:

    python3 scripts/representative_scale.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ilocal.complexes import complex_to_json  # noqa: E402
from ilocal.connected import LinearCombination, representative  # noqa: E402

SIZES = (400, 1600, 3200)

PINNED = {
    "n=400": "207d49d946cc101def0c3a43c9ac5c4c5c7152ccea55d1f660f9676b19f5fb34",
    "n=1600": "5bd05d0911bf35ea0be4cdaebaa08904a6560afe0d57b2b488320db9b59f32a5",
    "n=3200": "b6a0e87d469acd07ccaa08bf44b5e11f1d0f337a4eef384a69f0f0e8ca2f413c",
    "-1000*X1": "c3689201040dc3688cc32a4ee93c42f08623da9d68bdfaa40874dfd54337d1f4",
}


def combinations():
    """(name, combination) of the three drawn sizes, then -1000*X1."""
    rng = random.Random(7)
    for n in SIZES:
        terms = []
        for _ in range(n):
            sign = rng.choice((1, -1))
            terms.append((sign, rng.randint(1, 60)))
        yield f"n={n}", LinearCombination(tuple(terms))
    yield "-1000*X1", LinearCombination(((-1, 1),) * 1000)


def main() -> None:
    for name, lc in combinations():
        t0 = time.perf_counter()
        rep = representative(lc)
        t1 = time.perf_counter()
        if len(rep) != 2 * len(lc) + 1:
            raise SystemExit(f"{name}: {len(rep)} cells for {len(lc)} terms")
        if "_ids" in vars(rep):
            raise SystemExit(f"{name}: representative built the ids of its result")
        text = json.dumps(complex_to_json(rep), sort_keys=True, separators=(",", ":"))
        t2 = time.perf_counter()
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        print(f"{name}: {len(rep)} cells, representative {t1 - t0:.3f} s, JSON {t2 - t1:.3f} s",
              flush=True)
        if digest != PINNED[name]:
            raise SystemExit(f"{name}: JSON digest {digest} differs from the pinned one")


if __name__ == "__main__":
    main()
