"""Build and reduce the tensor X1 ⊗ X2* ⊗ X3 ⊗ ... ⊗ X10* of 3^10 cells.

Checks that

* the product has 3^10 = 59,049 cells and its homology equals the
  iterated Kunneth product of the factors' homologies;
* the product stores its ten factors as its leaves, and the build, the
  reduction and the comparison with the Kunneth module leave its ids, its
  positional boundary and coboundary (``_adj``, ``_coadj``) and its J
  (``_jpos``) unbuilt: its tables are folded from the leaves on first
  read, its ids only because the factors are prefix-free, and the
  reduction reads the boundary as offsets (``_off``); nor do they build a
  ``towers`` tuple of either module;
* the free generator reads back through ``express`` as ``[("free", 0, 0)]``;
* no id table (``bdry``, ``J`` or ``cells``) of the product is built:
  ``express`` maps ids through the product's ``_index``;
* no id table of the ten factors X1, X2*, ..., X10* is built: the
  constructors validate on positions, and ``dual`` and ``tensor`` read and
  write cell positions only.

Prints one line with the build, homology and express times and the peak
RSS; exits 1 with a one-line message if a check fails.  Standard library
only; run from anywhere, under the memory limit that CI sets:

    (ulimit -v 200000; python3 scripts/tensor_3_10.py)
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ilocal.complexes import build_xi, dual, tensor  # noqa: E402
from ilocal.homology import homology  # noqa: E402
from ilocal.towers import kunneth  # noqa: E402

#: the id-keyed tables of a complex, each a view built on first read
ID_TABLES = {"bdry", "J", "cells"}

#: the product's tables that its build, homology and Kunneth comparison leave unread
UNREAD = {"_ids", "_adj", "_coadj", "_jpos"}


def main() -> None:
    factors = [dual(build_xi(i)) if i % 2 == 0 else build_xi(i) for i in range(1, 11)]
    t0 = time.perf_counter()
    product = factors[0]
    for f in factors[1:]:
        product = tensor(product, f)
    t1 = time.perf_counter()
    result = homology(product)
    module = result.module
    t2 = time.perf_counter()
    expected = homology(factors[0]).module
    for f in factors[1:]:
        expected = kunneth(expected, homology(f).module)
    if len(product) != 3 ** 10 or module != expected:
        raise SystemExit("the homology of the product differs from the iterated Kunneth formula")
    if len(vars(product).get("_factors", ())) != len(factors):
        raise SystemExit(f"the product stores {len(vars(product).get('_factors', ()))} leaves, "
                         f"not its {len(factors)} factors")
    built = UNREAD & vars(product).keys()
    if built:
        raise SystemExit(f"the build, reduction and module comparison built {sorted(built)}")
    if "towers" in vars(module) or "towers" in vars(expected):
        raise SystemExit("the module comparison built a towers tuple")
    t3 = time.perf_counter()
    degree, chain = result.free_cycles[0]
    read_back = result.express(chain, degree)
    t4 = time.perf_counter()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{len(product)} cells: build {t1 - t0:.2f} s, homology {t2 - t1:.2f} s, "
          f"express {t4 - t3:.2f} s, peak RSS {peak_mb:.0f} MB")
    # express maps ids through the product's _index and builds no id table
    if read_back != [("free", 0, 0)] or ID_TABLES & vars(product).keys():
        raise SystemExit(f"the free generator reads back as {read_back}; "
                         f"id tables built: {sorted(ID_TABLES & vars(product).keys())}")
    built = [f"X{i}" + "*" * (i % 2 == 0) for i, f in enumerate(factors, 1)
             if ID_TABLES & vars(f).keys()]
    if built:
        raise SystemExit("id tables built for the factors " + ", ".join(built))


if __name__ == "__main__":
    main()
