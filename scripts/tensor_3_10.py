"""Build and reduce the tensor X1 ⊗ X2* ⊗ X3 ⊗ ... ⊗ X10* of 3^10 cells.

Checks that

* the product has 3^10 = 59,049 cells and its homology equals the
  iterated Kunneth product of the factors' homologies;
* the free generator reads back through ``express`` as ``[("free", 0, 0)]``;
* no id boundary (``bdry``) of the product is built: ``express`` maps ids
  through the product's ``_index``;
* no id boundary of the five dual factors X2*, X4*, ..., X10* is built:
  ``dual`` and ``tensor`` read and write cell positions only.

Prints one line with the build, homology and express times and the peak
RSS; exits 1 with a one-line message if a check fails.  Standard library
only; run from anywhere, under the memory limit that CI sets:

    (ulimit -v 800000; python3 scripts/tensor_3_10.py)
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
    degree, chain = result.free_cycles[0]
    read_back = result.express(chain, degree)
    t3 = time.perf_counter()
    expected = homology(factors[0]).module
    for f in factors[1:]:
        expected = kunneth(expected, homology(f).module)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{len(product)} cells: build {t1 - t0:.2f} s, homology {t2 - t1:.2f} s, "
          f"express {t3 - t2:.2f} s, peak RSS {peak_mb:.0f} MB")
    if len(product) != 3 ** 10 or module != expected:
        raise SystemExit("the homology of the product differs from the iterated Kunneth formula")
    # express maps ids through the product's _index and builds no id boundary
    if read_back != [("free", 0, 0)] or "bdry" in vars(product):
        raise SystemExit(f"the free generator reads back as {read_back}; "
                         f"id boundary built: {'bdry' in vars(product)}")
    built = [i for i in range(2, 11, 2) if "bdry" in vars(factors[i - 1])]
    if built:
        raise SystemExit("id boundary built for the dual factors "
                         + ", ".join(f"X{i}*" for i in built))


if __name__ == "__main__":
    main()
