#!/usr/bin/env python3
"""Evidence run for the derived side of the lifting adjunction.

Prints the cokernel dimensions of lift(ring) -> lift(simple) along the
degree ray (-k, 0, 0, 0) (each nonzero value is a lower-bound witness in
the first derived lift of the maximal ideal) and a truncated-limit
report for one degree.
"""

import sys

from coxlift.derived import (
    certification_bound,
    connecting_cokernel,
    ideal_sequence,
    truncated_lift_oracle,
)
from coxlift.instances import CONE_OVER_SQUARE
from coxlift.modules import simple_module


def main() -> int:
    cone = CONE_OVER_SQUARE
    seq = ideal_sequence(cone)
    kmax = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    print("degree\tcoker dim")
    for k in range(0, kmax + 1):
        c = (-k, 0, 0, 0)
        print(f"{c}\t{connecting_cokernel(cone, seq, c)}")

    c = (-1, 0, 0, 0)
    module = simple_module(cone)
    rep = truncated_lift_oracle(cone, module, c, certification_bound(cone, c), imax=1)
    print(f"\ntruncated limits at {c} with bound {rep.bound}: {rep.limit_dims}")
    print(f"certified at bound {rep.certification_bound}: {rep.certified} "
          f"({rep.point_count} poset points)")
    print("entries beyond lim^0 are truncation evidence, not certified values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
